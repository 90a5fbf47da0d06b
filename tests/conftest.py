"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def in_process_exit_fails(monkeypatch):
    """``os._exit`` inside the test process fails the test instead of ending pytest.

    ``cli.entry`` ends a real process with ``os._exit``; called in-process
    without a recorder in its place, it would stop the whole run with that
    status, and a cut-short run could still exit 0.
    """
    def refuse(status):
        pytest.fail(f"os._exit({status}) called inside the test process")

    monkeypatch.setattr(os, "_exit", refuse)
