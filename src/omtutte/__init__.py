"""Exact Tutte polynomials of oriented matroids and matroid perspectives.

Three independent routes to the same polynomial (rank closed formula,
basis-activity state sum, orientation-activity state sum) plus the
4-variable generating function of reorientation activities, which equals the
Tutte polynomial evaluated at (x+u, y+v).

A bare ``import omtutte`` loads no submodule: each public name, and each
submodule name, is imported on first access (PEP 562) and then cached here.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "poly": ("Monomial", "Polynomial", "PolynomialParseError", "VARIABLES"),
    "matroid": (
        "BasisActivity", "Digraph", "ENUMERATION_GUARD", "EnumerationGuardError",
        "InputFormatError", "MatroidError", "OrientedRealization",
        "bases", "basis_activities", "from_digraph", "tutte_bases", "tutte_closed"),
    "oriented": (
        "OrientedMatroid", "SignedSubset", "ActivityRecord", "minty_check",
        "orientation_active_sets", "signed_circuits", "signed_cocircuits"),
    "perspective": (
        "Perspective", "PerspectiveError", "ValidationReport",
        "bounded_perspective", "from_major", "identity_perspective",
        "parse_perspective", "tutte3_closed", "validate"),
    "expansions": (
        "ExpansionReport", "IdentityError", "DichotomyCase", "DichotomyError",
        "SpecializationReport", "count_acyclic", "count_basic_orientations",
        "count_bounded", "deletion_contraction_check", "derivative_diag",
        "derivative_expansion", "expansion_sum", "dichotomy_case", "doubling_expansion",
        "signed_sum", "specialization_suite"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "gallery")

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE, *_SUBMODULES})
