"""Exact Tutte polynomials of oriented matroids and matroid perspectives.

Three independent routes to the same polynomial: the rank closed formula
(``matroid.tutte_closed``), the basis-activity state sum
(``routes.tutte_bases``) and the orientation-activity state sum (the sweep in
``expansions``; one orientation's active sets are ``routes.orientation_active_sets``),
plus the 4-variable generating function of reorientation activities, which
equals the Tutte polynomial evaluated at (x+u, y+v).

A bare ``import omtutte`` loads no submodule: each public name, and each
submodule name, is imported on first access (PEP 562) and then cached here.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "poly": ("Monomial", "Polynomial", "PolynomialParseError", "VARIABLES"),
    "matroid": (
        "Digraph", "ENUMERATION_GUARD", "EnumerationGuardError",
        "InputFormatError", "MatroidError", "OrientedRealization", "from_digraph", "tutte_closed"),
    "routes": (
        "BasisActivity", "bases", "basis_activities", "tutte_bases", "minty_check",
        "orientation_active_sets"),
    "oriented": ("OrientedMatroid", "SignedSubset", "signed_circuits", "signed_cocircuits"),
    "render": ("ActivityRecord",),
    "perspective": (
        "Perspective", "PerspectiveError", "ValidationReport",
        "bounded_perspective", "identity_perspective", "tutte3_closed", "validate"),
    "perspective_file": ("from_major", "parse_perspective"),
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


def _forwarder(module: str, moved: tuple[str, ...]):
    """The PEP 562 ``__getattr__`` of ``module``, whose ``moved`` names now live in a leaf
    module: each is read where ``_EXPORTS`` puts it, which loads that module then."""

    def forward(name: str):
        if name not in moved:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return __getattr__(name)

    return forward


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE, *_SUBMODULES})
