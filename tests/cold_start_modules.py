"""The modules that ``import omtutte.cli`` must not load, shared by ``test_cold_start`` and
CI's installed-script step.  This module imports nothing, so a probe may load it first."""

AVOIDED = ("dataclasses", "inspect", "ast", "json", "argparse", "gettext", "locale",
           "omtutte._polytext", "fractions", "decimal", "numbers", "array",
           "encodings.utf_8_sig")
TABLE_MODULES = {"omtutte.oriented", "omtutte.perspective", "omtutte.expansions"}
LEAF_MODULES = {"omtutte.render", "omtutte.perspective_file", "omtutte.routes"}
