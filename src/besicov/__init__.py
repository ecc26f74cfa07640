"""besicov: exact construction and certification of Besicovitch cylinder cocycles.

The library builds piecewise-linear cocycles over irrational circle rotations
whose cylinder maps combine dense orbits with closed discrete ones, certifies
the divergence of ergodic sums on the nested Cantor-type target sets with
exact rational arithmetic, and computes nested-interval bounds on the
Hausdorff dimension of those sets.

Importing the package loads none of its submodules: every public name
resolves on first lookup through ``_LAZY``, which imports the one submodule
that defines it (``tests/test_imports.py`` checks what each entry point loads).
The submodules themselves (``besicov.cf``, ``besicov.dimension``, ...)
resolve the same way.
``besicov.audit`` is the function ``audit.audit`` in every import order: the
import system binds each submodule it loads to the package attribute of the
same name, and the package module keeps the function in place of that one.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

#: Submodules, imported and bound as package attributes on first lookup.
_SUBMODULES = ("certlog", "cf", "cocycle", "dimension", "dynamics", "errors", "levels", "targets")

#: Exported name -> the submodule that defines it, imported on first lookup.
_LAZY = {
    **dict.fromkeys(
        ("Convergent", "GapCertificate", "IrrationalSpec", "alpha_bracket", "convergent",
         "gap_bounds_check"),
        "cf",
    ),
    **dict.fromkeys(
        ("CocycleSpec", "birkhoff", "eval_level", "level_max", "make_cocycle", "phi", "phi_m",
         "term"),
        "cocycle",
    ),
    **dict.fromkeys(
        ("Certificate", "LevelParams", "Profile", "ValidationReport", "select_levels",
         "validate_levels"),
        "levels",
    ),
    **dict.fromkeys(
        ("DigitPath", "TargetInterval", "family_kind", "interval", "member", "sample_point"),
        "targets",
    ),
    **dict.fromkeys(
        ("DivergenceReport", "WindowIndex", "audit", "audit_aligned", "audit_mixed",
         "discreteness_scan", "window"),
        "audit",
    ),
    **dict.fromkeys(
        ("BoxCountResult", "DimensionBounds", "NestingStats", "box_count",
         "falconer_bounds", "nesting_stats"),
        "dimension",
    ),
    **dict.fromkeys(
        ("OrbitRecord", "ProbeResult", "classify_orbit", "coverage",
         "nonrecurrence_test", "orbit", "sensitivity_probe"),
        "dynamics",
    ),
}


class _Package(_ModuleType):
    """The package module, whose ``audit`` stays the function: the submodule
    ``besicov.audit`` is bound here as its ``audit`` function instead."""

    def __setattr__(self, name, value):
        if name == "audit" and isinstance(value, _ModuleType):
            value = value.audit
        super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)  # the import binds it here
    owner = _LAZY.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{owner}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [name for name in __dir__() if not name.startswith("_")]
