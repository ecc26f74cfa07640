"""besicov: exact construction and certification of Besicovitch cylinder cocycles.

The library builds piecewise-linear cocycles over irrational circle rotations
whose cylinder maps combine dense orbits with closed discrete ones, certifies
the divergence of ergodic sums on the nested Cantor-type target sets with
exact rational arithmetic, and computes nested-interval bounds on the
Hausdorff dimension of those sets.

The exact certificate core (``cf``, ``cocycle``, ``levels``, ``targets``,
``audit``) is imported with the package.  The dimension lane (``dimension``,
``certlog``) and the float lane (``dynamics``, which needs ``mpmath``) load on
first use: the names in ``_LAZY`` (``BoxCountResult``, ``DimensionBounds``,
``NestingStats``, ``box_count``, ``falconer_bounds``, ``nesting_stats``,
``OrbitRecord``, ``ProbeResult``, ``classify_orbit``, ``coverage``,
``nonrecurrence_test``, ``orbit``, ``sensitivity_probe`` and the three
submodules) import their module when first looked up.
"""

from importlib import import_module as _import_module

from .cf import (
    Convergent,
    GapCertificate,
    IrrationalSpec,
    RationalBracket,
    alpha_bracket,
    convergent,
    gap_bounds_check,
)
from .cocycle import (
    CocycleSpec,
    birkhoff,
    eval_level,
    level_max,
    make_cocycle,
    phi,
    phi_m,
    term,
)
from .levels import (
    Certificate,
    LevelParams,
    Profile,
    ValidationReport,
    profile_from_json,
    profile_to_json,
    select_levels,
    validate_levels,
)
from .targets import (
    DigitPath,
    TargetInterval,
    family_kind,
    interval,
    member,
    sample_point,
)
from .audit import (  # eager: a lazy ``audit`` would be shadowed by the submodule
    DivergenceReport,
    WindowIndex,
    audit,
    audit_aligned,
    audit_mixed,
    discreteness_scan,
    window,
)

#: Exported name -> the submodule that defines it, imported on first access.
_LAZY = {
    "certlog": "certlog",
    "dimension": "dimension",
    "dynamics": "dynamics",
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


def __getattr__(name):
    owner = _LAZY.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{owner}", __name__)
    value = module if name == owner else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [name for name in __dir__() if not name.startswith("_")]
