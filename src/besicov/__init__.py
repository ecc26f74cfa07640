"""besicov: exact construction and certification of Besicovitch cylinder cocycles.

The library builds piecewise-linear cocycles over irrational circle rotations
whose cylinder maps combine dense orbits with closed discrete ones, certifies
the divergence of ergodic sums on the nested Cantor-type target sets with
exact rational arithmetic, and computes nested-interval bounds on the
Hausdorff dimension of those sets.
"""

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
    level_scalars,
    profile_from_json,
    profile_to_json,
    select_levels,
    validate_levels,
)
from .targets import (
    DigitPath,
    SignPair,
    TargetInterval,
    children,
    family_kind,
    interval,
    member,
    sample_point,
)
from .audit import (
    DivergenceReport,
    WindowIndex,
    audit,
    audit_aligned,
    audit_mixed,
    discreteness_scan,
    window,
)
from .dimension import (
    BoxCountResult,
    DimensionBounds,
    NestingStats,
    box_count,
    falconer_bounds,
    nesting_stats,
)
from .dynamics import (
    OrbitRecord,
    ProbeResult,
    classify_orbit,
    coverage,
    nonrecurrence_test,
    orbit,
    sensitivity_probe,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
