"""Mutation corpus: small faults the tests must notice, kept as data.

Each entry names a file under the repository root, a text that occurs in it
exactly once, its replacement, and the test files that must fail once the
replacement is made.  An entry with ``equivalent`` set is a mutant no output
can tell from the original; the reason says why, and it is expected to survive.
Mutation analysis follows DeMillo, Lipton and Sayward, "Hints on test data
selection" (1978).

    python tests/mutants.py                 # every mutant
    python tests/mutants.py div-no-sticky   # the named ones

Each mutant is applied to a fresh temporary copy of ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md``, whose kill files are then run with
pytest under the ``no-shrink`` hypothesis profile of ``tests/conftest.py``, so
a property that fails is reported at once rather than shrunk.  The report has
one line per mutant, followed by the tests that failed; a kill-file run that
has not finished after ``TIMEOUT_S`` seconds is stopped and the mutant counted
as killed, since a hang fails the suite too.
The exit status is 0 when every mutant met its expectation.  Standard
library only: pytest runs in the child process.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
COCYCLE = "src/besicov/cocycle.py"
TEST_COCYCLE = ("tests/test_cocycle.py",)
DYNAMICS = "src/besicov/dynamics.py"
TEST_DYNAMICS = ("tests/test_dynamics.py",)
CLI = "src/besicov/cli.py"
INIT = "src/besicov/__init__.py"
TEST_IMPORTS = ("tests/test_imports.py",)
TEST_GOLDEN = ("tests/test_golden.py",)
#: Longer than any kill file's unmutated run.
TIMEOUT_S = 120
CERTLOG = "src/besicov/certlog.py"
TEST_DIMENSION = ("tests/test_dimension.py",)
DIMENSION = "src/besicov/dimension.py"
TEST_COUNTS = TEST_DIMENSION + ("tests/test_lattice.py",)
AUDIT = "src/besicov/audit.py"
CF = "src/besicov/cf.py"
TARGETS = "src/besicov/targets.py"
TEST_AUDIT = ("tests/test_audit.py",)
TEST_MEMBERSHIP = ("tests/test_targets.py", "tests/test_crosschecks.py")
TEST_DESCENT = ("tests/test_targets.py", "tests/test_lattice.py", "tests/test_dynamics.py")
LEVELS = "src/besicov/levels.py"
TEST_LEVELS = ("tests/test_levels.py",)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    kills: tuple[str, ...]
    equivalent: Optional[str] = None


MUTANTS = (
    # the orbit walk that birkhoff and the orbit lane share
    Mutant(
        "walk-no-backward-negation",
        COCYCLE,
        "cspec.alpha_hat if steps >= 0 else -cspec.alpha_hat",
        "cspec.alpha_hat",
        TEST_COCYCLE,
    ),
    Mutant(
        "walk-level-step-unscaled",
        COCYCLE,
        "r, dr = u * c % d, step * c % d",
        "r, dr = u * c % d, step % d",
        TEST_COCYCLE,
    ),
    Mutant(
        "walk-wrap-strict",
        COCYCLE,
        "            if r >= d:\n",
        "            if r > d:\n",
        TEST_COCYCLE,
    ),
    Mutant(
        "round-ties-away",
        DYNAMICS,
        "if low > half or low == half and q & 1:",
        "if low >= half:",
        TEST_DYNAMICS,
    ),
    Mutant(
        "div-no-sticky",
        DYNAMICS,
        "return _round(q | (rem > 0), -k, prec)",
        "return _round(q, -k, prec)",
        TEST_DYNAMICS,
    ),
    Mutant(
        "div-quotient-one-bit-short",
        DYNAMICS,
        "k = prec + 2 - a.bit_length() + b.bit_length()",
        "k = prec + 1 - a.bit_length() + b.bit_length()",
        TEST_DYNAMICS,
    ),
    Mutant(
        "quotient-no-gcd-fallback",
        DYNAMICS,
        "    g = gcd(n, d)\n",
        "    g = 1\n",
        TEST_DYNAMICS,
    ),
    Mutant(
        "walk-no-gcd-fallback",
        DYNAMICS,
        "quotient = _div if d.bit_length() <= prec else _quotient",
        "quotient = _div",
        TEST_DYNAMICS,
    ),
    Mutant(
        "walk-drops-the-fold",
        DYNAMICS,
        "                mv, ev = _round((1 << -ev) - mv, ev, prec)\n",
        "                pass\n",
        TEST_DYNAMICS + ("tests/test_golden.py",),
    ),
    Mutant(
        "walk-5/12-strict",
        DYNAMICS,
        "mv << (ev - e512) >= m512 if ev >= e512 else mv >= m512 << (e512 - ev)",
        "mv << (ev - e512) > m512 if ev >= e512 else mv > m512 << (e512 - ev)",
        TEST_DYNAMICS,
    ),
    Mutant(
        "walk-fold-at-1/2",
        DYNAMICS,
        "if mv << (ev + 1) > 1 if ev >= -1 else mv > 1 << (-1 - ev):",
        "if mv << (ev + 1) >= 1 if ev >= -1 else mv >= 1 << (-1 - ev):",
        TEST_DYNAMICS,
        equivalent="at u = 1/2 the fold gives 1 - u = 1/2 = u, so folding or not "
        "leaves the same value",
    ),
    Mutant(
        "walk-1/12-strict",
        DYNAMICS,
        "mv << (ev - e12) <= m12 if ev >= e12 else mv <= m12 << (e12 - ev)",
        "mv << (ev - e12) < m12 if ev >= e12 else mv < m12 << (e12 - ev)",
        TEST_DYNAMICS,
        equivalent="at u = 1/12 the ramp gives peak * ((u - 1/12) * 3) = 0, the "
        "same zero the early exit adds",
    ),
    Mutant(
        "reverify-at-base-precision",
        DYNAMICS,
        "max(separation(y, 2 * precision_bits)",
        "max(separation(y, precision_bits)",
        TEST_DYNAMICS,
    ),
    # the integer stand-ins for libmp's add, conversion to float and printing
    Mutant(
        "add-aligns-at-max-exponent",
        DYNAMICS,
        "e = min(ea, eb)\n    m = (ma << (ea - e)) + (mb << (eb - e))",
        "e = max(ea, eb)\n    m = (ma >> (e - ea)) + (mb >> (e - eb))",
        TEST_DYNAMICS,
    ),
    Mutant(
        "float-rounds-to-54-bits",
        DYNAMICS,
        "r, e = _round(abs(m), e, 53)",
        "r, e = _round(abs(m), e, 54)",
        TEST_DYNAMICS,
    ),
    Mutant(
        "decimal-rounds-up-from-6",
        DYNAMICS,
        'digits[dps] in "56789"',
        'digits[dps] in "6789"',
        TEST_DYNAMICS,
    ),
    # the potential kernel: the level weights over the lcm of the peak
    # denominators, and the per-level differences' base point and order
    Mutant(
        "phi-weight-unreduced",
        COCYCLE,
        "lv.q_next * (big // den)",
        "lv.q_next * big",
        TEST_COCYCLE,
    ),
    Mutant(
        "weight-q-next-read-as-q",
        COCYCLE,
        "(lv.cell_count, lv.q_next * (big // den))",
        "(lv.cell_count, lv.q * (big // den))",
        TEST_COCYCLE,
    ),
    Mutant(
        "kernel-over-profile-levels",
        COCYCLE,
        "return _weights(self.levels, self.variant)",
        "return _weights(self.profile.levels, self.variant)",
        TEST_COCYCLE,
    ),
    Mutant(
        "phi-base-at-shifted-point",
        COCYCLE,
        "zip(_potential(weights, u, d, variant),",
        "zip(_potential(weights, u + s, d, variant),",
        TEST_COCYCLE,
    ),
    Mutant(
        "differences-before-after-swapped",
        COCYCLE,
        "[after - before for before, after in",
        "[before - after for before, after in",
        TEST_COCYCLE,
    ),
    # the exact audit path on integer numerators: the budgets' bracket width,
    # window's edge test, certify_offset's end order and reported depth
    Mutant(
        "gap-bound-q-n-twice",
        COCYCLE,
        "_q(spec, n) * _q(spec, n + 1)",
        "_q(spec, n) * _q(spec, n)",
        TEST_COCYCLE,
    ),
    Mutant(
        "window-edge-inclusive",
        AUDIT,
        "if abs(m) * den * lv.a < lv.q_next:",
        "if abs(m) * den * lv.a <= lv.q_next:",
        TEST_AUDIT,
    ),
    Mutant(
        "offset-ends-unswapped",
        CF,
        "                n1, d1, n2, d2 = n2, d2, n1, d1\n",
        "                pass\n",
        ("tests/test_cf.py",),
    ),
    Mutant(
        "offset-reports-start-depth",
        CF,
        "Fraction(n2, d2), depth\n",
        "Fraction(n2, d2), max(8, k + 3)\n",
        ("tests/test_cf.py",),
    ),
    # the bump kernel's scale and clamp, and the greedy search's q reads
    Mutant(
        "tent-scale-halved",
        COCYCLE,
        "        return 8 * s\n",
        "        return 4 * s\n",
        ("tests/test_crosschecks.py",),
    ),
    Mutant(
        "main-clamp-at-one",
        COCYCLE,
        "    if t <= 0:\n",
        "    if t <= 1:\n",
        ("tests/test_crosschecks.py",),
    ),
    Mutant(
        "greedy-q-next-read-as-q",
        LEVELS,
        "pq, pq1 = _q(spec, prev), _q(spec, prev + 1)",
        "pq, pq1 = _q(spec, prev), _q(spec, prev)",
        TEST_LEVELS,
    ),
    # the audited terms' levels, the scan on one lattice, membership on
    # integers, the aligned indeterminate branch, the mixed ledger
    Mutant(
        "audited-terms-one-level-short",
        AUDIT,
        "_differences(weights[:L], cspec.variant",
        "_differences(weights[:L - 1], cspec.variant",
        TEST_AUDIT,
    ),
    Mutant(
        "scan-base-at-shifted-point",
        AUDIT,
        "base = sum(_potential(weights, u, d, v))",
        "base = sum(_potential(weights, u + s, d, v))",
        TEST_AUDIT,
    ),
    Mutant(
        "member-gap-test-inclusive",
        TARGETS,
        "if t - 12 * j_lift * b > hi * b:",
        "if t - 12 * j_lift * b >= hi * b:",
        TEST_MEMBERSHIP,
    ),
    Mutant(
        "member-lift-plus-one",
        TARGETS,
        "j_lift = (t // b - lo) // 12",
        "j_lift = (t // b - lo) // 12 + 1",
        TEST_MEMBERSHIP,
    ),
    Mutant(
        "aligned-budget-branch-gone",
        AUDIT,
        "    if certified <= 0:\n",
        "    if False:\n",
        TEST_AUDIT,
    ),
    Mutant(
        "mixed-bound-ok-wrong-denominator",
        AUDIT,
        "abs(t.numerator) * big > bound * t.denominator",
        "abs(t.numerator) * big > bound * big",
        TEST_AUDIT,
    ),
    Mutant(
        "mixed-head-bound-unscaled",
        AUDIT,
        "head_bound = 2 * sum(wt for _, wt in weights[: w.n]) * (big // kernel_big)",
        "head_bound = 2 * sum(wt for _, wt in weights[: w.n])",
        TEST_AUDIT,
    ),
    Mutant(
        "mixed-tail-budget-unweighted",
        AUDIT,
        "lam_sum += lam * weight",
        "lam_sum += lam",
        TEST_AUDIT,
    ),
    # comparisons against alpha: the gap law first, the brackets as fallback
    Mutant(
        "gap-law-lower-end-no-factor-2",
        CF,
        "near, far = scale, 2 * scale",
        "near, far = 2 * scale, 2 * scale",
        ("tests/test_cf.py",),
    ),
    Mutant(
        "gap-law-far-end-inclusive",
        CF,
        "return a < far * b and near * f < e",
        "return a <= far * b and near * f < e",
        ("tests/test_cf.py",),
    ),
    Mutant(
        "mixed-premise-taken-as-true",
        AUDIT,
        "        premise = _offset_ok(\n"
        "            cspec.profile.alpha, lv.k, Fraction(0), Fraction(1, 12 * lv.cell_count), abs(m)\n"
        "        )\n",
        "        premise = True\n",
        TEST_AUDIT,
    ),
    Mutant(
        "aligned-bullets-taken-as-true",
        AUDIT,
        "    bullets_ok = _offset_ok(\n",
        "    bullets_ok = True or _offset_ok(\n",
        TEST_AUDIT,
    ),
    # the guard q_N > guard Lambda_max, on integer floors
    Mutant(
        "guard-refusal-strict",
        COCYCLE,
        "if q_n <= _guard_bound(self.levels, self.guard):",
        "if q_n < _guard_bound(self.levels, self.guard):",
        TEST_COCYCLE,
    ),
    # the growth certificates on integers, and greedy selection's parity
    Mutant(
        "ratio-window-upper-inclusive",
        LEVELS,
        "upper_ok = 18 * num < 25 * den",
        "upper_ok = 18 * num <= 25 * den",
        TEST_LEVELS,
    ),
    Mutant(
        "rise-drops-10-power",
        LEVELS,
        "10**i * lv.q_next * base.a",
        "lv.q_next * base.a",
        TEST_LEVELS,
    ),
    Mutant(
        "greedy-parity-check-gone",
        LEVELS,
        "            if k % 2 != parity:\n",
        "            if False:\n",
        TEST_LEVELS,
        equivalent="k starts at k_{n-1} + 2 and steps by 2, so every k_n keeps k_1's "
        "parity and the check cannot fire",
    ),
    # the log enclosures' stop index (its step up or step down dropped, its estimate one
    # late), Horner sum and outward ends, its width check
    Mutant(
        "log-stop-one-term-late",
        CERTLOG,
        "        if tail << _TAIL_BITS >= den_cut:",
        "        if False:",
        TEST_DIMENSION,
    ),
    Mutant(
        "log-stop-walk-down-one-short",
        CERTLOG,
        "        if k == 1 or last >= den or last * b2 >= den * gap:",
        "        if True:",
        TEST_DIMENSION,
    ),
    Mutant(
        "log-stop-estimate-one-late",
        CERTLOG,
        "k = int(max(c - log2(2 * k + 1), 0) // d) + 1",
        "k = int(max(c - log2(2 * k + 1), 0) // d) + 2",
        TEST_DIMENSION,
        equivalent="the estimate only picks where the sum starts; the sum's integer tests "
        "move k back to the least index, so only the number of reruns changes",
    ),
    Mutant(
        "log-denominator-drops-odd",
        CERTLOG,
        "coeff // odd * power",
        "coeff * power",
        TEST_DIMENSION,
    ),
    Mutant(
        "log-horner-coefficient-next-odd",
        CERTLOG,
        "num = num * b2 + coeff // odd * power",
        "num = num * b2 + coeff // (odd + 2) * power",
        TEST_DIMENSION,
    ),
    Mutant(
        "log-upper-end-floored",
        CERTLOG,
        "lo + (x > 0) + (x > den_cut)",
        "lo + (x >= den_cut)",
        TEST_DIMENSION,
    ),
    Mutant(
        "log-ln2-ends-unswapped",
        CERTLOG,
        "_LN2 if e >= 0 else _LN2[::-1]",
        "_LN2",
        TEST_DIMENSION,
    ),
    Mutant(
        "log-width-check-gone",
        CERTLOG,
        "    if enc.width > limit:\n",
        "    if False:\n",
        TEST_DIMENSION,
    ),
    # measured child counts: the closed form over r = j C' mod C, its sandwich
    # check, and child_span
    Mutant(
        "nesting-sandwich-check-gone",
        DIMENSION,
        "if not (m_f <= m_meas and m_meas <= mbar_meas <= mbar_f + 1):",
        "if False:",
        TEST_DIMENSION,
    ),
    Mutant(
        "count-range-no-last-end",
        DIMENSION,
        "ends = {c - g}",
        "ends = {0}",
        TEST_COUNTS,
    ),
    Mutant(
        "count-range-steps-by-c",
        DIMENSION,
        "step = -((k % den - den) // (12 * g)) * g",
        "step = -((k % den - den) // (12 * c)) * c",
        TEST_COUNTS,
    ),
    Mutant(
        "count-range-step-floored",
        DIMENSION,
        "step = -((k % den - den) // (12 * g)) * g",
        "step = (den - k % den) // (12 * g) * g",
        TEST_COUNTS,
    ),
    # box counting: the floor-sum kernel's carries, the gap branch, the fold
    Mutant(
        "floor-sum-a-carry-n-plus-one",
        DIMENSION,
        "total += n * (n - 1) // 2 * qa + n * qb",
        "total += n * (n + 1) // 2 * qa + n * qb",
        TEST_COUNTS,
    ),
    Mutant(
        "floor-sum-b-carry-n-less-one",
        DIMENSION,
        "total += n * (n - 1) // 2 * qa + n * qb",
        "total += n * (n - 1) // 2 * qa + (n - 1) * qb",
        TEST_COUNTS,
    ),
    Mutant(
        "box-gaps-always-subtracted",
        DIMENSION,
        "    if 10 * grid >= den:\n",
        "    if True:\n",
        TEST_COUNTS,
    ),
    Mutant(
        "box-gaps-from-one-interval-per-cell",
        DIMENSION,
        "    if 10 * grid >= den:\n",
        "    if 12 * grid >= den:\n",
        TEST_COUNTS,
    ),
    Mutant(
        "box-gaps-strict",
        DIMENSION,
        "    if 10 * grid >= den:\n",
        "    if 10 * grid > den:\n",
        TEST_COUNTS,
        equivalent="at 10g = 12C each start s_j lies exactly one cell past t_{j-1}, so "
        "every gap skips s_j - t_{j-1} - 1 = 0 cells and the sums give 0 too",
    ),
    Mutant(
        "box-fold-overlap-term",
        DIMENSION,
        "        total -= below\n",
        "        total += grid - max(grid + below, top + 1)\n",
        TEST_COUNTS,
        equivalent="the fold runs only when t_{C-1} < g - 1, that is 11g > 12C, and "
        "then g + s_0 = g - ceil(g/12C) > g - ceil(11g/12C) = t_{C-1}, so the "
        "max is g + s_0 and the term is -s_0",
    ),
    Mutant(
        "box-fold-dropped",
        DIMENSION,
        "        total -= below\n",
        "        pass\n",
        TEST_COUNTS,
    ),
    Mutant(
        "child-span-ceil-floored",
        TARGETS,
        "return -((-12 * r - lo * d) // den), (12 * r + hi * d) // den",
        "return (12 * r + lo * d) // den, (12 * r + hi * d) // den",
        TEST_COUNTS,
    ),
    Mutant(
        "child-span-containment-check-gone",
        TARGETS,
        "    if jmin <= jmax and not ((12 * jmin + lo) * c >= a and (12 * jmax + hi) * c <= b):\n"
        "        raise InvariantBroken(f\"level {n + 1} children of j={j} escape their level {n} parent\")\n",
        "",
        TEST_COUNTS + TEST_MEMBERSHIP,
        equivalent="the span helper refuses j outside 0..c - 1, so c > 0 at the check, and "
        "then the ceil gives (12 jmin + L) c >= a and the floor (12 jmax + H) c <= b; the "
        "check only guards the two roundings (child-span-ceil-floored trips it)",
    ),
    # the one descent through the child spans: a policy's pick, for sampling
    # and the sensitivity probe's start point
    Mutant(
        "descent-center-pick-low",
        TARGETS,
        "jmin + (jmax - jmin + 1) // 2",
        "jmin + (jmax - jmin) // 2",
        TEST_DESCENT,
    ),
    Mutant(
        "descent-policy-test-swapped",
        TARGETS,
        'policy == "leftmost"',
        'policy != "leftmost"',
        TEST_DESCENT,
    ),
    Mutant(
        "probe-start-one-level-shallow",
        TARGETS,
        "depth = min(n + 2, n_max)",
        "depth = min(n + 1, n_max)",
        TEST_DESCENT,
    ),
    # the JSON form of results, one rule and three overrides
    Mutant(
        "json-fraction-as-p/q",
        "src/besicov/errors.py",
        "        return str(value)\n",
        '        return f"{value.numerator}/{value.denominator}"\n',
        TEST_GOLDEN,
    ),
    Mutant(
        "json-window-swapped",
        AUDIT,
        'd["window"] = [d.pop("window_lo"), d.pop("window_hi")]',
        'd["window"] = [d.pop("window_hi"), d.pop("window_lo")]',
        TEST_GOLDEN,
    ),
    Mutant(
        "json-no-passed",
        LEVELS,
        'return {**super().as_dict(), "passed": self.passed}',
        "return super().as_dict()",
        TEST_GOLDEN,
    ),
    # import layout: a cold call loads only what its subcommand runs
    Mutant(
        "cli-eager-audit",
        CLI,
        "from typing import TYPE_CHECKING, Optional\n",
        "from typing import TYPE_CHECKING, Optional\n"
        "from .audit import audit as run_audit\n",
        TEST_IMPORTS,
    ),
    Mutant(
        "cli-eager-targets",
        CLI,
        "from .errors import BesicovError, InvariantBroken, ValidationFailure\n\nif",
        "from .errors import BesicovError, InvariantBroken, ValidationFailure\n"
        "from .targets import FAMILY_CODES, canonical_family\n\nif",
        TEST_IMPORTS,
    ),
    Mutant(
        "cli-eager-dynamics",
        CLI,
        "from .errors import BesicovError, InvariantBroken, ValidationFailure\n",
        "from .errors import BesicovError, InvariantBroken, ValidationFailure\n"
        "from . import dynamics as dyn_mod\n",
        TEST_IMPORTS,
    ),
    Mutant(
        "init-eager-core",
        INIT,
        "_sys.modules[__name__].__class__ = _Package\n",
        "_sys.modules[__name__].__class__ = _Package\n"
        "from .cf import IrrationalSpec, convergent, gap_bounds_check\n"
        "from .cocycle import CocycleSpec, make_cocycle, phi_m\n"
        "from .levels import Profile, select_levels, validate_levels\n"
        "from .targets import DigitPath, sample_point\n"
        "from .audit import audit, window\n",
        TEST_IMPORTS,
    ),
    Mutant(
        "init-audit-module-shadows",
        INIT,
        "            value = value.audit\n",
        "            pass\n",
        TEST_IMPORTS,
    ),
)


def run(mutant: Mutant) -> tuple[str, list[str]]:
    """('killed', 'survived' or 'error', the ids of the tests that failed);
    'error' means the old text was not found once or pytest could not run."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for part in ("pyproject.toml", "README.md"):  # test_golden runs README's examples
            shutil.copy(ROOT / part, copy)
        target = copy / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "error", []
        target.write_text(text.replace(mutant.old, mutant.new))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                 "--hypothesis-profile", "no-shrink", *mutant.kills],
                cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
                capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "killed", [f"(no result after {TIMEOUT_S} s)"]
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error"), failed


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    ok = True
    for mutant in chosen:
        verdict, failed = run(mutant)
        want = "survived" if mutant.equivalent else "killed"
        ok &= verdict == want
        note = f"  (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{mutant.name:28} {verdict:9} {'ok' if verdict == want else 'UNEXPECTED'}{note}",
              flush=True)
        for test in failed:
            print(f"    {test}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
