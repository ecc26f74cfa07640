"""What each entry point imports: the float and dimension lanes load on first use.

Each check runs in a fresh interpreter, so ``sys.modules`` starts empty.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY_MODULES = ("mpmath", "besicov.dynamics", "besicov.dimension", "besicov.certlog")

#: ``besicov.__all__`` as it was when every submodule was imported eagerly,
#: less ``children`` and ``level_scalars``, which had no caller,
#: ``SignPair``: a family is its two-character sign string, and
#: ``RationalBracket``: ``alpha_bracket`` returns the one interval type,
#: ``cf.Enclosure``.
PUBLIC_NAMES = [
    "BoxCountResult", "Certificate", "CocycleSpec", "Convergent", "DigitPath",
    "DimensionBounds", "DivergenceReport", "GapCertificate", "IrrationalSpec",
    "LevelParams", "NestingStats", "OrbitRecord", "ProbeResult", "Profile",
    "TargetInterval", "ValidationReport",
    "WindowIndex", "alpha_bracket", "audit", "audit_aligned", "audit_mixed",
    "birkhoff", "box_count", "certlog", "cf", "classify_orbit",
    "cocycle", "convergent", "coverage", "dimension", "discreteness_scan",
    "dynamics", "errors", "eval_level", "falconer_bounds", "family_kind",
    "gap_bounds_check", "interval", "level_max", "levels",
    "make_cocycle", "member", "nesting_stats", "nonrecurrence_test", "orbit",
    "phi", "phi_m", "profile_from_json", "profile_to_json", "sample_point",
    "select_levels", "sensitivity_probe", "targets", "term", "validate_levels",
    "window",
]


def run_python(code: str):
    """Run ``code`` in a fresh interpreter; return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after_cli(*argvs) -> list[str]:
    """Which of LAZY_MODULES are imported after ``cli.main`` runs each argv."""
    code = (
        "import contextlib, io, json, sys\n"
        "from besicov.cli import main\n"
        f"for argv in {list(map(list, argvs))!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        f"print(json.dumps([m for m in {LAZY_MODULES!r} if m in sys.modules]))\n"
    )
    return run_python(code)


def test_certificate_subcommands_load_no_lazy_module():
    loaded = loaded_after_cli(
        ["cf", "--alpha", "golden", "--upto", "5", "--check"],
        ["levels", "--n", "3"],
        ["eval", "--x", "3/7"],
        ["sum", "--x", "1/7", "--m-range", "1:3"],
        ["target", "--level", "2", "--j", "3"],
        ["audit", "--variant", "tent", "--n", "6", "--family", "mp", "--m", "83"],
    )
    assert loaded == []


def test_dimension_loads_dimension_but_not_mpmath():
    loaded = loaded_after_cli(["dimension", "--n", "2", "--mode", "measured"])
    assert "besicov.dimension" in loaded and "mpmath" not in loaded
    assert "besicov.dynamics" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "--x", "1/7", "--steps", "3"],
        ["probe", "--kind", "classify", "--x", "1/7", "--horizon", "20"],
    ],
)
def test_float_subcommands_load_dynamics(argv):
    loaded = loaded_after_cli(argv)
    assert "besicov.dynamics" in loaded and "mpmath" in loaded


def test_import_besicov_loads_only_the_certificate_core():
    code = (
        "import json, sys, besicov\n"
        f"print(json.dumps([m for m in {LAZY_MODULES!r} if m in sys.modules]))\n"
    )
    assert run_python(code) == []


def test_public_names_are_unchanged_and_resolve():
    code = (
        "import json, besicov\n"
        "missing = [n for n in besicov.__all__ if getattr(besicov, n, None) is None]\n"
        "print(json.dumps([sorted(besicov.__all__), missing]))\n"
    )
    names, missing = run_python(code)
    assert names == PUBLIC_NAMES
    assert missing == []


def test_lazy_names_bind_their_definitions():
    code = (
        "import json, types, besicov\n"
        "import besicov.audit\n"
        "from besicov import *\n"
        "print(json.dumps([\n"
        "    isinstance(besicov.audit, types.FunctionType),\n"
        "    besicov.orbit is besicov.dynamics.orbit,\n"
        "    nesting_stats is besicov.dimension.nesting_stats,\n"
        "    isinstance(certlog, types.ModuleType),\n"
        "]))\n"
    )
    assert run_python(code) == [True, True, True, True]


def test_unknown_attribute_raises_attribute_error():
    import besicov

    with pytest.raises(AttributeError, match="no_such_name"):
        besicov.no_such_name
