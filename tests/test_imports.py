"""What each entry point imports: ``import besicov`` loads no submodule, and
each subcommand loads only the modules it runs.

Each check runs in a fresh interpreter, so ``sys.modules`` starts empty.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY_MODULES = ("mpmath", "besicov.dynamics", "besicov.dimension", "besicov.certlog")

#: ``besicov.__all__`` as it was when every submodule was imported eagerly,
#: less ``children`` and ``level_scalars``, which had no caller,
#: ``SignPair``: a family is its two-character sign string,
#: ``RationalBracket``: ``alpha_bracket`` returns the one interval type,
#: ``cf.Enclosure``, and ``profile_to_json``/``profile_from_json``, which
#: only tests called.
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
    "phi", "phi_m", "sample_point",
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


#: The modules a cold ``python -m besicov.cli <subcommand>`` call loads beyond
#: CLI_CORE (None: ``--help`` or a usage error, which run no handler; a key
#: with a flag: the subcommand's mode that loads more).  runpy imports the
#: package before it runs ``cli``, and ``cli`` itself imports ``errors``.  No
#: subcommand loads mpmath.
CLI_CORE = {"besicov", "besicov.errors"}
_FLOAT_LANE = {"besicov.cf", "besicov.levels", "besicov.cocycle", "besicov.dynamics"}
CLI_LOADS = {
    None: set(),
    "cf": {"besicov.cf"},
    "levels": {"besicov.cf", "besicov.levels"},
    "eval": {"besicov.cf", "besicov.levels", "besicov.cocycle"},
    "sum": {"besicov.cf", "besicov.levels", "besicov.cocycle"},
    "target": {"besicov.cf", "besicov.levels", "besicov.targets"},
    "audit": {"besicov.cf", "besicov.levels", "besicov.cocycle", "besicov.targets",
              "besicov.audit"},
    "dimension": {"besicov.cf", "besicov.levels", "besicov.targets", "besicov.dimension",
                  "besicov.certlog"},
    "orbit": _FLOAT_LANE,
    "probe": _FLOAT_LANE,
    # the first candidate is descended on the target intervals
    "probe --kind sensitivity": _FLOAT_LANE | {"besicov.targets"},
}
#: One argv per subcommand and probe kind, and two that run no handler, each
#: with its CLI_LOADS key.
CLI_ARGVS = [
    (None, ["--help"]),
    (None, ["cf", "--bogus"]),
    ("cf", ["cf", "--alpha", "golden", "--upto", "5", "--check"]),
    ("levels", ["levels", "--n", "3"]),
    ("eval", ["eval", "--x", "3/7"]),
    ("sum", ["sum", "--x", "1/7", "--m-range", "1:3"]),
    ("target", ["target", "--level", "2", "--j", "3"]),
    ("target", ["target", "--depth", "3", "--out", "json"]),
    ("audit", ["audit", "--variant", "tent", "--n", "6", "--family", "mp", "--m", "83"]),
    ("dimension", ["dimension", "--n", "2", "--box"]),
    ("orbit", ["orbit", "--x", "1/7", "--steps", "3"]),
    ("probe --kind sensitivity",
     ["probe", "--kind", "sensitivity", "--variant", "tent", "--horizon", "20"]),
    ("probe", ["probe", "--kind", "nonrecurrence", "--variant", "tent", "--horizon", "20"]),
    ("probe", ["probe", "--kind", "coverage", "--horizon", "20"]),
    ("probe", ["probe", "--kind", "classify", "--x", "1/7", "--horizon", "20"]),
]
_IMPORT_LINE = re.compile(r"^import '(besicov(?:\.\w+)?|mpmath)' #", re.MULTILINE)


def loaded_by_cold_cli(argv) -> set[str]:
    """The ``besicov`` modules and ``mpmath`` that ``python -m besicov.cli argv``
    imports, read from ``-v``, which reports every import, lazy ones too."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-v", "-m", "besicov.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    return set(_IMPORT_LINE.findall(proc.stderr))


@pytest.mark.parametrize("command, argv", CLI_ARGVS, ids=["_".join(a) for _, a in CLI_ARGVS])
def test_cold_cli_loads_only_its_subcommands_modules(command, argv):
    assert loaded_by_cold_cli(argv) == CLI_CORE | CLI_LOADS[command]


def test_cli_argvs_cover_every_subcommand():
    from besicov.cli import COMMANDS

    assert {key and key.split()[0] for key in CLI_LOADS} == {None} | set(COMMANDS)
    assert {command for command, _ in CLI_ARGVS} == set(CLI_LOADS)


def test_importing_the_cli_loads_only_errors():
    """All that ``--help`` and a usage error need: no ``targets`` for the
    --family choices, no mpmath."""
    code = (
        "import json, sys, besicov.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('besicov') or m.startswith('mpmath'))))\n"
    )
    assert run_python(code) == ["besicov", "besicov.cli", "besicov.errors"]


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
    assert "besicov.dynamics" in loaded and "mpmath" not in loaded


def test_import_besicov_loads_no_submodule():
    code = (
        "import json, sys, besicov\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('besicov.') or m in ('besicov', 'mpmath'))))\n"
    )
    assert run_python(code) == ["besicov"]


def test_public_names_are_unchanged_and_resolve():
    code = (
        "import json, besicov\n"
        "missing = [n for n in besicov.__all__ if getattr(besicov, n, None) is None]\n"
        "print(json.dumps([sorted(besicov.__all__), missing]))\n"
    )
    names, missing = run_python(code)
    assert names == PUBLIC_NAMES
    assert missing == []


#: Ways a process can first load the submodule ``besicov.audit`` or look up the
#: function ``besicov.audit``, each run before the checks below.
AUDIT_ORDERS = [
    "import besicov.audit\nfrom besicov import *\n",
    "from besicov import audit\nimport besicov.audit\nfrom besicov import *\n",
    "import contextlib, io\n"
    "from besicov.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main(['audit', '--family', 'pp', '--m', '1']) == 0\n"
    "assert 'besicov.audit' in sys.modules and 'audit' in vars(besicov)\n"
    "from besicov import audit\n"
    "from besicov import *\n",
]


def test_lazy_names_bind_their_definitions():
    for order in AUDIT_ORDERS:
        code = (
            "import importlib, json, sys, types, besicov\n"
            + order
            + "module = importlib.import_module('besicov.audit')\n"
            "print(json.dumps([\n"
            "    isinstance(besicov.audit, types.FunctionType),\n"
            "    audit is besicov.audit is module.audit,\n"
            "    isinstance(module, types.ModuleType) and module is sys.modules['besicov.audit'],\n"
            "    besicov.orbit is besicov.dynamics.orbit,\n"
            "    nesting_stats is besicov.dimension.nesting_stats,\n"
            "    isinstance(certlog, types.ModuleType),\n"
            "    besicov.cf is importlib.import_module('besicov.cf'),\n"
            "]))\n"
        )
        assert run_python(code) == [True] * 7, order


def test_unknown_attribute_raises_attribute_error():
    import besicov

    with pytest.raises(AttributeError, match="no_such_name"):
        besicov.no_such_name
