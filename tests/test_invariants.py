"""Library invariant checks: explicit raises that ``python -O`` keeps."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import besicov

SRC = Path(besicov.__file__).parent


def test_no_bare_assert_in_library():
    bare = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert bare == []


def test_broken_invariants_are_library_errors():
    # the library raises InvariantBroken, a BesicovError, never AssertionError
    raised = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Raise) and "AssertionError" in ast.unparse(node)
    ]
    assert raised == []


def _modules_naming(names: set[str]) -> set[str]:
    """The library modules that name, read or import any of ``names``."""
    return {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.alias) and node.name in names
    }


def test_bump_kernel_names_stay_in_cocycle():
    # the bump-to-numerator decision lives in one module; everything else
    # reads it through the weights and potential helpers
    assert _modules_naming({"_bump_num", "_peak_den"}) == {"cocycle.py"}


def test_child_span_walk_stays_in_targets():
    # the interval geometry lives in one module: only targets walks the child
    # spans, and dimension reads the span formula alone, for its counts
    assert _modules_naming({"_children", "_descend"}) == {"targets.py"}
    assert _modules_naming({"_span"}) == {"targets.py", "dimension.py"}
    # dynamics takes its first probe candidate from targets and nothing else
    tree = ast.parse((SRC / "dynamics.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "targets"
                for alias in node.names}
    assert imported == {"_probe_start"}


#: Run with ``python -O``: exits 0 only if broken invariants still fail
#: there, i.e. no check is an ``assert``: ``nesting_stats`` raises
#: InvariantBroken on child counts outside the formula sandwich, and
#: ``besicov sum`` exits 2 when birkhoff disagrees with phi_m.
OPTIMIZED_SCRIPT = """
import contextlib, importlib, io, sys
from besicov import IrrationalSpec, cli, select_levels
from besicov.errors import InvariantBroken

if __debug__:
    sys.exit("not running under python -O")
dim_mod = importlib.import_module("besicov.dimension")
dim_mod._count_range = lambda *args: (0, 10**9)
profile = select_levels(IrrationalSpec.from_preset("golden"), "greedy", "main", 3)
try:
    dim_mod.nesting_stats(profile, mode="measured")
except InvariantBroken as e:
    if "sandwich" not in str(e):
        sys.exit(f"nesting_stats raised the wrong error: {e}")
else:
    sys.exit("nesting_stats accepted counts outside the formula sandwich")
cocycle_mod = importlib.import_module("besicov.cocycle")
real = cocycle_mod.birkhoff
cocycle_mod.birkhoff = lambda cspec, x, m: real(cspec, x, m) + 1
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sum", "--x", "1/7", "--m", "3"])
if code != 2:
    sys.exit(f"besicov sum exited {code} on a broken birkhoff")
"""


def test_master_identity_checks_survive_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
