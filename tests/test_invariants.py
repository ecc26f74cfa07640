"""Library invariant checks: explicit raises that ``python -O`` keeps."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import besicov
from besicov import audit_aligned, audit_mixed, sample_point
from besicov.errors import InvariantBroken

SRC = Path(besicov.__file__).parent
# the package re-exports the function audit() under the submodule's name
audit_mod = importlib.import_module("besicov.audit")


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


def test_audits_raise_when_master_identity_breaks(greedy_cocycle, tent_cocycle, monkeypatch):
    real = audit_mod.phi_m
    monkeypatch.setattr(audit_mod, "phi_m", lambda cspec, x, m: real(cspec, x, m) + 1)
    _, aligned = sample_point(greedy_cocycle.profile, "++", "center", 5)
    with pytest.raises(InvariantBroken):
        audit_aligned(greedy_cocycle, aligned, 1)
    _, mixed = sample_point(tent_cocycle.profile, "-+", "center", 6)
    with pytest.raises(InvariantBroken):
        audit_mixed(tent_cocycle, mixed, 83)


#: Run with ``python -O``: exits 0 only if both audits still raise
#: InvariantBroken when the master identity is broken, i.e. the check is not
#: an ``assert``.
OPTIMIZED_SCRIPT = """
import importlib, sys
from besicov import audit_aligned, audit_mixed, make_cocycle, sample_point, IrrationalSpec
from besicov.errors import InvariantBroken

if __debug__:
    sys.exit("not running under python -O")
audit_mod = importlib.import_module("besicov.audit")
real = audit_mod.phi_m
audit_mod.phi_m = lambda cspec, x, m: real(cspec, x, m) + 1
golden = IrrationalSpec.from_preset("golden")
main = make_cocycle(golden, "greedy", "main", 5, n_levels=5)
tent = make_cocycle(golden, "greedy", "tent", 6, n_levels=6)
cases = [
    (audit_aligned, main, sample_point(main.profile, "++", "center", 5)[1], 1),
    (audit_mixed, tent, sample_point(tent.profile, "-+", "center", 6)[1], 83),
]
for check, cspec, path, m in cases:
    try:
        check(cspec, path, m)
    except InvariantBroken as e:
        if "phi_m" not in str(e):
            sys.exit(f"{check.__name__} raised the wrong error: {e}")
    else:
        sys.exit(f"{check.__name__} accepted a wrong phi_m")
"""


def test_master_identity_checks_survive_python_O():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
