"""Library invariant checks: explicit raises that ``python -O`` keeps."""

import ast
import importlib
from pathlib import Path

import pytest

import besicov
from besicov import audit_aligned, audit_mixed, sample_point

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


def test_audits_raise_when_master_identity_breaks(greedy_cocycle, tent_cocycle, monkeypatch):
    real = audit_mod.phi_m
    monkeypatch.setattr(audit_mod, "phi_m", lambda cspec, x, m: real(cspec, x, m) + 1)
    _, aligned = sample_point(greedy_cocycle.profile, "++", "center", 5)
    with pytest.raises(AssertionError):
        audit_aligned(greedy_cocycle, aligned, 1)
    _, mixed = sample_point(tent_cocycle.profile, "-+", "center", 6)
    with pytest.raises(AssertionError):
        audit_mixed(tent_cocycle, mixed, 83)
