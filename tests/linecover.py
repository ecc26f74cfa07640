"""Line coverage of the library by the tier-1 suite, with a reason for each gap.

Runs the test suite in this process under ``sys.settrace``, lists each line of
``src/besicov`` that is executable (it starts a bytecode instruction) but never
ran, and exits nonzero for any such line that ``ALLOWED`` does not explain.
Lines inside ``if TYPE_CHECKING:`` and ``if __name__ == "__main__":`` are
explained by their test alone.  A branch that an input can reach gets a test;
one that no input can reach is deleted, or kept as a guard against a code
change and listed here with the reason it cannot fire.

    python tests/linecover.py            # the whole suite
    python tests/linecover.py -k audit   # extra arguments go to pytest

The program's real traffic is every golden CLI run, the argv digests and
every benchmark reference request; the library lines it never reaches (most
of them input checks, verdict branches and guards) are listed by

    python tests/linecover.py -k "test_golden or test_argv_digests or test_bench_reference"

which exits nonzero, as each such line is reported.

Standard library only, but for pytest, which runs in-process so that the
tracer sees the library; code run in a subprocess is not traced.  Tracing
makes the suite about three times slower (3 min on 2 vCPUs).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "besicov"

#: Lines no test runs, by module and stripped text: why each may stay so.
ALLOWED = {
    ("__init__.py", 'return _import_module(f".{name}", __name__)  # the import binds it here'):
        "a submodule looked up on the package before any import of it: only a "
        "fresh interpreter (the subprocess tests of tests/test_imports.py) starts so",
    ("levels.py", 'raise InvariantBroken(f"greedy level {len(ks) + 1} broke the parity of k_1")'):
        "k starts at k_{n-1} + 2 and steps by 2, so the parity cannot change; "
        "a guard against a change to that search (mutant greedy-parity-check-gone)",
    ("targets.py",
     'raise InvariantBroken(f"level {n + 1} children of j={j} escape their level {n} parent")'):
        "the ceil and floor of the span formula keep both extreme children inside; "
        "a guard against a change to those roundings (mutant child-span-containment-check-gone)",
    ("targets.py",
     'raise InvalidDigitPath(f"center fails membership at level {len(reductions) + 1}")'):
        "the descent picks each index inside its parent's span, so the center lies in "
        "every union above it; a guard against a change to the descent",
}
GUARD_REASONS = {
    "TYPE_CHECKING": "imports for annotations only, which `from __future__ import "
                     "annotations` leaves unevaluated",
    "__main__": "runs only as `python -m besicov.cli`, in a subprocess",
}


def _code_lines(code: CodeType) -> set[int]:
    """The lines that start an instruction of ``code`` or of a code object
    nested in it, less each function's RESUME on its ``def`` line, which
    raises no line event (the enclosing code runs that line)."""
    lines = {line for _, _, line in code.co_lines() if line}  # a module's RESUME is line 0
    if code.co_name != "<module>":
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def _guarded(tree: ast.Module) -> dict[int, str]:
    """Lines in the bodies of ``if TYPE_CHECKING:`` and ``if __name__ ==
    "__main__":``, with the key of their reason in GUARD_REASONS."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = ast.unparse(node.test)
        key = ("TYPE_CHECKING" if test == "TYPE_CHECKING"
               else "__main__" if test == "__name__ == '__main__'" else None)
        if key:
            for stmt in node.body:
                out.update(dict.fromkeys(range(stmt.lineno, stmt.end_lineno + 1), key))
    return out


def _trace(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """(pytest's exit status, the (file, line) pairs of ``SRC`` that ran)."""
    hits: set[tuple[str, int]] = set()
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest  # after the path is set, so that the library imports from SRC

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                              str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(pytest_args: list[str]) -> int:
    sys.path.insert(0, str(SRC.parent))
    os.chdir(ROOT)
    status, hits = _trace(pytest_args)
    total = 0
    missed, unexplained = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        guarded = _guarded(ast.parse(text))
        executable = _code_lines(compile(text, str(path), "exec"))
        total += len(executable)
        for n in sorted(executable):
            if (str(path), n) in hits:
                continue
            key = (path.name, lines[n - 1].strip())
            reason = ALLOWED.get(key) or GUARD_REASONS.get(guarded.get(n, ""))
            missed.append(key)
            print(f"{path.name}:{n}: {lines[n - 1].strip()}")
            print(f"    {reason or 'UNEXPLAINED'}")
            if reason is None:
                unexplained.append(f"{path.name}:{n}")
    stale = sorted(f"{name}: {text}" for name, text in set(ALLOWED) - set(missed))
    for entry in stale:
        print(f"allowlisted but executed or gone: {entry}")
    print(f"{len(missed)} of {total} executable lines never ran, {len(unexplained)} of them "
          f"unexplained; pytest exit status {status}")
    return 1 if unexplained or stale or status else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
