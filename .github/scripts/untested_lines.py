"""List the executable lines of src/dilocsim that no test runs.

Runs pytest in this process under a stdlib line tracer (``sys.settrace``
and ``threading.settrace``) that records only frames whose code lives in
src/dilocsim, then prints every executable line inside a function that no
traced frame reached, one ``path:line: source`` per line, and their count.
Lines that run at import (module and class bodies, ``def`` lines) are left
out. Arguments are passed to pytest, e.g.

    python .github/scripts/untested_lines.py -q -k "not criterion_7"

Exit status is pytest's. Tracing makes the suite several times slower.
"""

from __future__ import annotations

import dis
import inspect
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "dilocsim"


def executable_lines(path: Path, text: str) -> set[int]:
    """Line starts of every function in the file, less lines that run at import."""
    module = compile(text, str(path), "exec")
    body, imported, stack = set(), set(), [module]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        lines = {line for _, line in dis.findlinestarts(code) if line}
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, lambda or comprehension
            body |= lines - {code.co_firstlineno}
        else:  # a module or class body
            imported |= lines
    return body - imported


def main(argv: list[str]) -> int:
    import pytest

    # read before the run, so the line numbers are those of the code traced
    files = {str(p): (p, p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in hit else None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name, (path, text) in files.items():
        source = text.splitlines()
        for line in sorted(executable_lines(path, text) - hit[name]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines in {PACKAGE.relative_to(ROOT)} run by no test")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
