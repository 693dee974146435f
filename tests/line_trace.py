"""Line trace: the lines of src/starkspec that no test reaches.

Runs by hand, not under pytest (the name does not match ``test_*.py``):

    python tests/line_trace.py [PYTEST_ARGS...]

Runs pytest on tests/ (with PYTEST_ARGS appended) under ``sys.settrace``
and ``threading.settrace``, then prints, for each module of
src/starkspec, the executable lines (those of its compiled code objects)
that no traced test ran, as ``module.py: 12, 40-41``. It needs no
coverage package. Code run in a subprocess (the CLI tests that start a
fresh interpreter) is not seen. The exit code is pytest's.
"""
from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "starkspec"


def executable_lines(path: Path) -> set:
    """Line numbers of every instruction compiled from the file."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as '3, 7-9, 12'."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv) -> int:
    prefix = str(PACKAGE) + "/"
    reached = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            reached[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("lines of src/starkspec no test reached:")
    for path in sorted(PACKAGE.glob("*.py")):
        missed = executable_lines(path) - reached[str(path)]
        if missed:
            print(f"  {path.name}: {ranges(missed)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
