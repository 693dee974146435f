"""Campaign outputs: the three bench/configs campaigns, for byte-identity checks.

Runs by hand, not under pytest (the name does not match ``test_*.py``):

    PYTHONPATH=src python tests/campaign_outputs.py OUT [BASELINE]

Runs every workload of ``bench/harness.WORKLOADS`` (verify-exp30,
eig-exp60, asympt-table30) with the subcommand and flags given there, into
OUT/<workload>/. Given BASELINE, a directory this script wrote before (at a
parent commit, say), it compares results.csv, summary.json and log.txt of
each workload byte for byte, names each file that differs with the first
line that differs, and exits 1 unless every file is identical, so a change
that should move nothing can be checked by exit code. For a results.csv
that differs, it also prints the largest |new - old| of each numeric
column that moved, so a change that should move a column a little shows
how far it moved.
"""
from __future__ import annotations

import csv
import math
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import harness  # noqa: E402  (pins the thread pools before numpy loads)

FILES = ("results.csv", "summary.json", "log.txt")


def first_difference(new: Path, old: Path):
    """None when the files hold the same bytes, else a line saying where
    they part."""
    if not new.is_file() or not old.is_file():
        return "missing here" if not new.is_file() else "missing from the baseline"
    a, b = new.read_bytes(), old.read_bytes()
    if a == b:
        return None
    new_lines, old_lines = a.splitlines(keepends=True), b.splitlines(keepends=True)
    for i, (x, y) in enumerate(zip(new_lines, old_lines)):
        if x != y:
            return f"line {i + 1} differs:\n    out:      {x!r}\n    baseline: {y!r}"
    shorter = min(len(new_lines), len(old_lines))
    return (f"line {shorter + 1} differs: {len(new_lines)} lines here, "
            f"{len(old_lines)} in the baseline")


def column_moves(new: Path, old: Path):
    """The largest |new - old| of each numeric column that moved, between
    two CSV files with the same header and row count, as one line (inf
    where a value turned NaN or back), or a line saying they cannot be
    paired."""
    (head, *a), (head_old, *b) = (list(csv.reader(p.read_text().splitlines())) or [[]]
                                  for p in (new, old))
    if head != head_old or len(a) != len(b):
        return "columns cannot be paired (header or row count differs)"
    moves = {}
    for row, row_old in zip(a, b):
        for name, x, y in zip(head, row, row_old):
            try:
                d = abs(float(x) - float(y))
            except ValueError:
                continue
            if x != y:
                moves[name] = max(moves.get(name, 0.0), d if d == d else math.inf)
    return "largest |d| by column: " + (
        ", ".join(f"{name} {d:.3g}" for name, d in moves.items()) or "none moved")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    harness.require_source()
    from starkspec import cli
    out = Path(argv[0])
    for workload in harness.WORKLOADS:
        shutil.rmtree(out / workload, ignore_errors=True)   # no file left from an older run
        code = cli.main(harness.campaign_argv(workload, out / workload))
        print(f"{workload}: exit code {code}")
    if len(argv) == 1:
        return 0
    same = True
    for workload in harness.WORKLOADS:
        for name in FILES:
            new, old = out / workload / name, Path(argv[1]) / workload / name
            diff = first_difference(new, old)
            if diff:
                print(f"  {workload}/{name}: {diff}")
                if name == "results.csv" and not diff.startswith("missing"):
                    print(f"    {column_moves(new, old)}")
                same = False
    print("same as the baseline" if same else "differs from the baseline")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
