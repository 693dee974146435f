"""Strong-potential sweep: locate_eigenvalue on exp(c, a) over a fixed grid.

Runs by hand, not under pytest (the name does not match ``test_*.py``):

    PYTHONPATH=src python tests/sweep_strong.py OUT.json [BASELINE.json]

Solves every index n = 1..10 of exp(c, a), c in {+-1, +-4, +-8, +-12, +-16,
+-20}, a in {0.5, 1, 2}: 360 indices. OUT.json maps "c,a,n" to [lambda,
kappa], or to the error text when the index raises. Given BASELINE.json, a
file this script wrote before, it prints the indices that raise in each
file and the largest |d lambda| and |d kappa| over the indices that solve
in both.
"""
from __future__ import annotations

import json
import sys
import time

import starkspec as ss

C_VALUES = (1.0, -1.0, 4.0, -4.0, 8.0, -8.0, 12.0, -12.0, 16.0, -16.0, 20.0, -20.0)
A_VALUES = (0.5, 1.0, 2.0)
INDICES = range(1, 11)


def sweep() -> dict:
    out = {}
    for c in C_VALUES:
        q_by_a = {a: ss.exp_decay(c, a) for a in A_VALUES}
        for a, q in q_by_a.items():
            for n in INDICES:
                try:
                    rec = ss.locate_eigenvalue(q, n)
                    out[f"{c:g},{a:g},{n}"] = [rec.lam, rec.kappa]
                except ss.StarkSpecError as exc:
                    out[f"{c:g},{a:g},{n}"] = f"{type(exc).__name__}: {exc}"
    return out


def compare(new: dict, old: dict) -> None:
    for name, table in (("this sweep", new), ("baseline", old)):
        raising = sorted(k for k, v in table.items() if isinstance(v, str))
        print(f"{name}: {len(raising)} of {len(table)} indices raise: {raising}")
    both = [k for k in new if not isinstance(new[k], str) and not isinstance(old.get(k, ""), str)]
    d_lam = max((abs(new[k][0] - old[k][0]), k) for k in both)
    d_kappa = max((abs(new[k][1] - old[k][1]), k) for k in both)
    print(f"solved in both: {len(both)}; max |d lambda| {d_lam[0]:.3e} at {d_lam[1]}; "
          f"max |d kappa| {d_kappa[0]:.3e} at {d_kappa[1]}")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    start = time.perf_counter()
    result = sweep()
    with open(argv[0], "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(f"{len(result)} indices in {time.perf_counter() - start:.1f} s -> {argv[0]}")
    if len(argv) == 2:
        with open(argv[1]) as fh:
            compare(result, json.load(fh))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
