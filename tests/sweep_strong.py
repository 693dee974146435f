"""Strong-potential sweeps: locate_eigenvalue over two fixed parameter grids.

Runs by hand, not under pytest (the name does not match ``test_*.py``):

    PYTHONPATH=src python tests/sweep_strong.py OUT.json [BASELINE.json]

The exp sweep solves every index n = 1..10 of exp(c, a), c in {+-1, +-4,
+-8, +-12, +-16, +-20}, a in {0.5, 1, 2}: 360 indices. The family sweep
solves n = 1..8 of alg(c, 3), alg(c, 1.3, r = 1.5), bump(c, 2, 1) and
bump(c, 3, 2.5), c in {+-4, +-8, +-16}: 192 indices. OUT.json maps
"family(params),n" to [lambda, kappa], or to the error text when the index
raises. Given BASELINE.json, a file this script wrote before, it prints,
per sweep, the indices that raise in each file and the largest |d lambda|
and |d kappa| over the indices that solve in both. It exits 1 when the
baseline lacks an index, the two files raise on different indices, or an
index that solves in both moved by more than TOL in lambda or kappa (the
self-convergence target), so a change that should move nothing can be
checked by exit code.
"""
from __future__ import annotations

import json
import sys
import time

import starkspec as ss

EXP_C = (1.0, -1.0, 4.0, -4.0, 8.0, -8.0, 12.0, -12.0, 16.0, -16.0, 20.0, -20.0)
EXP_A = (0.5, 1.0, 2.0)
FAMILY_C = (4.0, -4.0, 8.0, -8.0, 16.0, -16.0)
TOL = 1e-12


def _exp_sweep():
    for c in EXP_C:
        for a in EXP_A:
            yield f"exp({c:g},{a:g})", ss.exp_decay(c, a), range(1, 11)


def _family_sweep():
    for c in FAMILY_C:
        yield f"alg({c:g},3)", ss.alg_decay(c, 3.0), range(1, 9)
        yield f"alg({c:g},1.3,r=1.5)", ss.alg_decay(c, 1.3, r=1.5), range(1, 9)
        yield f"bump({c:g},2,1)", ss.bump(c, 2.0, 1.0), range(1, 9)
        yield f"bump({c:g},3,2.5)", ss.bump(c, 3.0, 2.5), range(1, 9)


SWEEPS = {"exp": _exp_sweep, "family": _family_sweep}


def sweep(cases) -> dict:
    out = {}
    for label, q, indices in cases:
        for n in indices:
            try:
                rec = ss.locate_eigenvalue(q, n)
                out[f"{label},{n}"] = [rec.lam, rec.kappa]
            except ss.StarkSpecError as exc:
                out[f"{label},{n}"] = f"{type(exc).__name__}: {exc}"
    return out


def compare(new: dict, old: dict) -> bool:
    """Print the raising indices of both tables and the largest moves;
    True when both hold the same indices, raise on the same ones, and
    nothing moved past TOL."""
    raising = []
    for name, table in (("this sweep", new), ("baseline", old)):
        raising.append(sorted(k for k, v in table.items() if isinstance(v, str)))
        print(f"  {name}: {len(raising[-1])} of {len(table)} indices raise: {raising[-1]}")
    missing = sorted(set(new) - set(old))
    if missing:
        print(f"  {len(missing)} indices missing from the baseline: {missing}")
    both = [k for k in new if not isinstance(new[k], str) and not isinstance(old.get(k, ""), str)]
    d_lam = max(((abs(new[k][0] - old[k][0]), k) for k in both), default=(0.0, None))
    d_kappa = max(((abs(new[k][1] - old[k][1]), k) for k in both), default=(0.0, None))
    print(f"  solved in both: {len(both)}; max |d lambda| {d_lam[0]:.3e} at {d_lam[1]}; "
          f"max |d kappa| {d_kappa[0]:.3e} at {d_kappa[1]}")
    return (not missing and raising[0] == raising[1]
            and d_lam[0] <= TOL and d_kappa[0] <= TOL)


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    results = {}
    for name, cases in SWEEPS.items():
        start = time.perf_counter()
        results[name] = sweep(cases())
        print(f"{name} sweep: {len(results[name])} indices in "
              f"{time.perf_counter() - start:.1f} s")
    with open(argv[0], "w") as fh:
        json.dump({k: v for r in results.values() for k, v in r.items()}, fh,
                  indent=1, sort_keys=True)
    if len(argv) == 1:
        return 0
    with open(argv[1]) as fh:
        old = json.load(fh)
    same = True
    for name, new in results.items():
        print(f"{name} sweep:")
        same &= compare(new, {k: v for k, v in old.items() if k in new})
    print("same as the baseline" if same else f"differs from the baseline (TOL = {TOL:g})")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
