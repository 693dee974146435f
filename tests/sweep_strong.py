"""Strong-potential sweeps: locate_eigenvalue and the oracle over two
fixed parameter grids.

Runs by hand, not under pytest (the name does not match ``test_*.py``):

    PYTHONPATH=src python tests/sweep_strong.py OUT.json [BASELINE.json]

The exp sweep solves every index n = 1..10 of exp(c, a), c in {+-1, +-4,
+-8, +-12, +-16, +-20}, a in {0.5, 1, 2}: 360 indices. The family sweep
solves n = 1..8 of alg(c, 3), alg(c, 1.3, r = 1.5), bump(c, 2, 1) and
bump(c, 3, 2.5), c in {+-4, +-8, +-16}: 192 indices. OUT.json maps
"family(params),n" to [lambda, kappa], or to the error text when the index
raises. The oracle sweep runs extrapolated_spectrum(q, ORACLE_L,
ORACLE_COUNT) on each of those 60 potentials and maps "oracle
family(params)" to [lambdas, kappas], or to the error text. Each sweep
prints its wall time next to its entry count, so by-hand runs show the
solver's and the oracle's speed. Given BASELINE.json, a file this script
wrote before, it prints, per sweep, the entries that raise in each file
and the largest |d lambda| and |d kappa| over the entries that solve in
both, and, for each entry that raises in one file only, the solved side's
|d lambda| and |d kappa| from that file's oracle entry for the same
potential. It exits 1 when the baseline lacks an
entry, the two files raise on different entries, or an entry that solves
in both moved by more than its sweep's tolerance in lambda or kappa (TOL,
the self-convergence target, for the solver; ORACLE_TOL for the oracle),
so a change that should move nothing can be checked by exit code.
"""
from __future__ import annotations

import itertools
import json
import sys
import time

import numpy as np

import starkspec as ss

EXP_C = (1.0, -1.0, 4.0, -4.0, 8.0, -8.0, 12.0, -12.0, 16.0, -16.0, 20.0, -20.0)
EXP_A = (0.5, 1.0, 2.0)
FAMILY_C = (4.0, -4.0, 8.0, -8.0, 16.0, -16.0)
TOL = 1e-12
ORACLE_L = 40.0
ORACLE_COUNT = 10
ORACLE_TOL = 1e-9


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


def _attempt(solve):
    try:
        return solve()
    except ss.StarkSpecError as exc:
        return f"{type(exc).__name__}: {exc}"


def _locate(q, n):
    rec = ss.locate_eigenvalue(q, n)
    return [rec.lam, rec.kappa]


def sweep(cases) -> dict:
    return {f"{label},{n}": _attempt(lambda: _locate(q, n))
            for label, q, indices in cases for n in indices}


def oracle_sweep(cases) -> dict:
    return {f"oracle {label}": _attempt(lambda: [
        row.tolist() for row in ss.extrapolated_spectrum(q, ORACLE_L, ORACLE_COUNT)])
        for label, q, _ in cases}


#: name -> (run, tolerance)
SWEEPS = {
    "exp": (lambda: sweep(_exp_sweep()), TOL),
    "family": (lambda: sweep(_family_sweep()), TOL),
    "oracle": (lambda: oracle_sweep(itertools.chain(_exp_sweep(), _family_sweep())),
               ORACLE_TOL),
}


def compare(new: dict, old: dict, tol: float) -> bool:
    """Print the raising entries of both tables and the largest moves;
    True when both hold the same entries, raise on the same ones, and
    nothing moved past tol."""
    raising = []
    for name, table in (("this sweep", new), ("baseline", old)):
        raising.append(sorted(k for k, v in table.items() if isinstance(v, str)))
        print(f"  {name}: {len(raising[-1])} of {len(table)} entries raise: {raising[-1]}")
    missing = sorted(set(new) - set(old))
    if missing:
        print(f"  {len(missing)} entries missing from the baseline: {missing}")
    both = [k for k in new if not isinstance(new[k], str) and not isinstance(old.get(k, ""), str)]

    def largest(row):
        return max(((float(np.max(np.abs(np.subtract(new[k][row], old[k][row])))), k)
                    for k in both), default=(0.0, None))

    d_lam, d_kappa = largest(0), largest(1)
    print(f"  solved in both: {len(both)}; max |d lambda| {d_lam[0]:.3e} at {d_lam[1]}; "
          f"max |d kappa| {d_kappa[0]:.3e} at {d_kappa[1]}")
    return (not missing and raising[0] == raising[1]
            and d_lam[0] <= tol and d_kappa[0] <= tol)


def one_sided(new: dict, old: dict, new_oracle: dict) -> None:
    """Print one line per entry of the sweep ``new`` that raises in exactly
    one of new and the baseline ``old``: the solved side's distance from its
    own file's oracle entry (``new_oracle`` for new, ``old`` itself for old)."""
    for k in sorted(k for k in new if k in old
                    and isinstance(new[k], str) != isinstance(old[k], str)):
        side, (lam, kappa), oracles = (("this sweep", new[k], new_oracle)
                                       if isinstance(old[k], str) else
                                       ("baseline", old[k], old))
        label, n = k.rsplit(",", 1)
        ref = oracles.get(f"oracle {label}")
        if not isinstance(ref, list):
            print(f"  solves in {side} only: {k}; no oracle entry to compare with")
            continue
        j = int(n) - 1
        print(f"  solves in {side} only: {k}; |d lambda| {abs(lam - ref[0][j]):.1e}, "
              f"|d kappa| {abs(kappa - ref[1][j]):.1e} from the oracle")


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    results = {}
    for name, (run, _) in SWEEPS.items():
        start = time.perf_counter()
        results[name] = run()
        wall = time.perf_counter() - start
        print(f"{name} sweep: {len(results[name])} entries in {wall:.2f} s wall, "
              f"{1e3 * wall / len(results[name]):.1f} ms per entry")
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
        same &= compare(new, {k: v for k, v in old.items() if k in new}, SWEEPS[name][1])
        if name != "oracle":
            one_sided(new, old, results["oracle"])
    print("same as the baseline" if same else
          f"differs from the baseline (TOL = {TOL:g}, ORACLE_TOL = {ORACLE_TOL:g})")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
