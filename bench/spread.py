"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --runs 10                     # BENCHMARK.json's workloads
    python3 bench/spread.py --runs 5 --workload asympt-table30
    python3 bench/spread.py --runs 10 --traced --out bench/baseline.json

Runs are interleaved across workloads (seed-major), each in its own
process through bench/run.py with BENCHMARK.json's run_seconds. For each
end-to-end metric it prints the median, the quartiles and the spread,
(q3 - q1) / median, against the metric's bound: "wide" from a third of
the bound, "unresolved" from the bound itself. ``--traced`` adds one
traced run per workload; ``--out`` writes everything as JSON, the form
in which a commit's numbers are recorded as a baseline.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import harness

SPEC = harness.spec()


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(harness.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=list(harness.WORKLOADS))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    seeds = range(1, args.runs + 1)

    values = {w: {m["name"]: [] for m in SPEC["end_to_end"]} for w in workloads}
    for seed in seeds:
        for w in workloads:
            metrics = _run(w, seed, 0)["metrics"]
            for name, series in values[w].items():
                series.append(metrics[name]["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in metrics.items()), flush=True)

    summary = {"environment": harness.environment(), "run_seconds": SPEC["run_seconds"],
               "seeds": list(seeds), "workloads": {}}
    steady = True
    for w in workloads:
        print(f"\n{w}: {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} bound")
        rows = {}
        for m in SPEC["end_to_end"]:
            series = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else series * 3
            spread = (q3 - q1) / med
            flag = ("  unresolved" if spread >= m["bound"] else
                    "  wide" if spread >= m["bound"] / 3 else "")
            steady = steady and not flag
            print(f"{'':{len(w) + 1}} {m['name']:<12} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{spread:>8.3f} {m['bound']}{flag}")
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "values": series}
        summary["workloads"][w] = {"end_to_end": rows}
        if args.traced:
            _run(w, 0, 1)
            # the trace file, unlike the result line, also has the file-only metrics
            trace = json.loads((harness.OUT / f"BENCH_{w}.trace.json").read_text())
            summary["workloads"][w]["per_layer"] = {
                **{k: v["value"] for k, v in trace["metrics"].items()},
                "overhead_share": trace["overhead_share"]}
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps(summary, indent=1) + "\n")
    print("\nevery spread below a third of its bound" if steady else
          "\nsome spreads are at or above a third of their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
