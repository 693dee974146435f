"""Run one starkspec benchmark workload, or all of them, and report metrics.

    python3 bench/run.py --workload verify-exp30 --seed 0 --seconds 60 --trace 0
    python3 bench/run.py                      # every workload, end-to-end table

Untraced (``--trace 0``): times set-up in this process and in fresh
interpreters, then repeats the campaign (``starkspec.cli.main`` on a
checked-in config) while the next repeat is projected to end within
``--seconds`` of the start, set-up included, and reports medians.
Traced (``--trace 1``): one untraced campaign, then two campaigns with
per-layer spans and counters; both must give identical counts. Every
campaign's results.csv is checked per index against the stored oracle
values in reference/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a traced run's metrics are the
per-layer ones that BENCHMARK.json lists. Per-workload details go to
out/BENCH_<workload>.json (untraced) or out/BENCH_<workload>.trace.json.
Every seed runs the same fixed parameters: the stored references pin
them, and nothing in a campaign is random.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import harness

#: set-up is timed in this process and in this many fresh interpreters
SETUP_PROBES = 6


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<34} {value:>14.6g} {unit}")


def _campaign(main, argv, out_dir: Path, ref: dict) -> dict:
    """One timed campaign with its checked outputs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        code = main(argv)
    except Exception:  # a crashing campaign counts as failed indices
        traceback.print_exc()
        code = None
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    attempted, failed, identical = harness.check_campaign(ref, code, out_dir)
    return {"wall_s": wall, "cpu_s": cpu, "exit_code": code, "attempted": attempted,
            "failed": failed, "results_identical": identical}


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    first_s, cli = harness.measure_setup(workload)
    setup = [first_s]
    probe = [sys.executable, str(harness.BENCH / "setup_probe.py"), workload]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=120)
        setup.append(float(done.stdout.split()[-1]))

    ref = harness.load_reference(workload)
    out_dir = harness.OUT / workload
    argv = harness.campaign_argv(workload, out_dir)
    repeats = []
    while True:
        repeats.append(_campaign(cli.main, argv, out_dir, ref))
        # stop before a repeat that would end after ``seconds``
        if time.perf_counter() - start + repeats[-1]["wall_s"] > seconds:
            break
    run_s = time.perf_counter() - start
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    metrics = {
        "campaign_s": (statistics.median(r["wall_s"] for r in repeats), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in repeats), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }
    identical = all(r["results_identical"] for r in repeats)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "run_s": run_s, "trace": 0,
        "argv": argv, "environment": harness.environment(),
        "os_threads": harness.os_threads(), "setup_samples_s": setup,
        "repeats": repeats, "failed_share": failed / attempted,
        "results_csv_identical": identical,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    _write(f"BENCH_{workload}.json", record)
    _print_table(f"{workload}: {len(repeats)} campaigns, medians", [
        *((k, v, u) for k, (v, u) in metrics.items()),
        ("failed_share", failed / attempted, f"of {attempted} indices"),
    ])
    print(f"  results.csv byte-identical to the stored copy: {'yes' if identical else 'no'}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def run_traced(workload: str, seed: int) -> dict:
    import tracing

    _, cli = harness.measure_setup(workload)
    ref = harness.load_reference(workload)
    out_dir = harness.OUT / workload
    argv = harness.campaign_argv(workload, out_dir)
    untraced = _campaign(cli.main, argv, out_dir, ref)
    indices = len(ref["indices"])
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            result = _campaign(tracer.wrap(tracing.ROOT_SPAN, cli.main), argv, out_dir, ref)
        finally:
            uninstall()
        runs.append((tracer, result))

    layers = [tracing.layer_metrics(t, indices) for t, _ in runs]
    counts_of = [{k: v for k, (v, u) in m.items() if u != "s"} for m in layers]
    counts_repeat = counts_of[0] == counts_of[1]
    if not counts_repeat:
        print("traced counts differ between two runs:", file=sys.stderr)
        for key in counts_of[0]:
            if counts_of[0][key] != counts_of[1][key]:
                print(f"  {key}: {counts_of[0][key]} vs {counts_of[1][key]}", file=sys.stderr)
    metrics = {k: (statistics.median(m[k][0] for m in layers) if u == "s" else v, u)
               for k, (v, u) in layers[0].items()}
    traced_s = statistics.median(r["wall_s"] for _, r in runs)
    metrics["trace.campaign_s"] = (traced_s, "s")
    metrics["trace.untraced_campaign_s"] = (untraced["wall_s"], "s")
    # from single campaigns, so its sign can be the machine's noise
    overhead = traced_s / untraced["wall_s"] - 1.0

    results = [untraced] + [r for _, r in runs]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    spans = sorted(runs[0][0].spans.items(), key=lambda kv: -kv[1][1])
    record = {
        "workload": workload, "seed": seed, "trace": 1, "argv": argv,
        "environment": harness.environment(), "indices": indices,
        "counts_repeat_exactly": counts_repeat, "overhead_share": overhead,
        "failed_share": failed / attempted,
        "results_csv_identical": all(r["results_identical"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "runs": [{k: v for k, (v, _) in m.items()} for m in layers],
        "spans": [{"path": "/".join(path), "calls": n, "total_s": total, "self_s": own}
                  for path, (n, total, own) in spans],
    }
    _write(f"BENCH_{workload}.trace.json", record)
    _print_table(f"{workload}: traced, median of 2 traced campaigns",
                 [*((k, v, u) for k, (v, u) in metrics.items()),
                  ("overhead_share", overhead, "traced over untraced, minus 1")])
    print(f"  counts repeat exactly across the two traced campaigns: "
          f"{'yes' if counts_repeat else 'NO'}")
    reported = [m["name"] for m in harness.spec()["per_layer"]]
    return {"correct": failed == 0 and counts_repeat, "attempted": attempted,
            "failed": failed, "metrics": {k: record["metrics"][k] for k in reported}}


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per campaign."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in harness.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.exit(done.returncode or 1)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{workload}.{key}"] = val
    return merged


def _write(name: str, record: dict) -> None:
    harness.OUT.mkdir(parents=True, exist_ok=True)
    (harness.OUT / name).write_text(json.dumps(record, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *harness.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    harness.require_source()
    if args.workload == "all":
        result = run_all(args)
    elif args.trace:
        result = run_traced(args.workload, args.seed)
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
