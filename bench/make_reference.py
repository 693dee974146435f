"""Recompute the stored correctness references of every benchmark workload.

    python3 bench/make_reference.py

For each workload, runs ``starkspec verify`` on the workload's config
(same potential and index range) and stores the oracle lambda/kappa per
index, then runs the workload's own command and stores its exit code
and results.csv. Run it only when a change is meant to alter the
references, and say so with the change.
"""
import csv
import json
import shutil

import harness


def main() -> int:
    harness.require_source()
    from starkspec import cli

    scratch = harness.OUT / "reference-build"
    for workload in harness.WORKLOADS:
        shutil.rmtree(scratch, ignore_errors=True)
        code = cli.main(["verify", "--config", str(harness.config_path(workload)),
                         "--out", str(scratch)])
        if code != cli.EXIT_OK:
            raise SystemExit(f"{workload}: verify exited {code}; no reference written")
        with open(scratch / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        shutil.rmtree(scratch)
        code = cli.main(harness.campaign_argv(workload, scratch))
        ref = {
            "workload": workload,
            "command": harness.WORKLOADS[workload][0],
            "exit_code": code,
            "indices": [int(r["n"]) for r in rows],
            "lambda_oracle": [float(r["lambda_oracle"]) for r in rows],
            "kappa_oracle": [float(r["kappa_oracle"]) for r in rows],
        }
        body = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in ref.items())
        (harness.REFERENCE / f"{workload}.json").write_text("{\n" + body + "\n}\n")
        shutil.copyfile(scratch / "results.csv", harness.REFERENCE / f"{workload}.results.csv")
        print(f"{workload}: exit {code}, {len(rows)} indices")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
