"""Shared pieces of the starkspec benchmark: workloads, set-up timing,
output checks against the stored references, and the environment record.

Importing this module pins the BLAS/OpenMP thread pools to one thread
before numpy can be imported, so every campaign runs in a single thread.
"""
from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

#: name -> (subcommand, config file under configs/, extra CLI flags);
#: README.md says why each workload was chosen
WORKLOADS = {
    "verify-exp30": ("verify", "exp30.json", []),
    "eig-exp60": ("eig", "exp60.json", ["--method", "shooting"]),
    "asympt-table30": ("asympt", "table30.json", []),
}

#: per-index agreement of the campaign's shooting values with the stored oracle
LAMBDA_TOL = 1e-6
KAPPA_TOL = 1e-4


def require_source() -> None:
    """Exit with code 2 unless the package source sits next to the benchmark."""
    if not (SRC / "starkspec" / "cli.py").is_file():
        print(f"benchmark: no starkspec source under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def spec() -> dict:
    """BENCHMARK.json: the gated workloads, the metrics and run_seconds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def config_path(workload: str) -> Path:
    return BENCH / "configs" / WORKLOADS[workload][1]


def campaign_argv(workload: str, out_dir: Path) -> list:
    command, _, flags = WORKLOADS[workload]
    return [command, "--config", str(config_path(workload)), *flags, "--out", str(out_dir)]


def measure_setup(workload: str):
    """Seconds to import starkspec, parse the config and build the potential.

    Only meaningful in a process that has not imported starkspec yet.
    Returns (seconds, cli module).
    """
    require_source()
    t0 = time.perf_counter()
    from starkspec import cli
    cfg = cli.parse_config(config_path(workload).read_text())
    cli.make_potential(cfg.potential)
    return time.perf_counter() - t0, cli


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE / f"{workload}.json").read_text())


def check_campaign(ref: dict, exit_code, out_dir: Path):
    """(attempted, failed, results.csv byte-identical) for one campaign.

    Every index fails when the campaign raised (exit_code None) or exited
    with another code than the stored one; otherwise an index fails when
    its shooting values are missing or differ from the stored oracle
    values by more than LAMBDA_TOL / KAPPA_TOL.
    """
    indices = ref["indices"]
    csv = out_dir / "results.csv"
    if exit_code != ref["exit_code"] or not csv.is_file():
        return len(indices), len(indices), False
    text = csv.read_text()
    lines = text.splitlines()
    got = {}
    try:
        header = lines[0].split(",")
        col_n, col_l, col_k = (header.index(c) for c in ("n", "lambda_shoot", "kappa_shoot"))
        for line in lines[1:]:
            cells = line.split(",")
            got[int(cells[col_n])] = (float(cells[col_l]), float(cells[col_k]))
    except (IndexError, ValueError):  # malformed output: its indices count as missing
        pass
    failed = 0
    for n, lam, kap in zip(indices, ref["lambda_oracle"], ref["kappa_oracle"]):
        lam_s, kap_s = got.get(n, (math.nan, math.nan))
        if not (abs(lam_s - lam) <= LAMBDA_TOL and abs(kap_s - kap) <= KAPPA_TOL):
            failed += 1
    identical = text == (REFERENCE / f"{ref['workload']}.results.csv").read_text()
    return len(indices), failed, identical


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def os_threads() -> int | None:
    """Threads of this process, to confirm the campaign added none."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }
