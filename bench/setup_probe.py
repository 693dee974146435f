"""Print the set-up seconds of one workload, measured in this fresh process.

    python3 bench/setup_probe.py verify-exp30
"""
import sys

import harness

if __name__ == "__main__":
    print(f"{harness.measure_setup(sys.argv[1])[0]!r}")
