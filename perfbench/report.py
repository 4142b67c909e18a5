"""Run every workload of the benchmark and print each metric by name with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs through perfbench/run.py in its own process; this prints
their end-to-end metric and fail_share lines and exits 1 if any workload
failed to run or reported a failed op.
"""

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} did not run (exit {proc.returncode})")
            status = 1
            continue
        print("\n".join(line for line in lines[:-1] if line.startswith(workload + " ")))
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
