"""Run every workload, each in its own process, and print its metrics by name.

    python3 perfbench/report.py --seed 1 [--seconds 45] [--trace]

For each workload this prints trials_per_s, peak_rss_mb, trials_ok_share,
setup_s and failed_share (with its base) from an untraced run, and with
--trace the per-layer metrics of a traced run, each followed by its run record.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", action="store_true", help="also run the traced pass")
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            out = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = out.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if out.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print(out.stderr, file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
