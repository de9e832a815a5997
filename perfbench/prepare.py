"""Set up one workload run in a fresh process.

    python3 perfbench/prepare.py --workload monitor --seed 1 --work-dir DIR

Draws every input CSV of the workload from the seed into DIR, then makes
one tiny call of each CLI operation so that a cold process pays its lazy
imports here.  The last stdout line is a JSON map of input file name to
sha256, which lets the caller check that a seed always gives the same
inputs.  ``run.py`` times this script as the benchmark's set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workloads.load_bfchart(root)
    w = workloads.WORKLOADS[args.workload]
    paths = workloads.Paths(args.work_dir)
    os.makedirs(args.work_dir, exist_ok=True)
    workloads.generate_inputs(w, args.seed, paths)
    problems = workloads.warm_up(paths)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print(json.dumps({os.path.basename(p): workloads.sha256(p)
                      for p in paths.inputs(w)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
