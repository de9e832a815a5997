"""Alternating perfbench pairs: a parent checkout against a changed one.

    python3 tools/perf_pairs.py --parent ../parent --change . \\
        --workload fit-long --seeds 1-10 --out pairs.json

For each workload and each seed, ``perfbench/run.py --trace 0`` runs once in
each checkout for the ``run_seconds`` that the changed checkout's
``BENCHMARK.json`` sets, one after the other: the parent first on the 1st, 3rd, ...
pair and the change first on the others, so that a drift of the host's
speed falls on both sides alike.  Before every run the checkout's
``.perfbench_work`` and the ``__pycache__`` folders under its ``src`` and
``perfbench`` are removed, as in a fresh checkout.  For every end-to-end
metric the table gives each side's median and quartiles (linear
interpolation), the ratio of the medians (change / parent), the pairs in
which the change was better, and each side's failed and attempted
operations.  ``--out`` writes the same summary and every run's value as
JSON.  Each metric's better direction is read from the same
``BENCHMARK.json``; the tool stops when that file or a metric's direction is
missing.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

def seed_list(text: str) -> list[int]:
    """Seeds from "1-10", "3" or "1,4,7-9"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile, by linear interpolation."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's summary over paired runs (parent[k] beside change[k])."""
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    return {
        "parent_quartiles": [round(v, 6) for v in pq],
        "change_quartiles": [round(v, 6) for v in cq],
        "ratio_of_medians": round(cq[1] / pq[1], 4) if pq[1] else None,
        "change_better_pairs": wins,
        "parent_iqr": round(pq[2] - pq[0], 6),
        "parent_runs": parent,
        "change_runs": change,
    }


def benchmark(checkout: str) -> tuple[float, dict[str, str]]:
    """A checkout's ``BENCHMARK.json``: its run seconds and each end-to-end
    metric's better direction."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["run_seconds"], {m["name"]: m["better"] for m in doc["end_to_end"]}


def clean(checkout: str) -> None:
    """Remove what an earlier run left in ``checkout``."""
    shutil.rmtree(os.path.join(checkout, ".perfbench_work"), ignore_errors=True)
    for top in ("src", "perfbench"):
        for root, dirs, _ in os.walk(os.path.join(checkout, top)):
            if "__pycache__" in dirs:
                shutil.rmtree(os.path.join(root, "__pycache__"), ignore_errors=True)
                dirs.remove("__pycache__")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run's last stdout line, each metric as its value, or a
    failed run's stand-in."""
    clean(checkout)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        print(f"perf_pairs: {checkout} {workload} seed {seed} gave no result "
              f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}", file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    return result


def pairs(parent: str, change: str, workload: str, seeds: list[int], seconds: float,
          done=lambda runs: None) -> list[tuple[dict, dict]]:
    """(parent result, change result) for each seed, in alternating order;
    ``done`` is called with the pairs so far after each pair."""
    out = []
    for k, seed in enumerate(seeds):
        sides = {}
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = parent if side == "parent" else change
            sides[side] = run_once(checkout, workload, seed, seconds)
            print(f"perf_pairs: {workload} seed {seed} {side} done", file=sys.stderr)
        out.append((sides["parent"], sides["change"]))
        done(out)
    return out


def workload_summary(runs: list[tuple[dict, dict]], seeds: list[int],
                     better: dict[str, str]) -> dict:
    """The summary of one workload's pairs.  A metric is summarised over the
    pairs in which both runs gave a result; a run without one counts as a
    failed operation.  A metric without a direction in ``better`` is an
    error."""
    whole = [(p, c) for p, c in runs if p["metrics"] and c["metrics"]]
    names = [m for m in (whole[0][0]["metrics"] if whole else {})
             if all(m in p["metrics"] and m in c["metrics"] for p, c in whole)]
    return {
        "pairs": len(runs),
        "seeds": seeds,
        "failed_ops": {"parent": sum(p["failed"] for p, _ in runs),
                       "change": sum(c["failed"] for _, c in runs)},
        "attempted_ops": {"parent": sum(p["attempted"] for p, _ in runs),
                          "change": sum(c["attempted"] for _, c in runs)},
        "correct": all(p["correct"] and c["correct"] for p, c in runs),
        "metrics": {
            m: summarize([p["metrics"][m] for p, _ in whole],
                         [c["metrics"][m] for _, c in whole],
                         better[m])
            for m in names
        },
    }


def table(workload: str, summary: dict) -> str:
    """The summary as aligned text."""
    rows = [f"{workload}: {summary['pairs']} pairs, failed ops parent "
            f"{summary['failed_ops']['parent']}/{summary['attempted_ops']['parent']}, "
            f"change {summary['failed_ops']['change']}/{summary['attempted_ops']['change']}",
            f"  {'metric':30} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
            f" {'ratio':>7} {'better':>7}"]
    for name, s in summary["metrics"].items():
        pq, cq = s["parent_quartiles"], s["change_quartiles"]
        rows.append(f"  {name:30} {pq[1]:>12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                    f" {cq[1]:>12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                    f" {s['ratio_of_medians']!s:>7}"
                    f" {s['change_better_pairs']:>3}/{len(s['parent_runs'])}")
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent checkout")
    parser.add_argument("--change", required=True, help="the changed checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for more")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help='one pair per seed, e.g. "1-10" (default) or "1,3,5"')
    parser.add_argument("--out", help="write the summaries and runs as JSON")
    args = parser.parse_args(argv)
    seconds, better = benchmark(args.change)
    summaries = {}

    def save(workload, runs):
        # after every pair, so that an interrupted set keeps its pairs
        summaries[workload] = workload_summary(runs, args.seeds[:len(runs)], better)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(summaries, fh, indent=1)
                fh.write("\n")

    for workload in args.workload:
        pairs(args.parent, args.change, workload, args.seeds, seconds,
              lambda runs: save(workload, runs))
        print(table(workload, summaries[workload]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
