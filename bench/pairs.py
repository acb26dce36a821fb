"""Alternating before/after pairs of the benchmark, kept as a trajectory.

    python3 bench/pairs.py PARENT_DIR CHANGE_DIR --seeds 1211-1220 \
        --seconds 8 --parent-commit 1793982 --change-commit 1793982+change \
        --out bench/BENCH_12

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  For each
seed, ``perfbench/run.py --workload all`` runs once in each checkout, the
parent first on even pair indices and the change first on odd ones.  The
last line of each run (the result object) is appended to
``<out>_parent.jsonl`` or ``<out>_change.jsonl`` with the fields ``seed``,
``side``, ``order`` (0 or 1 within the pair), ``commit`` and ``steal``:
the share of all CPU time the host took from this machine during the run,
read from /proc/stat (null where that file does not exist).

After the last pair it prints, for each end-to-end metric of
BENCHMARK.json and each workload, the median of each side, the parent's
interquartile range and in how many pairs the change was better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _cpu_times() -> tuple[int, int] | None:
    """(steal, total) jiffies over all CPUs, or None off Linux."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    ticks = [int(x) for x in fields]
    return ticks[7], sum(ticks)


def _summary(results: dict, end_to_end: list) -> list[str]:
    """One line per workload and end-to-end metric: each side's median, the
    parent's interquartile range and the pairs the change won, over the
    pairs where both sides have the metric."""
    names = dict.fromkeys(key.split("/")[0] for row in results["parent"]
                          for key in row["metrics"])
    lines = []
    for workload in names:
        for metric in end_to_end:
            key = f"{workload}/{metric['name']}"
            pairs = [(p["metrics"][key]["value"], c["metrics"][key]["value"])
                     for p, c in zip(results["parent"], results["change"])
                     if key in p["metrics"] and key in c["metrics"]]
            if not pairs:
                continue
            parent, change = zip(*pairs)
            sign = -1 if metric["better"] == "lower" else 1
            won = sum(sign * (c - p) > 0 for p, c in pairs)
            q1, _, q3 = (statistics.quantiles(parent, n=4)
                         if len(parent) > 1 else (parent[0],) * 3)
            lines.append(
                f"{key}: parent {statistics.median(parent):.6g} (IQR "
                f"{q3 - q1:.3g}), change {statistics.median(change):.6g} "
                f"{metric['unit']}; change better in {won}/{len(pairs)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--seeds", required=True,
                        help="first-last, inclusive, one pair per seed")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--out", required=True,
                        help="path prefix of the two .jsonl files")
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    sides = {"parent": (args.parent_dir, args.parent_commit),
             "change": (args.change_dir, args.change_commit)}
    results = {"parent": [], "change": []}
    for pair, seed in enumerate(range(first, last + 1)):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for position, side in enumerate(order):
            checkout, commit = sides[side]
            before = _cpu_times()
            run = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "all",
                 "--seed", str(seed), "--seconds", args.seconds],
                cwd=checkout, capture_output=True, text=True, check=False)
            after = _cpu_times()
            lines = run.stdout.strip().splitlines()
            if not lines:
                print(f"seed {seed} {side}: no result (exit "
                      f"{run.returncode})\n{run.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            steal = (None if before is None or after is None
                     else (after[0] - before[0]) / max(after[1] - before[1], 1))
            result.update(seed=seed, side=side, order=position, commit=commit,
                          steal=steal)
            with open(f"{args.out}_{side}.jsonl", "a") as fh:
                fh.write(json.dumps(result) + "\n")
            results[side].append(result)
            print(f"seed {seed} {side} (order {position}): exit "
                  f"{run.returncode}, steal {steal}", flush=True)
    benchmark = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    print("\n".join(_summary(results, benchmark["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
