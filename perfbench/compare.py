#!/usr/bin/env python3
"""Compare a parent and a change with the same benchmark code.

    python3 perfbench/compare.py --parent ../parent --change . [--pairs 10]
    python3 perfbench/compare.py --runs .perfbench_out/compare.json

PARENT and CHANGE are checkouts that each hold a ./src tree; the benchmark
code is always this directory's, so both sides run identical benchmark
code and settings.  Each pair runs both sides on one seed, and the side
that runs first alternates from pair to pair.  The verdict per metric:

- gain:        the change wins at least 9 of every 10 pairs (ties count for
               neither) and the medians differ by more than the parent's
               interquartile distance;
- better:      every change run beats every parent run, but the gain rule
               is not met;
- unresolved:  the spread between runs of either side exceeds the bound;
- regression:  the change's median is worse than the parent's by more
               than the bound;
- ok:          none of the above.

A workload on which the change fails more answer checks than the parent
gets no gain and no better verdict: those become "void", the row is
marked, and the tool exits 1, as it does for any regression.  Runs use
BENCHMARK.json's run_seconds and seeds FIRST_SEED, FIRST_SEED + 1, ...
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats
from run import SPEC, invoke

GAIN_SHARE = 0.9
FIRST_SEED = 100
RUNS_FILE = Path(".perfbench_out/compare.json")


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Verdict for one metric from paired runs (parent[i] pairs change[i])."""
    sign = 1.0 if better == "lower" else -1.0

    def improves(c, p):  # the change's value c beats the parent's p
        return sign * (p - c) > 0

    wins = sum(improves(c, p) for p, c in zip(parent, change))
    pq1, pmed, pq3 = stats.quartiles(parent)
    cq1, cmed, cq3 = stats.quartiles(change)
    spread = max(stats.relative_spread(parent), stats.relative_spread(change))
    worse_by = sign * (cmed - pmed) / pmed
    if (wins >= GAIN_SHARE * len(parent) and improves(cmed, pmed)
            and abs(cmed - pmed) > pq3 - pq1):
        result = "gain"
    elif all(improves(c, p) for c in change for p in parent):
        result = "better"
    elif spread > bound:
        result = "unresolved"
    elif worse_by > bound:
        result = "regression"
    else:
        result = "ok"
    return {"verdict": result, "wins": wins, "pairs": len(parent),
            "parent": [pq1, pmed, pq3], "change": [cq1, cmed, cq3],
            "change_vs_parent": cmed / pmed - 1.0, "spread": spread}


def compare(runs: dict, spec: dict) -> dict:
    """{workload: row} from {workload: {"parent": [...], "change": [...]}},
    where each run is a result line of run.py and a row holds the failed
    counts of both sides, whether the change's answers are worse, and the
    verdict of every end-to-end metric."""
    table = {}
    for workload, sides in runs.items():
        failed = {side: sum(r["failed"] for r in sides[side]) for side in ("parent", "change")}
        answers_worse = failed["change"] > failed["parent"]
        metrics = {}
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"][m["name"]]["value"] for r in sides[side]]
                      for side in ("parent", "change")}
            v = verdict(values["parent"], values["change"], m["better"], m["bound"])
            if answers_worse and v["verdict"] in ("gain", "better"):
                v["verdict"] = "void"
            metrics[m["name"]] = v
        table[workload] = {"failed": failed, "answers_worse": answers_worse,
                           "metrics": metrics}
    return table


def rejected(table: dict) -> bool:
    """True when some workload regressed or the change fails more checks."""
    return any(row["answers_worse"]
               or any(v["verdict"] == "regression" for v in row["metrics"].values())
               for row in table.values())


def collect(parent: Path, change: Path, workloads, pairs: int, seconds: float) -> dict:
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(pairs):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for workload in workloads:
            for side, checkout in order:
                runs[workload][side].append(invoke(checkout, workload, FIRST_SEED + i, seconds))
        print(f"pair {i + 1}/{pairs} done", file=sys.stderr)
    return runs


def print_table(table: dict) -> None:
    for workload, row in table.items():
        failed = row["failed"]
        cells = [f"{name} {v['verdict']} ({v['change_vs_parent']:+.1%}, "
                 f"{v['wins']}/{v['pairs']} wins)"
                 for name, v in row["metrics"].items()]
        mark = "WRONG ANSWERS " if row["answers_worse"] else ""
        print(f"{workload:6s} | {mark}failed {failed['parent']}->{failed['change']} | "
              + " | ".join(cells))


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--runs", type=Path, help="re-analyse a saved run set")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    if args.runs:
        runs = json.loads(args.runs.read_text())
    else:
        if not (args.parent and args.change):
            parser.error("give --parent and --change, or --runs")
        if args.pairs < 10:
            parser.error("the gain rule needs at least 10 pairs")
        runs = collect(args.parent.resolve(), args.change.resolve(), args.workloads,
                       args.pairs, spec["run_seconds"])
        RUNS_FILE.parent.mkdir(parents=True, exist_ok=True)
        RUNS_FILE.write_text(json.dumps(runs) + "\n")
    table = compare(runs, spec)
    print_table(table)
    return 1 if rejected(table) else 0


if __name__ == "__main__":
    sys.exit(main())
