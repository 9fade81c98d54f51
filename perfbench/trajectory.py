#!/usr/bin/env python3
"""Measure the program in the current checkout over several seeds, report
how steady each end-to-end metric is, and optionally add the result as a
point of perfbench/trajectory.json.

    python3 perfbench/trajectory.py --runs 10 [--workloads large small]
    python3 perfbench/trajectory.py --runs 10 --label seed --append

Each workload runs `--runs` times, for BENCHMARK.json's run_seconds, with
seeds FIRST_SEED, FIRST_SEED + 1, ...  A metric is steady when the distance
between its first and third quartile over those runs, as a share of its
median, is below a third of its bound.  With --append one traced run per
workload adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import stats
from run import HERE, SPEC, invoke, machine_record, program_record

FIRST_SEED = 1


def summarize(values) -> dict:
    q1, med, q3 = stats.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "runs": len(values)}


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--label", default=None)
    parser.add_argument("--append", action="store_true",
                        help="add the summary to perfbench/trajectory.json under --label")
    args = parser.parse_args(argv)
    if args.append and not args.label:
        parser.error("--append needs --label")

    root = Path.cwd()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"label": args.label,
             "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
             "machine": machine_record(), "program": program_record(root),
             "seconds": spec["run_seconds"],
             "seeds": list(range(FIRST_SEED, FIRST_SEED + args.runs)),
             "workloads": {}}
    all_steady = True
    for workload in args.workloads:
        results = [invoke(root, workload, seed, spec["run_seconds"]) for seed in point["seeds"]]
        failed = sum(r["failed"] for r in results)
        summary = {"attempted": sum(r["attempted"] for r in results), "failed": failed,
                   "end_to_end": {}}
        print(f"{workload}: {len(results)} runs, {failed} failed answers")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            steady = s["spread"] < bound / 3
            all_steady &= steady
            summary["end_to_end"][name] = s
            print(f"  {name:18s} median {s['median']:12.4f}  spread {s['spread']:7.2%}"
                  f"  bound {bound:.0%}  {'steady' if steady else 'NOT steady'}")
        if args.append:
            traced = invoke(root, workload, point["seeds"][0], spec["run_seconds"], trace=1)
            summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][workload] = summary
        all_steady &= failed == 0

    runs_path = root / ".perfbench_out" / f"trajectory-{args.label or 'unlabelled'}.json"
    runs_path.parent.mkdir(exist_ok=True)
    runs_path.write_text(json.dumps(point, indent=1) + "\n")
    if args.append:
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append(point)
        path.write_text(json.dumps(points, indent=1) + "\n")
        print(f"appended point {args.label!r} to {path}")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
