#!/usr/bin/env python3
"""Record the reference answers of every workload for the default seed.

    python3 perfbench/record_reference.py

Run it from the root of a checkout of the commit whose answers are the
reference.  Each workload is asked once; every invariant check must pass
before its exact answers are written to perfbench/reference/<workload>.json.
"""

import json
import shutil
import sys
from pathlib import Path

import workloads
from run import HERE, load_program, program_record, run_pass, verify
from tracing import NullTracer


def main() -> int:
    root = Path.cwd()
    qp = load_program(root)
    seed = workloads.DEFAULT_SEED
    for name in workloads.WORKLOADS:
        workdir = root / ".perfbench_work" / f"reference-{name}"
        workdir.mkdir(parents=True)
        try:
            questions, _ = workloads.build(name, seed, qp, workdir)
            answers = {}
            passes = [run_pass(questions, NullTracer(), answers)]
            attempted, failed, problems = verify(questions, passes, answers, None)
        finally:
            shutil.rmtree(workdir)
        if failed:
            print("\n".join(problems), file=sys.stderr)
            return 1
        exact = {q.qid: q for q in questions if q.exact}
        stored = {qid: json.loads(fp) for qid, fp, _ in passes[0].outcomes if qid in exact}
        out = {"seed": seed, "program": program_record(root), "answers": stored}
        path = HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(stored)} reference answers -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
