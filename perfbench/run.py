#!/usr/bin/env python3
"""Run one quasiperm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload large --seed 0 --seconds 40 --trace 0

Run it from the root of a quasiperm checkout; the program is imported from
./src and nowhere else, so a directory without ./src/quasiperm fails with
exit code 2 and prints no result.

One caller asks one question at a time (a closed loop) and repeats the
workload's fixed question list in a fixed number of passes: --seconds over
the seed commit's pass time, so parent and change time the same number of
questions and the tail percentile always falls on the same sample.  With
--trace 0 the last line reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 untraced and traced passes alternate and the last line
reports the per-layer metrics.  Every answer is checked after the timed
passes; a failed check counts in `failed`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import stats
import workloads
from tracing import NullTracer, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
MIN_PASSES = 3          # a median needs at least three passes
MIN_PASSES_TRACED = 4   # two untraced and two traced
CAP_FACTOR = 1.25       # no pass starts that would end past 1.25 x --seconds
SETUP_PROBES = 15       # spread over the run, so they see the same machine as the passes
# median pass_s of the seed commit over seeds 1-10 on the reference machine
# when the counts were fixed (README.md); constant, so the counts never move
# with the code measured
SEED_PASS_S = {"large": 3.52, "small": 8.76, "cli": 4.18}


class ProgramMissing(RuntimeError):
    """The working directory holds no quasiperm source tree."""


def load_program(root: Path):
    src = (root / "src").resolve()
    if not (src / "quasiperm" / "__init__.py").is_file():
        raise ProgramMissing(f"no quasiperm sources under {src}")
    sys.path.insert(0, str(src))
    import quasiperm

    if Path(quasiperm.__file__).resolve().parent != src / "quasiperm":
        raise ProgramMissing(f"quasiperm imported from {quasiperm.__file__}, not {src}")
    return quasiperm


# ------------------------------------------------------------------ passes

@dataclass
class Pass:
    traced: bool
    latencies: list = field(default_factory=list)  # seconds, one per question
    outcomes: list = field(default_factory=list)   # (qid, fingerprint, error)
    spans: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def run_pass(questions, tracer, answers: dict) -> Pass:
    """Ask every question once.  Only `ask` is timed; the answer is reduced
    to its fingerprint afterwards and kept in `answers` the first time that
    fingerprint shows up for its question."""
    traced = isinstance(tracer, Tracer)
    result = Pass(traced)
    for q in questions:
        answer = error = fp = None
        with tracer.question(q.qid):
            t0 = time.perf_counter_ns()
            try:
                answer = q.ask(tracer)
            except Exception as exc:  # a failing question is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
        result.latencies.append((t1 - t0) / 1e9)
        if error is None:
            try:
                fp = checks.fingerprint(q.canon(answer))
            except Exception as exc:
                error = f"canonical form failed: {type(exc).__name__}: {exc}"
            else:
                answers.setdefault((q.qid, fp), answer)
        result.outcomes.append((q.qid, fp, error))
    if traced:
        result.spans = tracer.spans
    return result


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """How many passes fill `seconds` at the seed commit's speed.  The count
    depends only on the workload and --seconds, never on the code measured."""
    count = int(seconds / SEED_PASS_S[workload])
    return max(count, MIN_PASSES_TRACED if trace else MIN_PASSES)


def run_passes(questions, count: int, trace: bool, answers: dict, cap_s: float,
               after_pass=lambda i: None) -> list:
    """`count` timed passes, fewer only past the minimum and when the next
    pass would end after `cap_s`.  There is no separate warm-up pass: the
    median over passes already discounts a slow first pass, and the run's
    time goes to measuring instead.  With `trace`, untraced and traced
    passes alternate.  `after_pass(i)` runs untimed after pass i."""
    start = time.perf_counter()
    least = MIN_PASSES_TRACED if trace else MIN_PASSES
    passes = []
    while len(passes) < count:
        tracer = Tracer() if trace and len(passes) % 2 == 1 else NullTracer()
        passes.append(run_pass(questions, tracer, answers))
        after_pass(len(passes) - 1)
        elapsed = time.perf_counter() - start
        if len(passes) >= least and elapsed + stats.median([p.seconds for p in passes]) > cap_s:
            break
    return passes


def verify(questions, passes, answers: dict, reference) -> tuple:
    """(attempted, failed, problems) over every question asked in every pass."""
    by_id = {q.qid: q for q in questions}
    first_fp, first = {}, {}
    for p in passes:
        for qid, fp, error in p.outcomes:
            if error is None and qid not in first_fp:
                first_fp[qid] = fp
                first[qid] = answers[(qid, fp)]
    verdicts = {}
    attempted = failed = 0
    problems = []
    for p in passes:
        for qid, fp, error in p.outcomes:
            attempted += 1
            if error is not None:
                issues = [error]
            else:
                key = (qid, fp)
                if key not in verdicts:
                    verdicts[key] = _judge(by_id[qid], fp, answers[key], first, reference)
                issues = list(verdicts[key])
                if fp != first_fp[qid]:
                    issues.append("answer differs between passes")
            if issues:
                failed += 1
                problems.append(f"{qid}: {'; '.join(issues)}")
    return attempted, failed, problems


def _judge(q, fp, answer, first, reference) -> list:
    try:
        issues = list(q.check(answer, first))
    except Exception as exc:
        issues = [f"check raised {type(exc).__name__}: {exc}"]
    if reference is not None and q.exact:
        if q.qid not in reference:
            issues.append("no reference answer")
        elif not checks.matches_reference(fp, reference[q.qid]):
            issues.append("differs from the reference answer")
    return issues


def load_reference(workload: str, seed: int):
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(HERE / "reference" / f"{workload}.json") as fh:
        return json.load(fh)["answers"]


# ------------------------------------------------------------------- setup

def probes_due(i: int, count: int) -> int:
    """Set-up probes due by the end of pass i of `count`: SETUP_PROBES in
    all, spread evenly, and at least one after the first pass."""
    return math.ceil((i + 1) * SETUP_PROBES / count)


def setup_prober(root: Path, workload: str, seed: int, workdir: Path, count: int, times: list):
    """An after_pass hook that runs the probe processes due and appends to
    `times` each one's seconds from process start to inputs ready."""
    def after_pass(i: int) -> None:
        while len(times) < probes_due(i, count):
            probe_dir = workdir / f"probe{len(times)}"
            probe_dir.mkdir()
            t0 = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(probe_dir)],
                cwd=root, capture_output=True, text=True, check=True)
            times.append(float(out.stdout.split()[-1]) - t0)
    return after_pass


# ------------------------------------------------------------------ record

def machine_record() -> dict:
    import numpy

    rec = {
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            rec["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass  # the record says "unknown" rather than failing the run
    return rec


def program_record(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    rec = {"git_sha": "unknown", "source_sha256": digest.hexdigest()}
    if (root / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        if out.returncode == 0:
            rec["git_sha"] = out.stdout.strip()
    return rec


def invoke(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """Run this benchmark on the program in `checkout` as a separate process
    and return the result line it prints."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"run.py failed in {checkout}: {out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


# -------------------------------------------------------------------- main

def end_to_end(passes, setup_times, peak_rss_kb, attempted, failed) -> tuple:
    latencies_ms = [x * 1e3 for p in passes for x in p.latencies]
    tail_ms, tail_pct = stats.tail(latencies_ms)
    metrics = {
        "setup_s": stats.median(setup_times),
        "pass_s": stats.median([p.seconds for p in passes]),
        "latency_p50_ms": stats.median(latencies_ms),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "error_rate": failed / attempted,
    }
    tail_info = {"percentile": tail_pct, "samples": len(latencies_ms)}
    return metrics, tail_info


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        qp = load_program(root)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    reference = load_reference(args.workload, args.seed)

    workdir = root / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        questions, cli = workloads.build(args.workload, args.seed, qp, workdir)
        answers = {}
        count = pass_count(args.workload, args.seconds, bool(args.trace))
        setup_times = []
        probes = (lambda i: None) if args.trace else setup_prober(
            root, args.workload, args.seed, workdir, count, setup_times)
        passes = run_passes(questions, count, bool(args.trace), answers,
                            CAP_FACTOR * args.seconds, probes)
        attempted, failed, problems = verify(questions, passes, answers, reference)
        peak_rss_kb = (cli.peak_rss_kb if cli is not None
                       else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        plain = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        derived = layer_metrics([p.spans for p in traced],
                                [p.seconds for p in traced], [p.seconds for p in plain])
        wanted = spec["per_layer"]
        shown = {m["name"]: float(derived.get(m["name"], 0.0)) for m in wanted}
        tail_info = None
    else:
        derived, tail_info = end_to_end(passes, setup_times, peak_rss_kb, attempted, failed)
        wanted = spec["end_to_end"]
        shown = derived  # also error_rate, which BENCHMARK.json cannot list
    units = {m["name"]: m["unit"] for m in wanted}

    outdir = root / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started, "questions_per_pass": len(questions),
        "pass_s_each": [p.seconds for p in passes],
        "question_median_ms": {q.qid: 1e3 * stats.median([p.latencies[i] for p in passes])
                               for i, q in enumerate(questions)},
        "machine": machine_record(), "program": program_record(root),
        "setup_probes_s": setup_times, "latency_tail": tail_info,
        "metrics": derived, "attempted": attempted, "failed": failed,
        "problems": problems[:50],
    }
    (outdir / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [s.__dict__ for p in passes for s in p.spans]
        (outdir / f"trace-{stem}.json").write_text(json.dumps(spans) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} x {len(questions)} questions")
    for name, value in shown.items():
        print(f"  {name:48s} {value:14.6f} {units.get(name, 'fraction')}")
    if tail_info:
        print(f"  latency_tail_ms is the p{tail_info['percentile']:.1f} latency "
              f"over {tail_info['samples']} samples")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    print(f"  record: {outdir / ('record-' + stem + '.json')}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": shown[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
