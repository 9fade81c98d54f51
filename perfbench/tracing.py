"""Spans recorded by the benchmark around each call into a quasiperm module,
and the per-layer metrics derived from them.

A question span covers one question; each call span inside it covers one
call into a module and names it `<module>.<function>` (or `cli.<command>`
for a CLI subprocess).  Spans live in memory until the run writes them out.
Work counts are computed from the inputs and results of a call, not
measured inside the program.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from math import comb
from time import perf_counter_ns
from typing import Optional

from stats import median


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]  # index of the question span; None for a question
    question: str
    work: Optional[tuple]  # computed work count(s), see WORK

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


# layer -> work computed from (positional args, result)
WORK = {
    "permdisc.perm_discrepancy": lambda a, r: (a[0].n ** 3,),
    "patterns.profile": lambda a, r: (comb(a[0].n, a[1]),),
    "symmetry.search_perfect": lambda a, r: (r.nodes_explored, len(r.found)),
    "construct.mc_discrepancy_stats": lambda a, r: (a[1],),
}


class NullTracer:
    """Untraced passes: a call is only the call."""

    def question(self, qid: str):
        return nullcontext()

    def call(self, layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self._parent = None
        self._question = None

    def question(self, qid: str):
        return _QuestionSpan(self, qid)

    def call(self, layer, fn, *args, **kwargs):
        start = perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter_ns()
            work = None
            if result is not None and layer in WORK:
                work = WORK[layer](args, result)
            self.spans.append(Span(layer, start, end, self._parent, self._question, work))


class _QuestionSpan:
    def __init__(self, tracer: Tracer, qid: str):
        self.tracer, self.qid = tracer, qid

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)  # placeholder, so call spans can point at it
        t._parent, t._question = self.index, self.qid
        self.start = perf_counter_ns()

    def __exit__(self, *exc):
        end = perf_counter_ns()
        t = self.tracer
        t.spans[self.index] = Span("question", self.start, end, None, self.qid, None)
        t._parent = t._question = None
        return False


def layer_metrics(traced_passes, traced_pass_s, plain_pass_s) -> dict:
    """Per-layer metrics from the spans of each traced pass.

    Busy time and call counts are medians over traced passes of per-pass
    totals.  Rates divide totals over all traced passes.  A layer that no
    question called is absent; the caller reports it as 0.
    """
    per_pass = []
    for spans in traced_passes:
        totals = {}
        glue = 0
        for s in spans:
            dur = s.end_ns - s.start_ns
            if s.parent is None:
                glue += dur
                continue
            glue -= dur
            busy, calls = totals.get(s.name, (0, 0))
            totals[s.name] = (busy + dur, calls + 1)
        totals["bench.glue"] = (glue, 0)
        per_pass.append(totals)

    out = {}
    names = {name for totals in per_pass for name in totals}
    for name in names:
        out[f"{name}.busy_s"] = median([t.get(name, (0, 0))[0] for t in per_pass]) / 1e9
        out[f"{name}.calls"] = median([t.get(name, (0, 0))[1] for t in per_pass])
    out["bench.glue_s"] = out.pop("bench.glue.busy_s")
    out.pop("bench.glue.calls")

    calls = [s for spans in traced_passes for s in spans if s.parent is not None]
    for name in {s.name for s in calls if s.name.startswith("cli.")}:
        walls = [s.seconds * 1e3 for s in calls if s.name == name]
        key = "cli.startup_ms" if name == "cli.startup" else f"{name}.wall_ms"
        out[key] = median(walls)

    def totals(layer):
        spans = [s for s in calls if s.name == layer and s.work]
        busy_ns = sum(s.end_ns - s.start_ns for s in spans)
        work = [sum(col) for col in zip(*(s.work for s in spans))]
        return busy_ns, work

    busy_ns, work = totals("permdisc.perm_discrepancy")
    if work:
        out["permdisc.perm_discrepancy.ns_per_n3"] = busy_ns / work[0]
    busy_ns, work = totals("patterns.profile")
    if work:
        out["patterns.profile.ns_per_subset"] = busy_ns / work[0]
    busy_ns, work = totals("symmetry.search_perfect")
    if work and work[0]:
        out["symmetry.search_perfect.nodes"] = work[0] / len(traced_passes)
        out["symmetry.search_perfect.nodes_per_s"] = work[0] / (busy_ns / 1e9)
        out["symmetry.search_perfect.found_per_knode"] = 1e3 * work[1] / work[0]
    busy_ns, work = totals("construct.mc_discrepancy_stats")
    if work:
        out["construct.mc_discrepancy_stats.trials_per_s"] = work[0] / (busy_ns / 1e9)

    out["trace.overhead_frac"] = median(traced_pass_s) / median(plain_pass_s) - 1.0
    return out
