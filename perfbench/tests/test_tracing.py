from tracing import NullTracer, Span, Tracer, layer_metrics


def _pass(question_ns, calls):
    """Spans of one traced pass: one question span and its call spans,
    each call given as (name, duration_ns, work)."""
    spans = [Span("question", 0, question_ns, None, "q", None)]
    t = 0
    for name, dur, work in calls:
        spans.append(Span(name, t, t + dur, 0, "q", work))
        t += dur
    return spans


def test_busy_calls_glue_and_rates():
    passes = [_pass(1_000, [("permdisc.perm_discrepancy", 400, (8,)),
                            ("cli.matrix", 500, None)]),
              _pass(1_200, [("permdisc.perm_discrepancy", 600, (8,)),
                            ("cli.matrix", 500, None)])]
    out = layer_metrics(passes, [2.0, 2.0], [1.0, 3.0])
    assert out["permdisc.perm_discrepancy.calls"] == 1
    assert out["permdisc.perm_discrepancy.busy_s"] == 500e-9
    assert out["permdisc.perm_discrepancy.ns_per_n3"] == 1000 / 16
    assert out["cli.matrix.wall_ms"] == 500e-6
    assert out["bench.glue_s"] == 100e-9
    assert out["trace.overhead_frac"] == 0.0


def test_tracer_records_question_and_call_spans():
    t = Tracer()
    with t.question("q1"):
        assert t.call("construct.mc_discrepancy_stats", lambda n, trials: n, 4, 9) == 4
    question, call = t.spans
    assert question.parent is None and question.question == "q1"
    assert call.parent == 0 and call.question == "q1" and call.work == (9,)
    assert question.start_ns <= call.start_ns <= call.end_ns <= question.end_ns
    assert NullTracer().call("x", max, 1, 2) == 2
