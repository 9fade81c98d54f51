import dataclasses
import itertools
import random
from fractions import Fraction

import checks
import run
import workloads
from tracing import NullTracer


def _product_question(qp, seed, tmp_path):
    questions, _ = workloads.build("small", seed, qp, tmp_path)
    return next(q for q in questions if q.qid == "product.4x4x4")


def _off_by_one(answer):
    product, report = answer
    return product, dataclasses.replace(report, scaled_D=report.scaled_D + 1)


def test_invariants_flag_a_scaled_D_off_by_one(qp, tmp_path):
    q = _product_question(qp, 5, tmp_path)
    answer = q.ask(NullTracer())
    assert q.check(answer, {}) == []
    assert q.check(_off_by_one(answer), {})


def test_runner_counts_a_wrong_answer_as_failed(qp, tmp_path):
    seed = workloads.DEFAULT_SEED
    q = _product_question(qp, seed, tmp_path)
    wrong = _off_by_one(q.ask(NullTracer()))
    bad = dataclasses.replace(q, ask=lambda t: wrong)
    for question in (q, bad):
        answers = {}
        passes = [run.run_pass([question], NullTracer(), answers)]
        attempted, failed, problems = run.verify(
            [question], passes, answers, run.load_reference("small", seed))
        assert attempted == 1
        assert failed == (question is bad)
    assert "differs from the reference answer" in problems[0]


def test_reference_comparison_ignores_search_order_dependent_answers(qp, tmp_path):
    questions, _ = workloads.build("small", workloads.DEFAULT_SEED, qp, tmp_path)
    budgeted = [q for q in questions if ".budget" in q.qid]
    assert budgeted and not any(q.exact for q in budgeted)
    assert all(q.exact for q in questions if q.qid in ("search.9_3", "search.8_2"))


def test_inversions_match_brute_force():
    rng = random.Random(3)
    for n in (1, 2, 3, 7, 64, 100):
        values = list(range(n))
        rng.shuffle(values)
        brute = sum(1 for i, j in itertools.combinations(range(n), 2)
                    if values[i] > values[j])
        assert checks.inversions(values) == brute


def test_fingerprint_digests_long_answers():
    short = checks.fingerprint([1, 2, 3])
    assert short == "[1,2,3]"
    long = checks.fingerprint(list(range(10000)))
    assert '"sha256"' in long
    assert checks.matches_reference(short, [1, 2, 3])


def test_certificate_check_re_evaluates_the_pb_and_mb_witnesses(qp, tmp_path):
    questions, _ = workloads.build("small", 5, qp, tmp_path)
    q = next(q for q in questions if q.qid == "certificate.random16")
    cert = q.ask(NullTracer())
    assert q.check(cert, {}) == []
    step = Fraction(1, 16 * 16)
    for wrong in (dataclasses.replace(cert, eps_PB=cert.eps_PB + step),
                  dataclasses.replace(cert, eps_MB=cert.eps_MB + step)):
        assert any("witness does not attain" in p for p in q.check(wrong, {}))
