import pytest

import stats
from compare import compare, rejected, verdict


def _jitter(base, n=10, step=0.002):
    return [base * (1 + step * ((i * 7) % 5 - 2)) for i in range(n)]


def test_clear_gain():
    parent = _jitter(100.0)
    change = _jitter(80.0)
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "gain"


def test_gain_needs_nine_of_ten_wins():
    parent = [100.0] * 10
    change = [80.0] * 8 + [101.0] * 2
    v = verdict(parent, change, "lower", 0.1)
    assert v["wins"] == 8
    assert v["verdict"] != "gain"


def test_paired_wins_inside_the_parent_spread_are_no_gain():
    parent = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    change = [p - 0.5 for p in parent]
    v = verdict(parent, change, "lower", 0.25)
    assert v["wins"] == 10
    assert v["verdict"] == "ok"


def test_regression_beyond_bound():
    assert verdict(_jitter(100.0), _jitter(120.0), "lower", 0.1)["verdict"] == "regression"


def test_small_slowdown_within_bound_is_ok():
    assert verdict(_jitter(100.0), _jitter(103.0), "lower", 0.1)["verdict"] == "ok"


def test_wide_spread_is_unresolved():
    parent = [70.0, 130.0, 80.0, 120.0, 100.0] * 2
    change = [75.0, 125.0, 85.0, 125.0, 105.0] * 2
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "unresolved"


def test_every_run_better_is_not_unresolved():
    parent = [200.0, 260.0, 300.0, 240.0, 210.0] * 2
    change = [100.0, 130.0, 150.0, 190.0, 105.0] * 2
    assert verdict(parent, change, "lower", 0.1)["verdict"] in ("gain", "better")


def test_higher_is_better_flips_direction():
    assert verdict(_jitter(100.0), _jitter(130.0), "higher", 0.1)["verdict"] == "gain"
    assert verdict(_jitter(100.0), _jitter(70.0), "higher", 0.1)["verdict"] == "regression"


def test_table_has_one_row_per_workload():
    spec = {"end_to_end": [{"name": "pass_s", "better": "lower", "bound": 0.1},
                           {"name": "setup_s", "better": "lower", "bound": 0.25}]}

    def runs(pass_s, failed=0):
        return [{"failed": failed, "metrics": {"pass_s": {"value": v},
                                               "setup_s": {"value": 1.0 + v / 1e4}}}
                for v in _jitter(pass_s)]

    table = compare({"large": {"parent": runs(10.0), "change": runs(5.0)},
                     "small": {"parent": runs(10.0), "change": runs(13.0)},
                     "cli": {"parent": runs(10.0), "change": runs(5.0, failed=1)}}, spec)
    assert set(table) == {"large", "small", "cli"}
    assert table["large"]["metrics"]["pass_s"]["verdict"] == "gain"
    assert not rejected({"large": table["large"]})
    assert table["small"]["metrics"]["pass_s"]["verdict"] == "regression"
    assert rejected({"small": table["small"]})
    # faster but with wrong answers: no gain, and the comparison fails
    assert table["cli"]["failed"] == {"parent": 0, "change": 10}
    assert table["cli"]["answers_worse"]
    assert table["cli"]["metrics"]["pass_s"]["verdict"] == "void"
    assert rejected({"cli": table["cli"]})


@pytest.mark.parametrize("n, value, pct", [(100, 90, 90.0), (11, 1, 100 / 11), (5, 5, 100.0)])
def test_tail_keeps_ten_samples_beyond(n, value, pct):
    assert stats.tail(list(range(1, n + 1))) == (value, pytest.approx(pct))
