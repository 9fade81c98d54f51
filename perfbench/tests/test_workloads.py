import subprocess
import sys

import pytest

import run
import workloads
from conftest import BENCH


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(name):
    assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
    assert workloads.make_inputs(name, 7) != workloads.make_inputs(name, 8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_do_not_use_the_program_generator(name, qp, monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("benchmark inputs must not come from the program")

    monkeypatch.setattr(qp.construct, "random_permutation", forbidden)
    monkeypatch.setattr(qp, "random_permutation", forbidden)
    questions, _ = workloads.build(name, 3, qp, tmp_path)
    assert questions
    assert len({q.qid for q in questions}) == len(questions)


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "cli",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def test_pass_count_is_fixed_by_workload_and_seconds_only():
    assert [run.pass_count(w, 40, False) for w in workloads.WORKLOADS] == [11, 4, 9]
    assert run.pass_count("small", 1, False) == run.MIN_PASSES
    assert run.pass_count("small", 1, True) == run.MIN_PASSES_TRACED


@pytest.mark.parametrize("count", [3, 4, 9, 11, 40])
def test_setup_probes_are_spread_over_the_passes(count):
    due = [run.probes_due(i, count) for i in range(count)]
    assert due[0] >= 1 and due[-1] == run.SETUP_PROBES
    steps = [b - a for a, b in zip([0] + due, due)]
    assert max(steps) - min(steps) <= 1


def test_run_passes_runs_the_count_and_calls_the_hook_after_each():
    q = workloads.Question("q", lambda t: 1, lambda a: a, lambda a, first: [])
    after = []
    passes = run.run_passes([q], 11, False, {}, 1e9, after.append)
    assert len(passes) == 11 and after == list(range(11))
    # a cap already passed stops the loop once the minimum is done
    assert len(run.run_passes([q], 11, False, {}, 0.0)) == run.MIN_PASSES
