import argparse
import cmath
import contextlib
import io
import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from quasiperm.balance import MAX_CERTIFICATE_SIZE
from quasiperm import cli, construct, patterns
from quasiperm.cli import _encode, dispatch
from quasiperm.core import MAX_SET_MODULUS, CyclicInterval, Permutation
from quasiperm.construct import MAX_PRODUCT_SIZE
from quasiperm.patterns import MAX_PROFILE_STEPS
from quasiperm.permdisc import MAX_DISCREPANCY_SIZE
from quasiperm.symmetry import MAX_SEARCH_SIZE, SymmetrySearchResult

from fresh import run_fresh
from oracles import brute_B


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture
def perm_file(tmp_path):
    p = tmp_path / "perm.txt"
    p.write_text("0 1 2 3\n")
    return str(p)


@pytest.fixture
def set_file(tmp_path):
    p = tmp_path / "set.txt"
    p.write_text("10: 0 2 4 6 8\n")
    return str(p)


def test_no_arguments_is_usage_error(capsys):
    assert dispatch([]) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_bad_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 junk\n")
    assert dispatch(["analyze-perm", "--perm", str(bad)]) == 2
    missing = str(tmp_path / "nope.txt")
    assert dispatch(["analyze-perm", "--perm", missing]) == 2
    # bytes that do not decode are invalid input too, not an internal failure
    bad.write_bytes(b"0 \xff\xfe 1\n")
    assert dispatch(["analyze-perm", "--perm", str(bad)]) == 2


def test_report_envelope(capsys, perm_file):
    report = run_json(capsys, "analyze-perm", "--perm", perm_file)
    assert set(report) == {"command", "inputs", "results", "version", "elapsed_ms"}
    assert report["command"] == "analyze-perm"
    assert report["inputs"]["perm"] == perm_file


def test_analyze_perm_example(capsys, perm_file):
    report = run_json(capsys, "analyze-perm", "--perm", perm_file)
    assert report["results"]["scaled_D"] == 4


def test_analyze_perm_sample_mode(capsys, perm_file):
    report = run_json(capsys, "analyze-perm", "--perm", perm_file,
                      "--sample", "10", "--seed", "1")
    r = report["results"]
    assert r["mode"] == "sample"
    assert 0 <= r["scaled_D_lower_bound"] <= 4
    report = run_json(capsys, "analyze-perm", "--perm", perm_file,
                      "--sample", "0")
    assert report["results"]["samples"] == 0
    assert report["results"]["scaled_D_lower_bound"] == 0


def test_analyze_perm_negative_sample_is_invalid_input(capsys, perm_file):
    assert dispatch(["analyze-perm", "--perm", perm_file, "--sample", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--sample -1 is below 0" in captured.err


def test_analyze_perm_over_size_limit_is_invalid_input(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.write_text(" ".join(map(str, range(MAX_DISCREPANCY_SIZE + 1))) + "\n")
    for extra in ((), ("--sample", "1")):
        assert dispatch(["analyze-perm", "--perm", str(big), *extra]) == 2
        assert "invalid input" in capsys.readouterr().err


def test_set_over_size_limit_is_invalid_input(tmp_path, capsys):
    big = tmp_path / "big.txt"
    for text, command in ((f"{MAX_CERTIFICATE_SIZE + 1}: 0", "certify"),
                          ("1000000: 0", "certify"),
                          (f"{MAX_SET_MODULUS + 1}: 0", "analyze-set"),
                          ("100000000000: 1", "analyze-set")):
        big.write_text(text + "\n")
        assert dispatch([command, "--set", str(big)]) == 2
        assert "invalid input" in capsys.readouterr().err


def test_analyze_set(capsys, set_file):
    r = run_json(capsys, "analyze-set", "--set", set_file, "--k", "5")["results"]
    assert r["scaled_D"] == 5
    assert r["eps_B"] == {"num": 1, "den": 20, "float": 0.05}
    assert r["multiple_scaled_D"] == 45
    assert r["components"] == 5


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_analyze_set_non_finite_alpha_is_invalid_input(capsys, set_file, alpha):
    # NaN and Infinity are not JSON, so they must not reach the report
    assert dispatch(["analyze-set", "--set", set_file, "--alpha", alpha]) == 2
    assert capsys.readouterr().out == ""


def test_matrix_example(capsys):
    r = run_json(capsys, "matrix", "--m", "2")["results"]
    assert r["lambda_max"] == pytest.approx(27, rel=1e-8)
    assert r["rank_B"] == 2
    assert r["connected"] is True


def test_matrix_reports_rank_at_the_largest_order(capsys):
    # one build of B_5 serves B, A, connectivity and the rank
    patterns._rows_of_B.cache_clear()
    report = run_json(capsys, "matrix", "--m", "5")
    assert patterns._rows_of_B.cache_info().misses == 1
    r = report["results"]
    assert report["inputs"] == {"m": 5} and r["m"] == 5
    b = np.array(brute_B(5), dtype=np.int64)
    assert r["B"] == b.tolist() and r["A"] == (b.T @ b).tolist()
    assert r["rank_B"] == math.factorial(5) and r["connected"] is True
    # A 1 = (m + 1)^3 1, so the top eigenvalue is 216; the float solver's
    # value as printed, to the goldens' relative tolerance for real fields
    assert math.isclose(r["lambda_max"], 215.9999999997624, rel_tol=1e-12)


def test_pattern_count(capsys, perm_file):
    r = run_json(capsys, "pattern-count", "--perm", perm_file, "--m", "2")["results"]
    assert r["counts"] == [6, 0]
    r = run_json(capsys, "pattern-count", "--perm", perm_file, "--m", "2",
                 "--pattern", "1 0")["results"]
    assert r["count"] == 0


# order-3 and order-4 profiles of 3 6 0 7 2 5 1 4, with centered_norm_sq
PINNED_PROFILES = {
    3: ([4, 13, 8, 11, 13, 7], 196, 3),
    4: ([0, 1, 1, 3, 4, 5, 0, 4, 1, 2, 10, 2, 3, 7, 1, 1, 5, 5, 3, 6, 2, 2, 2, 0],
        839, 6),
}


def test_pattern_count_orders_3_and_4(capsys, tmp_path):
    perm = tmp_path / "perm8.txt"
    perm.write_text("3 6 0 7 2 5 1 4\n")
    for m, (counts, num, den) in PINNED_PROFILES.items():
        argv = ("pattern-count", "--perm", str(perm), "--m", str(m))
        r = run_json(capsys, *argv)["results"]
        patterns = [list(p) for p in itertools.permutations(range(m))]
        assert r == {"n": 8, "m": m, "patterns": patterns, "counts": counts,
                     "centered_norm_sq": {"num": num, "den": den, "float": num / den}}
        code, out = run_cli(capsys, *argv, "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert lines[-len(counts) - 3:] == (
            [f"counts.{i},{c}" for i, c in enumerate(counts)]
            + [f"centered_norm_sq.num,{num}", f"centered_norm_sq.den,{den}",
               f"centered_norm_sq.float,{num / den!r}"])
        for tau, c in zip(patterns, counts):
            r = run_json(capsys, *argv, "--pattern", " ".join(map(str, tau)))["results"]
            assert r == {"n": 8, "m": m, "pattern": tau, "count": c}


def test_pattern_count_over_step_limit_is_invalid_input(tmp_path, capsys):
    # the least n whose order-3 corner pass, n bit counts of ceil(n / 64)
    # words, passes the limit; order 4 refuses it too
    n = next(n for n in itertools.count(1) if n * math.ceil(n / 64) > MAX_PROFILE_STEPS)
    assert n == 17858
    big = tmp_path / "big.txt"
    big.write_text(" ".join(map(str, range(n))) + "\n")
    for extra in (("--m", "3"), ("--m", "3", "--pattern", "0 2 1"), ("--m", "4")):
        assert dispatch(["pattern-count", "--perm", str(big), *extra]) == 2
        assert "invalid input" in capsys.readouterr().err


def test_construct(capsys):
    r = run_json(capsys, "construct", "--n", "2", "--k", "3")["results"]
    assert r["images"] == [0, 4, 2, 6, 1, 5, 3, 7]
    assert r["product_bound"] == 5


@pytest.mark.parametrize("k", [10 ** 7, 10 ** 9])
def test_construct_refuses_a_huge_factor_count_at_once(capsys, k):
    # refused from bit lengths, before 3 ** k is taken or printed
    start = time.perf_counter()
    assert dispatch(["construct", "--n", "3", "--k", str(k)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (f"invalid input: {k}-fold product of size 3 exceeds "
                                       "the product size limit 16777216\n")


def test_invdist_bigints_are_strings(capsys):
    r = run_json(capsys, "invdist", "--n", "25")["results"]
    assert all(isinstance(c, str) for c in r["counts"])
    assert sum(int(c) for c in r["counts"]) > 10 ** 25


def test_search_symmetric(capsys):
    r = run_json(capsys, "search-symmetric", "--n", "4", "--m", "2")["results"]
    assert "3 0 1 2" in r["found"]
    assert r["exhaustive"] is True


def test_search_symmetric_reports_the_exhaustive_n9_m2_search(capsys):
    # every permutation of size 9 with C(9,2)/2 = 18 inversions
    r = run_json(capsys, "search-symmetric", "--n", "9", "--m", "2")["results"]
    assert (r["nodes_explored"], r["exhaustive"], len(r["found"])) == (882_693, True, 29_228)


def test_search_symmetric_bad_size_or_budget_is_invalid_input(capsys):
    for extra in (("--n", str(MAX_SEARCH_SIZE + 1), "--m", "2", "--budget", "10"),
                  ("--n", "2000", "--m", "2", "--budget", "5000"),
                  ("--n", "9", "--m", "3", "--budget", "-5")):
        assert dispatch(["search-symmetric", *extra]) == 2
        assert "invalid input" in capsys.readouterr().err


def test_certify(capsys, set_file):
    r = run_json(capsys, "certify", "--set", set_file)["results"]
    assert r["eps_B"]["num"] == 1 and r["eps_B"]["den"] == 20
    assert all(r["implication_checks"].values())


def test_certify_above_n_20_labels_the_sampled_policy(capsys, tmp_path):
    p = tmp_path / "set.txt"
    p.write_text("21: 0 3 5 11 12\n")
    report = run_json(capsys, "certify", "--set", str(p), "--seed", "3")
    assert report["inputs"]["seed"] == 3
    assert (report["results"]["pb_policy"]
            == "intervals exactly + 1000 random subsets (seed 3)")


def test_csv_output(capsys, set_file):
    code, out = run_cli(capsys, "analyze-set", "--set", set_file, "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("scaled_D,5") for line in lines)


def test_report_form_of_library_values():
    assert _encode(Fraction(1, 3)) == {"num": 1, "den": 3, "float": 1 / 3}
    assert _encode(Fraction(1 << 60, 3))["num"] == str(1 << 60)
    assert _encode(CyclicInterval(8, 6, 3)) == {"start": 6, "length": 3}
    assert _encode(Permutation((2, 0, 1))) == "2 0 1"
    # any other record is its fields, in slot order
    found = [Permutation((0, 2, 1))]
    assert list(_encode(SymmetrySearchResult(3, 2, found, 7, True)).items()) == [
        ("n", 3), ("m", 2), ("found", found), ("nodes_explored", 7), ("exhaustive", True)]
    with pytest.raises(TypeError, match="complex has no report form"):
        _encode(1j)


@pytest.mark.parametrize("fmt", [(), ("--csv",)], ids=["json", "csv"])
def test_report_that_cannot_be_encoded_is_internal_failure(capsys, monkeypatch, fmt):
    # nothing is written before the whole report is encoded
    monkeypatch.setattr(cli, "cmd_invdist", lambda args: {"x": object()})
    assert dispatch(["invdist", "--n", "3", *fmt]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal failure: object has no report form\n"


def test_a_plain_value_error_from_a_kernel_is_internal_failure(capsys, monkeypatch):
    # only InputError means invalid input; a kernel's own ValueError is a fault
    def broken(n):
        raise ValueError("boom")

    monkeypatch.setattr(construct, "inversion_distribution", broken)
    assert dispatch(["invdist", "--n", "3"]) == 3
    assert capsys.readouterr() == ("", "internal failure: boom\n")


@pytest.mark.parametrize("flags", [("--n", "8", "--trials", "2", "--seed", "-1"),
                                   ("--n", "201", "--seed", "-3")],
                         ids=["in process", "in a worker"])
def test_random_stats_negative_seed_is_invalid_input(capsys, flags):
    # 50 trials at n = 201 reach POOL_MIN_WORK, so on a machine with two or
    # more cores the refusal comes back from a pool worker
    assert dispatch(["random-stats", *flags]) == 2
    assert capsys.readouterr() == ("", "invalid input: expected non-negative integer\n")


def test_analyze_set_huge_alpha_writes_no_warning(capsys, tmp_path):
    # |k|^1000 overflows for k >= 2, so only k = 1 and its mirror n - 1 count
    path = tmp_path / "set.txt"
    path.write_text("10: 0 1 2\n")
    code = dispatch(["analyze-set", "--set", str(path), "--alpha", "1000"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    stat = json.loads(out)["results"]["eigenvalue_statistic"]
    assert stat["k"] in (1, 9)
    assert stat["value"] == pytest.approx(abs(sum(cmath.exp(-2j * math.pi * x / 10)
                                                  for x in (0, 1, 2))), rel=1e-12)


def test_entry_point_subprocess(perm_file):
    proc = subprocess.run(
        [sys.executable, "-m", "quasiperm.cli", "analyze-perm", "--perm", perm_file],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["scaled_D"] == 4


@pytest.mark.parametrize("m", ["0", "-1"])
def test_pattern_count_order_below_one_is_invalid_input(capsys, perm_file, m):
    for extra in ((), ("--pattern", "0")):
        assert dispatch(["pattern-count", "--perm", perm_file, "--m", m, *extra]) == 2
        assert f"order --m {m} is below 1" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_random_stats_threads_below_one_is_invalid_input(capsys, threads):
    argv = ["random-stats", "--n", "8", "--trials", "2", "--threads", threads]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"threads must be at least 1, got {threads}" in captured.err


def test_random_stats_size_beyond_the_limit_is_invalid_input(capsys):
    # refused before any draw, also past the range of a C index
    assert dispatch(["random-stats", "--n", str(10 ** 30), "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "exceeds the discrepancy limit" in captured.err


# modules a CLI call loads only if it needs them: numpy for array work,
# numpy.random never, since the library draws from its own PCG64 stream,
# and dataclasses with the inspect it pulls in never
WATCHED = ("numpy", "numpy.random", "dataclasses", "inspect")


def _loads(*argv) -> set:
    """Run one CLI call in a fresh interpreter; report which WATCHED modules it loaded."""
    script = ("import contextlib, io, sys\n"
              "from quasiperm.cli import dispatch\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    try:\n"
              "        code = dispatch(sys.argv[1:])\n"
              "    except SystemExit as exc:  # --version exits from argparse\n"
              "        code = exc.code\n"
              f"print(code, *[m for m in {WATCHED!r} if m in sys.modules])")
    proc = run_fresh(script, *argv)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0", proc.stderr
    return set(loaded)


@pytest.mark.parametrize("argv", [
    ("--version",),
    ("invdist", "--n", "30"),
    ("search-symmetric", "--n", "5", "--m", "2"),
    ("pattern-count", "--m", "3"),
    ("pattern-count", "--m", "4"),
    ("pattern-count", "--m", "3", "--pattern", "0 2 1"),
    ("analyze-perm",),
    ("analyze-perm", "--sample", "20"),
    ("construct", "--n", "2", "--k", "4"),
    ("random-stats", "--n", "16", "--trials", "8", "--threads", "2"),
], ids=" ".join)
def test_subcommands_without_numeric_work_do_not_import_numpy(tmp_path, argv):
    # D and the sampled bound at n = 8 and 16 fit the list scan's allowance
    argv = list(argv)
    if argv[0] in ("pattern-count", "analyze-perm"):
        perm = tmp_path / "perm.txt"
        perm.write_text("3 6 0 7 2 5 1 4\n")
        argv[1:1] = ["--perm", str(perm)]
    assert _loads(*argv) == set()


def test_matrix_imports_numpy_but_not_numpy_random():
    loaded = _loads("matrix", "--m", "3")
    assert "numpy" in loaded and "numpy.random" not in loaded


def test_numeric_subcommand_imports_numpy(set_file):
    # the check above can see numpy when it is imported: certify's
    # spectra are numpy FFTs
    assert "numpy" in _loads("certify", "--set", set_file)


@pytest.mark.parametrize("command, flag, text, digits", [
    ("analyze-perm", "--perm", "0 {} 1\n", 5000),
    ("analyze-set", "--set", "10: 0 {}\n", 5000),
    ("certify", "--set", "{}: 0 1\n", 5000),
    ("analyze-perm", "--perm", "{}\n", 4000),
    ("analyze-set", "--set", "10: 0 {}\n", 4000),
    ("certify", "--set", "{}: 0 1\n", 4000),
], ids=["perm token", "set token", "set modulus", "perm image", "set element",
        "set modulus value"])
def test_a_long_bad_token_is_cut_in_the_message(tmp_path, capsys, command, flag, text, digits):
    # 5000 digits are past int()'s limit, so the token is not an integer and
    # is shown quoted; 4000 digits are an integer, out of range
    path = tmp_path / "input.txt"
    path.write_text(text.format("9" * digits))
    assert dispatch([command, flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 120, err[:200]
    shown = "9" * 40 if digits < 4300 else repr("9" * 40)
    assert f" {shown}... " in err


LONG = "9" * 4000  # an integer under int()'s 4300-digit limit

LONG_FLAGS = {
    "search-symmetric --n": ["search-symmetric", "--n", LONG, "--m", "2"],
    "search-symmetric --budget": ["search-symmetric", "--n", "12", "--m", "2",
                                  "--budget", "-" + LONG],
    "matrix --m": ["matrix", "--m", LONG],
    "matrix --m below 1": ["matrix", "--m", "-" + LONG],
    "pattern-count --m below 1": ["pattern-count", "--perm", "{perm}", "--m", "-" + LONG],
    "pattern-count --m": ["pattern-count", "--perm", "{perm}", "--m", LONG],
    "analyze-perm --sample": ["analyze-perm", "--perm", "{perm}", "--sample", "-" + LONG],
    "random-stats --n": ["random-stats", "--n", LONG],
    "random-stats --threads": ["random-stats", "--n", "8", "--threads", "-" + LONG],
    "random-stats --trials": ["random-stats", "--n", "8", "--trials", LONG],
    "construct --n": ["construct", "--n", LONG, "--k", "2"],
    "construct --k": ["construct", "--n", "2", "--k", LONG],
}


@pytest.mark.parametrize("argv", LONG_FLAGS.values(), ids=LONG_FLAGS)
def test_a_long_flag_value_is_cut_in_the_message(capsys, perm_file, argv):
    assert dispatch([arg.format(perm=perm_file) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 200, err[:300]
    # cut to 40 characters, a minus sign included
    assert "9" * 39 + "..." in err


def _subcommand_usage(name: str) -> str:
    """The usage text of one subcommand's own parser."""
    (subcommands,) = [a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
    return subcommands.choices[name].format_usage()


def test_a_bad_flag_value_prints_the_subcommand_usage(capsys):
    assert dispatch(["search-symmetric", "--n", "x", "--m", "2"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "usage error: argument --n: invalid int value: 'x'"
    assert "\n".join(lines[1:]) + "\n" == _subcommand_usage("search-symmetric")
    assert lines[1].startswith("usage: quasiperm search-symmetric ")


# Fuzzed calls of every subcommand: malformed and extreme input files and
# flag values.  Each call must exit 0, 1 or 2, never 3, and explain a
# failure in one line: "invalid input: ..." alone, or "usage error: ..."
# followed by the usage text of the subcommand.  Admitted calls stay small,
# each under about 50 ms, and none starts a process pool.
HUGE = 10 ** 30
flag_values = st.one_of(
    st.integers(-3, 12), st.sampled_from([0, HUGE, -HUGE]),
    st.sampled_from(["x", "1.5", "", "1e3", "nan", "7,"])).map(str)
perm_tokens = st.one_of(
    st.integers(-3, 12), st.sampled_from([HUGE, -HUGE]),
    st.sampled_from(["9" * 5000, "9" * 4000, "x", "1.5", "nan", "-", "0x1"])).map(str)
separators = st.sampled_from([" ", ",", ", ", ",,", "\n", " , "])


@st.composite
def perm_texts(draw, max_size=24):
    """A permutation file: a valid one, a valid one broken at one place, or tokens."""
    images = [str(v) for v in draw(st.permutations(range(draw(st.integers(1, max_size)))))]
    kind = draw(st.sampled_from(["valid", "valid", "broken", "tokens", "empty"]))
    if kind == "broken":
        images[draw(st.integers(0, len(images) - 1))] = draw(perm_tokens)
    elif kind == "tokens":
        images = draw(st.lists(perm_tokens, max_size=12))
    elif kind == "empty":
        images = []
    sep = draw(separators)
    return draw(st.sampled_from(["", ",", sep])) + sep.join(images) \
        + draw(st.sampled_from(["", "\n", ",", ",\n"]))


def _run_fuzzed(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [] and out.getvalue()
    elif code == 1:
        assert lines[0].startswith("usage error: ")
        assert "\n".join(lines[1:]) + "\n" == _subcommand_usage(argv[0])
    else:
        assert code == 2, (argv, lines)
        assert len(lines) == 1 and lines[0].startswith("invalid input: "), (argv, lines)
    assert code == 0 or out.getvalue() == ""


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=50, deadline=None)
@given(text=perm_texts(), mode=st.sampled_from([(), ("--exact",), ("--sample",)]),
       sample=st.one_of(st.integers(0, 50).map(str), flag_values),
       seed=st.one_of(st.none(), st.integers(-HUGE, HUGE).map(str), flag_values),
       csv=st.booleans())
def test_fuzzed_analyze_perm_exits_0_1_or_2(fuzz_dir, text, mode, sample, seed, csv):
    perm = fuzz_dir / "perm.txt"
    perm.write_text(text)
    argv = ["analyze-perm", "--perm", str(perm), *mode]
    if mode == ("--sample",):
        argv.append(sample)
    if seed is not None:
        argv += ["--seed", seed]
    _run_fuzzed(argv + ["--csv"] * csv)


@st.composite
def search_flags(draw):
    n = draw(st.one_of(st.integers(2, 14).map(str), flag_values))
    m = draw(st.one_of(st.integers(2, 6).map(str), flag_values))
    # a budget of at most 10^4, or none where an exhaustive search is
    # quick, n <= 10
    budgets = [st.integers(-3, 10 ** 4).map(str),
               st.sampled_from([str(-HUGE), "x", "1.5", ""])]
    if n.lstrip("-").isdigit() and int(n) <= 10:
        budgets.append(st.none())
    budget = draw(st.one_of(budgets))
    return ["--n", n, "--m", m] + ([] if budget is None else ["--budget", budget])


@settings(derandomize=True, max_examples=50, deadline=None)
@given(flags=search_flags(), csv=st.booleans())
def test_fuzzed_search_symmetric_exits_0_1_or_2(flags, csv):
    _run_fuzzed(["search-symmetric", *flags] + ["--csv"] * csv)


def _is_int(flag: str) -> bool:
    return flag.lstrip("-").isdigit()


set_moduli = st.sampled_from(["0", "-3", str(MAX_SET_MODULUS + 1), str(HUGE), "9" * 4000,
                              "9" * 5000, "x", "1.5", "nan", ""])


@st.composite
def set_texts(draw):
    """A set file: a valid one, one with a repeated element, a bad modulus,
    tokens after a good one, or no colon at all."""
    n = draw(st.integers(1, 40))
    elements = [str(v) for v in draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))]
    head = str(n)
    kind = draw(st.sampled_from(["valid", "valid", "repeated", "modulus", "tokens", "no colon"]))
    if kind == "repeated":
        elements.append(draw(st.sampled_from(elements or ["0"])))
    elif kind == "modulus":
        head = draw(set_moduli)
    elif kind == "tokens":
        elements = draw(st.lists(perm_tokens, max_size=12))
    sep = draw(separators)
    return head + ("" if kind == "no colon" else ":") + " " + sep.join(elements) \
        + draw(st.sampled_from(["", "\n", ",\n"]))


seeds = st.one_of(st.none(), st.integers(-HUGE, HUGE).map(str), flag_values)
alphas = st.one_of(
    st.floats().map(repr), flag_values,
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1000", "1e308", "5e-324", "0", "-0.5"]))


def _with(flag: str, value) -> list:
    return [] if value is None else [flag, value]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(text=set_texts(), k=st.one_of(st.none(), st.integers(-45, 45).map(str), flag_values),
       alpha=st.one_of(st.none(), alphas), csv=st.booleans())
def test_fuzzed_analyze_set_exits_0_1_or_2(fuzz_dir, text, k, alpha, csv):
    path = fuzz_dir / "set.txt"
    path.write_text(text)
    _run_fuzzed(["analyze-set", "--set", str(path), *_with("--k", k), *_with("--alpha", alpha)]
                + ["--csv"] * csv)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(text=set_texts(), seed=seeds, csv=st.booleans())
def test_fuzzed_certify_exits_0_1_or_2(fuzz_dir, text, seed, csv):
    path = fuzz_dir / "set.txt"
    path.write_text(text)
    _run_fuzzed(["certify", "--set", str(path), *_with("--seed", seed)] + ["--csv"] * csv)


def _one_line(images) -> str:
    return " ".join(map(str, images))


@st.composite
def pattern_count_flags(draw):
    """--m and --pattern: often a pattern of order m, else any order or tokens."""
    m = draw(st.one_of(st.integers(1, 6).map(str), st.integers(-2, 7).map(str), flag_values))
    order = int(m) if _is_int(m) and 1 <= int(m) <= 7 else draw(st.integers(1, 7))
    pattern = draw(st.one_of(
        st.none(), st.permutations(range(order)).map(_one_line),
        st.integers(1, 7).flatmap(lambda k: st.permutations(range(k))).map(_one_line),
        st.sampled_from(["", "x", "0 0", "1 2", "0,1", "-1 0", "9" * 4000])))
    return ["--m", m, *_with("--pattern", pattern)]


# an order-6 profile at n = 12 takes 847 push steps, a few ms
@settings(derandomize=True, max_examples=50, deadline=None)
@given(text=perm_texts(max_size=12), flags=pattern_count_flags(), csv=st.booleans())
def test_fuzzed_pattern_count_exits_0_1_or_2(fuzz_dir, text, flags, csv):
    perm = fuzz_dir / "perm.txt"
    perm.write_text(text)
    _run_fuzzed(["pattern-count", "--perm", str(perm), *flags] + ["--csv"] * csv)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(m=st.one_of(st.integers(-3, 4).map(str), flag_values.filter(lambda v: v != "5")),
       csv=st.booleans())
def test_fuzzed_matrix_exits_0_1_or_2(m, csv):
    # order 5 is admitted but takes seconds; the orders above it are refused
    _run_fuzzed(["matrix", "--m", m] + ["--csv"] * csv)


# An admitted product lists every image, and its D is computed up to size
# 1024, where it takes half a second.  So admitted sizes stay within the
# int16 table's 362 or lie past 1024, at most 4096.
QUICK_PRODUCTS = [(str(base), str(k)) for base in range(2, 65) for k in range(1, 13)
                  if base ** k <= 362 or 1024 < base ** k <= 4096]


@st.composite
def construct_flags(draw):
    """--n and --k: a quick admitted product, or any values but a slow product."""
    n, k = draw(st.one_of(st.sampled_from(QUICK_PRODUCTS), st.tuples(
        st.one_of(st.integers(-3, 70).map(str), flag_values),
        st.one_of(st.integers(-3, 30).map(str), flag_values))))
    if _is_int(n) and _is_int(k) and int(n) >= 2 and 1 <= int(k) <= 30:
        size = int(n) ** int(k)
        assume(size > MAX_PRODUCT_SIZE or size <= 362 or 1024 < size <= 4096)
    return ["--n", n, "--k", k]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(flags=construct_flags(), csv=st.booleans())
def test_fuzzed_construct_exits_0_1_or_2(flags, csv):
    _run_fuzzed(["construct", *flags] + ["--csv"] * csv)


@st.composite
def random_stats_flags(draw):
    """Small flags and a seed of either sign, with at most one flag set to
    any flag value and some left out.  n <= 16 and at most 4 trials stay far
    below POOL_MIN_WORK; a huge n is refused before anything is drawn."""
    flags = {"--n": draw(st.integers(1, 16)), "--trials": draw(st.integers(1, 4)),
             "--seed": draw(st.one_of(st.integers(-3, 3), st.integers(-HUGE, HUGE))),
             "--threads": draw(st.integers(1, 4))}
    bad = draw(st.sampled_from([None, *flags]))
    if bad is not None:
        flags[bad] = draw(flag_values.filter(
            lambda v: bad != "--trials" or not _is_int(v) or int(v) <= 4))
    kept = ["--n", "--seed", *draw(st.sets(st.sampled_from(["--trials", "--threads"])))]
    return [str(x) for name in kept for x in (name, flags[name])]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(flags=random_stats_flags(), csv=st.booleans())
def test_fuzzed_random_stats_exits_0_1_or_2(flags, csv):
    _run_fuzzed(["random-stats", *flags] + ["--csv"] * csv)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(n=st.one_of(st.integers(-3, 60).map(str), st.sampled_from(["201", str(HUGE)]),
                   flag_values),
       csv=st.booleans())
def test_fuzzed_invdist_exits_0_1_or_2(n, csv):
    _run_fuzzed(["invdist", "--n", n] + ["--csv"] * csv)
