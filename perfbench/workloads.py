"""Seeded inputs and the fixed question list of each workload.

`make_inputs` draws every input from numpy's PCG64 in this file, so the
program receives only finished inputs and the same seed always gives the
same inputs.  `build` turns them into questions: a timed `ask` that calls
into quasiperm through the tracer, a canonical form for the reference
comparison and an invariant check that holds for any seed.

Workloads (see README.md for why each was chosen):
- large: a few large exact questions, each on a layer's big-n path;
- small: many small questions on the same layers, where per-call
  overhead dominates;
- cli:   every subcommand as a subprocess on small inputs, where interpreter
  start-up, argparse and serialization dominate.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from math import comb, factorial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

DEFAULT_SEED = 0
WORKLOADS = ("large", "small", "cli")
# small's median latency falls among its tiny profile pairs.  About 60 of
# its other 90 questions are faster than a pair at n = 12, so with 180 pairs
# the median is a pair's latency.  The pairs' n cycles through 9..15 (about
# 0.5 to 2.5 ms) so that their latencies form a continuum: on the reference
# machine a tiny call runs about 1.7x slower in bursts of a second or so,
# and a median over samples of one size jumps between the fast and the slow
# latency as the share of slow samples crosses one half.  Every seed has the
# same sizes, so the seed moves only the permutations.
TINY_PAIRS = 180
TINY_SIZES = tuple(range(9, 16))


@dataclass(frozen=True)
class Question:
    qid: str
    ask: Callable        # ask(tracer) -> answer; the only timed code
    canon: Callable      # answer -> JSON-able form compared with the reference
    check: Callable      # (answer, first_answers) -> list of problems
    exact: bool = True   # False when the answer depends on search order


# ------------------------------------------------------------------- inputs

def make_inputs(workload: str, seed: int) -> dict:
    """Plain seeded data: tuples, lists and texts, no quasiperm objects."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def perm(n):
        return tuple(rng.permutation(n).tolist())

    def half_subset(n):
        return tuple(sorted(rng.choice(n, n // 2, replace=False).tolist()))

    def sub_seed():
        return int(rng.integers(2 ** 31))

    if workload == "large":
        big = perm(100_000)
        return {
            "D": {192: perm(192), 384: perm(384)},
            "sampled": perm(1024),
            "sample_seed": sub_seed(),
            "profile96": perm(96),
            "profile40": perm(40),
            "big": big,
            "big_text": " ".join(map(str, big)),
            "cert512": half_subset(512),
        }
    if workload == "small":
        factors = {}
        for k in (1, 2, 3):
            for sizes in itertools.product((2, 3, 4), repeat=k):
                factors[sizes] = [perm(s) for s in sizes]
        windows = []
        for _ in range(40):
            i = (int(rng.integers(32)), int(rng.integers(8, 33)))
            j = (int(rng.integers(32)), int(rng.integers(8, 33)))
            windows.append((i, j, perm(3)))
        return {
            "factors": factors,
            "window_host": perm(32),
            "windows": windows,
            "tiny": [perm(TINY_SIZES[k % len(TINY_SIZES)]) for k in range(TINY_PAIRS)],
            "certs": [half_subset(n) for n in (12, 16, 20)],
            "mc_seed": sub_seed(),
        }
    if workload == "cli":
        return {
            "set16": half_subset(16),
            "perm32": perm(32),
            "perm24": perm(24),
            "pattern": perm(3),
            "sample_seed": sub_seed(),
            "mc_seed": sub_seed(),
            "cert_seed": sub_seed(),
        }
    raise ValueError(f"unknown workload {workload!r}")


def digit_reversal_images(bits: int) -> tuple:
    return tuple(int(format(x, f"0{bits}b")[::-1], 2) for x in range(1 << bits))


def shift_images(half: int) -> tuple:
    return tuple((x + half) % (2 * half) for x in range(2 * half))


# ---------------------------------------------------------------- questions

def build(workload: str, seed: int, qp, workdir: Path):
    """(questions, cli_runner); cli_runner is None outside the cli workload."""
    inputs = make_inputs(workload, seed)
    if workload == "large":
        return _large(inputs, qp), None
    if workload == "small":
        return _small(inputs, qp), None
    runner = CliRunner(workdir, qp)
    return _cli(inputs, qp, runner), runner


def _d_question(qp, qid, sigma):
    return Question(
        qid,
        lambda t: t.call("permdisc.perm_discrepancy", qp.perm_discrepancy, sigma),
        checks.canon_report,
        lambda rep, first: checks.check_report(qp, sigma, rep))


def _profile_pair_question(qp, qid, sigma):
    """Profiles at m = 3 and 4 on one permutation, cross-checked exactly by
    the transfer identity."""
    def ask(t):
        return (t.call("patterns.profile", qp.profile, sigma, 3),
                t.call("patterns.profile", qp.profile, sigma, 4))

    def check(answer, first):
        v3, v4 = answer
        return (checks.check_profile(v3, sigma.n, 3)
                + checks.check_profile(v4, sigma.n, 4)
                + checks.check_transfer(qp, v3, v4))

    return Question(qid, ask, lambda a: [list(v.counts) for v in a], check)


def _search_question(qp, n, m, budget=None):
    qid = f"search.{n}_{m}" + (f".budget{budget}" if budget else "")
    return Question(
        qid,
        lambda t: t.call("symmetry.search_perfect", qp.search_perfect, n, m, budget),
        checks.canon_search,
        lambda res, first: checks.check_search(qp, res, n, m, budget is None),
        exact=budget is None)


def _certificate_question(qp, qid, s):
    return Question(
        qid,
        lambda t: t.call("balance.balance_certificate", qp.balance_certificate, s),
        checks.canon_certificate,
        lambda cert, first: checks.check_certificate(qp, s, cert))


def _large(inp, qp):
    P = qp.Permutation
    qs = [_d_question(qp, f"D.random{n}", P(images)) for n, images in inp["D"].items()]
    qs.append(_d_question(qp, "D.digit_reversal_2_8", P(digit_reversal_images(8))))

    sampled, sample_seed = P(inp["sampled"]), inp["sample_seed"]
    qs.append(Question(
        "sampled.random1024",
        lambda t: t.call("permdisc.sampled_discrepancy_lower_bound",
                         qp.sampled_discrepancy_lower_bound, sampled, 8, sample_seed),
        int,
        lambda v, first: [] if 0 < v < sampled.n ** 2 else [f"bound {v} out of range"]))

    p96 = P(inp["profile96"])
    qs.append(Question(
        "profile.m3.random96",
        lambda t: t.call("patterns.profile", qp.profile, p96, 3),
        lambda v: list(v.counts),
        lambda v, first: checks.check_profile(v, 96, 3)))
    qs.append(_profile_pair_question(qp, "profile.m3m4.random40", P(inp["profile40"])))

    big_images = inp["big"]
    big = P(big_images)
    descent = P((1, 0))
    qs.append(Question(
        "count.10.random100000",
        lambda t: t.call("patterns.count_pattern", qp.count_pattern, big, descent),
        int,
        lambda v, first: ([] if v == checks.inversions(big_images)
                          else [f"{v} inversions reported"])))
    shift, pattern021 = P(shift_images(40)), P((0, 2, 1))
    qs.append(Question(
        "count.021.shift80",
        lambda t: t.call("patterns.count_pattern", qp.count_pattern, shift, pattern021),
        int,
        lambda v, first: [] if v == 0 else [f"shift permutation contains 021 {v} times"]))

    cert_set = qp.ZnSubset(512, frozenset(inp["cert512"]))
    qs.append(_certificate_question(qp, "certificate.random512", cert_set))
    qs.append(_search_question(qp, 64, 4, budget=30))

    text = inp["big_text"]
    qs.append(Question(
        "parse.random100000",
        lambda t: t.call("core.parse_permutation", qp.parse_permutation, text),
        lambda p: list(p.images),
        lambda p, first: [] if p.images == big_images else ["parsed images differ"]))
    return qs


def _small(inp, qp):
    P = qp.Permutation
    qs = [_search_question(qp, 9, 3), _search_question(qp, 8, 2),
          _search_question(qp, 13, 2, budget=200_000),
          _search_question(qp, 20, 3, budget=20_000)]

    mc_seed = inp["mc_seed"]
    qs.append(Question(
        "mc.48x64",
        lambda t: t.call("construct.mc_discrepancy_stats", qp.mc_discrepancy_stats,
                         48, 64, mc_seed, threads=1),
        lambda s: list(s.scaled_values),
        lambda s, first: checks.check_mc(s, 48, 64)))

    for sizes, images in inp["factors"].items():
        qs.append(_product_question(qp, sizes, [P(f) for f in images]))

    host = P(inp["window_host"])
    for k, ((i0, il), (j0, jl), tau) in enumerate(inp["windows"]):
        i = qp.CyclicInterval(32, i0, il)
        j = qp.CyclicInterval(32, j0, jl)
        qs.append(_window_question(qp, f"window.{k}", host, P(tau), i, j))

    for k, images in enumerate(inp["tiny"]):
        qs.append(_profile_pair_question(qp, f"profile.m3m4.tiny{k}", P(images)))

    for members in inp["certs"]:
        n = 2 * len(members)
        qs.append(_certificate_question(qp, f"certificate.random{n}",
                                        qp.ZnSubset(n, frozenset(members))))

    qs.append(Question(
        "invdist.120",
        lambda t: t.call("construct.inversion_distribution", qp.inversion_distribution, 120),
        lambda d: [str(c) for c in d.counts],
        lambda d, first: checks.check_inversion_distribution(d, 120)))
    qs.append(Question(
        "matrices.4",
        lambda t: t.call("patterns.build_pattern_matrices", qp.build_pattern_matrices, 4),
        lambda mats: mats.B.tolist(),
        lambda mats, first: checks.check_pattern_matrices(mats, 4)))
    qs.append(Question(
        "rank_B.4",
        lambda t: t.call("patterns.rank_of_B", qp.rank_of_B, 4),
        int,
        lambda r, first: [] if 1 <= r <= 24 else [f"rank {r} out of range"]))
    return qs


def _product_question(qp, sizes, factors):
    def ask(t):
        product = t.call("construct.tensor_product", qp.tensor_product, factors)
        return product, t.call("permdisc.perm_discrepancy", qp.perm_discrepancy, product)

    return Question(
        "product." + "x".join(map(str, sizes)),
        ask,
        lambda a: {"images": list(a[0].images), "report": checks.canon_report(a[1])},
        lambda a, first: checks.check_product(qp, [f.images for f in factors], *a))


def _window_question(qp, qid, host, tau, i, j):
    return Question(
        qid,
        lambda t: t.call("permdisc.windowed_pattern_deviation",
                         qp.windowed_pattern_deviation, host, tau, i, j),
        checks.fraction,
        lambda dev, first: checks.check_window(host, tau.images, i, j, dev))


# ---------------------------------------------------------------------- cli

_ELAPSED = re.compile(rb'^  "elapsed_ms": [^\n]*\n', re.MULTILINE)


@dataclass(frozen=True)
class CliAnswer:
    code: int
    stdout: bytes
    stderr: bytes


class CliRunner:
    """Runs `python -m quasiperm.cli` in the work directory, one at a time,
    and keeps the largest resident set any invocation reached."""

    def __init__(self, workdir: Path, qp):
        self.workdir = workdir
        src = Path(qp.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("QUASIPERM_THREADS", None)
        self.peak_rss_kb = 0

    def __call__(self, argv) -> CliAnswer:
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "quasiperm.cli", *argv],
                                    cwd=self.workdir, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            # reap with wait4 to get this child's own peak resident set
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return CliAnswer(proc.returncode, out, err_path.read_bytes())


def cli_canon(answer: CliAnswer) -> dict:
    """Exit code and stdout with the elapsed_ms line stripped."""
    return {"code": answer.code,
            "stdout": _ELAPSED.sub(b"", answer.stdout).decode()}


def write_cli_inputs(inp: dict, workdir: Path) -> None:
    members = inp["set16"]
    (workdir / "set16.txt").write_text("16: " + " ".join(map(str, members)) + "\n")
    for name in ("perm32", "perm24"):
        (workdir / f"{name}.txt").write_text(" ".join(map(str, inp[name])) + "\n")


def _cli(inp, qp, runner):
    write_cli_inputs(inp, runner.workdir)
    pattern = " ".join(map(str, inp["pattern"]))
    sigma32 = qp.Permutation(inp["perm32"])
    set16 = qp.ZnSubset(16, frozenset(inp["set16"]))
    invocations = [
        ("analyze-set", ["analyze-set", "--set", "set16.txt", "--k", "3"],
         lambda r: _check_set(qp, set16, r)),
        ("analyze-perm", ["analyze-perm", "--perm", "perm32.txt"],
         lambda r: _check_perm(qp, sigma32, r)),
        ("analyze-perm.sample", ["analyze-perm", "--perm", "perm32.txt", "--sample", "20",
                                 "--seed", str(inp["sample_seed"])],
         lambda r: [] if 0 < r["scaled_D_lower_bound"] < 32 * 32 else ["bound out of range"]),
        ("pattern-count", ["pattern-count", "--perm", "perm24.txt", "--m", "3"],
         lambda r: [] if sum(r["counts"]) == comb(24, 3) else ["counts do not sum to C(24,3)"]),
        ("pattern-count.pattern", ["pattern-count", "--perm", "perm24.txt", "--m", "3",
                                   "--pattern", pattern],
         lambda r: [] if 0 <= r["count"] <= comb(24, 3) else ["count out of range"]),
        ("matrix", ["matrix", "--m", "3"],
         lambda r: [] if all(sum(col) == 4 for col in zip(*r["B"])) else ["bad B_3"]),
        ("construct", ["construct", "--n", "2", "--k", "4"],
         lambda r: _check_construct(r)),
        ("random-stats", ["random-stats", "--n", "16", "--trials", "8",
                          "--seed", str(inp["mc_seed"]), "--threads", "2"],
         lambda r: [] if len(r["scaled_D"]) == 8 else ["wrong number of trials"]),
        ("invdist", ["invdist", "--n", "30"],
         lambda r: [] if sum(map(int, r["counts"])) == factorial(30)
         else ["counts do not sum to 30!"]),
        ("search-symmetric", ["search-symmetric", "--n", "5", "--m", "2"],
         lambda r: _check_found(qp, r, 2)),
        ("search-symmetric.budget", ["search-symmetric", "--n", "12", "--m", "2",
                                     "--budget", "20000"],
         lambda r: _check_found(qp, r, 2)),
        ("certify", ["certify", "--set", "set16.txt", "--seed", str(inp["cert_seed"])],
         lambda r: [] if all(r["implication_checks"].values()) else ["implication failed"]),
    ]
    with_csv = {"analyze-set", "analyze-perm", "pattern-count.pattern", "invdist", "certify"}
    version = qp.__version__
    qs = [_cli_question(runner, "startup", "startup", ["--version"], True,
                        lambda a, first: _check_version(a, version))]
    for key, argv, check in invocations:
        sub = argv[0]
        exact = key != "search-symmetric.budget"
        qs.append(_cli_question(runner, key, sub, argv, exact, _json_check(sub, check)))
        if key in with_csv:
            qs.append(_cli_question(runner, key + ".csv", sub, argv + ["--csv"], exact,
                                    _csv_check(f"cli.{key}")))
    return qs


def _cli_question(runner, key, sub, argv, exact, check):
    return Question(f"cli.{key}",
                    lambda t: t.call(f"cli.{sub}", runner, argv),
                    cli_canon, check, exact)


def _check_version(answer, version):
    if answer.code != 0 or answer.stdout.decode().strip() != version:
        return [f"--version printed {answer.stdout!r} with exit {answer.code}"]
    return []


def _json_check(sub, check_results):
    def check(answer, first):
        if answer.code != 0:
            return [f"exit {answer.code}: {answer.stderr.decode()[-200:]}"]
        report = json.loads(answer.stdout)
        if set(report) != {"command", "inputs", "results", "version", "elapsed_ms"}:
            return [f"report keys {sorted(report)}"]
        if report["command"] != sub:
            return [f"command {report['command']!r}"]
        return check_results(report["results"])
    return check


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), "" if obj is None else str(obj)


def _csv_check(twin_qid):
    """CSV rows must equal the flattened results of the JSON twin."""
    def check(answer, first):
        if answer.code != 0:
            return [f"exit {answer.code}: {answer.stderr.decode()[-200:]}"]
        rows = list(csv.reader(io.StringIO(answer.stdout.decode())))
        twin = first.get(twin_qid)
        if rows[:1] != [["key", "value"]] or twin is None:
            return ["no CSV header or no JSON twin"]
        # the JSON report sorts its keys, the CSV keeps insertion order
        expected = dict(_flatten(json.loads(twin.stdout)["results"]))
        got = dict(rows[1:])
        if len(got) != len(rows) - 1 or got != expected:
            return ["CSV rows differ from the JSON results"]
        return []
    return check


def _check_set(qp, s, r):
    wit = qp.CyclicInterval(16, r["witness"]["start"], r["witness"]["length"])
    if qp.scaled_discrepancy_in(s, wit.to_subset()) != r["scaled_D"]:
        return ["witness does not attain scaled_D"]
    return []


def _check_perm(qp, sigma, r):
    def iv(d):
        return qp.CyclicInterval(sigma.n, d["start"], d["length"])
    got = qp.discrepancy_of_pair(sigma, iv(r["witness_I"]), iv(r["witness_J"]))
    return [] if got == r["scaled_D"] else [f"witness gives {got}, reported {r['scaled_D']}"]


def _check_construct(r):
    if r["images"] != list(digit_reversal_images(4)):
        return ["images are not the 4-bit digit reversal"]
    if r["scaled_D"] > r["product_bound"] * r["size"]:
        return ["scaled_D above the product bound"]
    return []


def _check_found(qp, r, m):
    for text in r["found"]:
        if not qp.is_perfect_m_symmetric(qp.parse_permutation(text), m):
            return [f"{text} is not perfectly {m}-symmetric"]
    return []
