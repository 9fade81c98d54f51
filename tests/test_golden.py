"""The CLI contract: each report recorded in tests/golden/ comes out again.

A case is one CLI invocation, run in-process from tests/golden/, so the
input files it reads and the paths its `inputs` echo are the recorded
ones.  Its golden holds the arguments, the exit code, stdout parsed (the
JSON report, strictly and without `elapsed_ms`, the CSV rows as a
key -> value map, or plain text) and the first line of stderr.
`python tests/golden/record.py` rewrites every golden from the current
code.
"""

import contextlib
import csv
import io
import json
import math
import os
from pathlib import Path
from unittest import mock

import pytest

from quasiperm import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# the seeds of the benchmark's cli workload at seed 0
SAMPLE_SEED, MC_SEED, CERT_SEED = "1788089691", "860813095", "1690280744"

CASES = {
    # the benchmark's cli invocations, on copies of its seed-0 inputs
    "startup": ["--version"],
    "analyze-set": ["analyze-set", "--set", "set16.txt", "--k", "3"],
    "analyze-perm": ["analyze-perm", "--perm", "perm32.txt"],
    "analyze-perm.sample": ["analyze-perm", "--perm", "perm32.txt", "--sample", "20",
                            "--seed", SAMPLE_SEED],
    "pattern-count": ["pattern-count", "--perm", "perm24.txt", "--m", "3"],
    "pattern-count.pattern": ["pattern-count", "--perm", "perm24.txt", "--m", "3",
                              "--pattern", "2 0 1"],
    "matrix": ["matrix", "--m", "3"],
    "construct": ["construct", "--n", "2", "--k", "4"],
    "random-stats": ["random-stats", "--n", "16", "--trials", "8", "--seed", MC_SEED,
                     "--threads", "2"],
    "invdist": ["invdist", "--n", "30"],
    "search-symmetric": ["search-symmetric", "--n", "5", "--m", "2"],
    "search-symmetric.budget": ["search-symmetric", "--n", "12", "--m", "2",
                                "--budget", "20000"],
    "certify": ["certify", "--set", "set16.txt", "--seed", CERT_SEED],
    # small inputs at the edges: the identity, a set of evenly spaced points
    "small.analyze-perm": ["analyze-perm", "--perm", "perm4.txt"],
    "small.analyze-set": ["analyze-set", "--set", "set10.txt"],
    "small.matrix": ["matrix", "--m", "2"],
    "small.pattern-count": ["pattern-count", "--perm", "perm4.txt", "--m", "2"],
    "small.construct": ["construct", "--n", "2", "--k", "2"],
    "small.random-stats": ["random-stats", "--n", "12", "--trials", "4", "--seed", "9",
                           "--threads", "1"],
    "small.invdist": ["invdist", "--n", "6"],
    "small.search-symmetric": ["search-symmetric", "--n", "4", "--m", "2"],
    "small.certify": ["certify", "--set", "set10.txt", "--seed", "0"],
    # one per error class
    "error.unknown-flag": ["matrix", "--m", "3", "--bogus"],
    "error.parse": ["pattern-count", "--perm", "perm24.txt", "--m", "3",
                    "--pattern", "2 0 x"],
    "error.out-of-range": ["random-stats", "--n", "8", "--trials", "2", "--threads", "0"],
    "error.budget-required": ["search-symmetric", "--n", "11", "--m", "2"],
    "error.internal": ["matrix", "--m", "2"],
}
CASES.update({f"{name}.csv": CASES[name] + ["--csv"] for name in (
    "analyze-set", "analyze-perm", "pattern-count.pattern", "invdist", "search-symmetric",
    "certify")})

# cases run with this handler replaced by one that raises RuntimeError
BROKEN_HANDLER = {"error.internal": "cmd_matrix"}

# The real-valued fields.  They compare to a relative REAL_REL_TOL, so a
# numpy release that rounds differently still passes; every other value
# (integers, strings, booleans and the num, den and float of rationals)
# must be equal.  A path matches when its keys, list indices left out,
# end with one of these.
REAL_FIELDS = ("eps_E_half", "eps_S", "eps_T", "eigenvalue_statistic.value",
               "sum_statistic", "ratios", "median_ratio", "max_ratio",
               "lambda_max", "schmidt_floor")
REAL_REL_TOL = 1e-12


def _broken_handler(args):
    raise RuntimeError("handler failed on purpose")


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


def parse_stdout(name: str, text: str):
    """A case's stdout in the form of its golden: the JSON report, parsed
    strictly and without `elapsed_ms`, the CSV rows as a key -> value map,
    or plain text."""
    if name.endswith(".csv"):
        return dict(csv.reader(text.splitlines()))
    if text.startswith("{"):
        report = json.loads(text, parse_constant=_not_json)
        del report["elapsed_ms"]
        return report
    return text


def run_case(name: str) -> dict:
    """Run one case in-process and return it in the form of its golden."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        if name in BROKEN_HANDLER:
            stack.enter_context(mock.patch.object(cli, BROKEN_HANDLER[name],
                                                  _broken_handler))
        os.chdir(GOLDEN_DIR)
        stack.callback(os.chdir, cwd)
        try:
            code = cli.dispatch(list(CASES[name]))
        except SystemExit as exc:  # --version exits from argparse
            code = exc.code
    return {"argv": CASES[name], "code": code,
            "stdout": parse_stdout(name, out.getvalue()),
            "stderr": (err.getvalue().splitlines() or [""])[0]}


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _is_real(path: str) -> bool:
    keys = "." + ".".join(k for k in path.split(".") if not k.isdigit())
    return any(keys.endswith("." + f) for f in REAL_FIELDS)


def changed_paths(old, new, path: str = "") -> list:
    """The key paths at which `new` differs from the golden `old`.  A
    dict whose keys are the same but in another order is one change."""
    if isinstance(old, dict) and isinstance(new, dict):
        found = []
        for k in list(old) + [k for k in new if k not in old]:
            if k in old and k in new:
                found += changed_paths(old[k], new[k], _join(path, k))
            else:
                found.append(_join(path, k))
        return found or ([path] if list(old) != list(new) else [])
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [p for i, (a, b) in enumerate(zip(old, new))
                for p in changed_paths(a, b, _join(path, i))]
    if _is_real(path) and not isinstance(old, (bool, dict, list)) \
            and type(old) is type(new):
        return [] if math.isclose(float(old), float(new), rel_tol=REAL_REL_TOL) else [path]
    return [] if type(old) is type(new) and old == new else [path]


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_its_golden(name):
    assert changed_paths(load_golden(name), run_case(name)) == []


def test_every_golden_belongs_to_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


def test_goldens_cover_each_exit_code():
    codes = {load_golden(name)["code"] for name in CASES}
    assert codes == {0, 1, 2, 3}


def test_changed_paths_tolerates_only_real_fields():
    golden = {"results": {"lambda_max": 27.000000000000004, "rank_B": 2,
                          "connected": True, "ratios": [0.5, 0.25],
                          "eps_B": {"num": 1, "den": 20, "float": 0.05}}}

    def changed(**results):
        return changed_paths(golden, {"results": {**golden["results"], **results}})

    assert changed() == []
    assert changed(lambda_max=27.000000000000004 * (1 + 1e-15)) == []
    assert changed(lambda_max=27.000000000000004 * (1 + 1e-9)) == ["results.lambda_max"]
    assert changed(ratios=[0.5, 0.25 * (1 + 1e-9)]) == ["results.ratios.1"]
    assert changed(rank_B=7) == ["results.rank_B"]
    assert changed(connected=1) == ["results.connected"]
    assert changed(eps_B={"num": 1, "den": 20, "float": 0.05 * (1 + 1e-15)}) \
        == ["results.eps_B.float"]
    assert changed(ratios=[0.5]) == ["results.ratios"]
    # CSV values are strings; a real one is read as a float
    assert changed_paths({"eps_T": "0.25"}, {"eps_T": "0.25000000000000006"}) == []
    assert changed_paths({"eps_B.float": "0.25"}, {"eps_B.float": "0.25000000000000006"}) \
        == ["eps_B.float"]
    assert changed_paths({"a": 1, "b": 2}, {"b": 2, "a": 1}) == [""]
    assert changed_paths({"a": 1}, {"b": 1}) == ["a", "b"]
