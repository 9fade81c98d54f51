"""Command-line front end.

Every invocation prints one JSON report on stdout,

    {"command": ..., "inputs": ..., "results": ..., "version": ..., "elapsed_ms": ...}

or with --csv its results alone, as flat key,value CSV rows; a library
record prints as its fields, in slot order.  Diagnostics go to stderr.
Exit codes: 0 success, 1 usage error, 2 invalid input, 3 internal failure.
Invalid input is core.InputError, which the library raises wherever it
refuses a caller's input; any other exception, a ValueError included, is
an internal failure.

Each handler imports the modules it computes with, so `--version`,
invdist, search-symmetric and pattern-count at any order but 2 never
import numpy.  Nor do analyze-perm, construct and random-stats on small
inputs: D and the sampled bound scan Python lists until that work would
cost about one numpy import (permdisc._LIST_CELLS, one D up to n = 144),
and random permutations come from rng.PCG64, numpy's stream in pure
Python.  No call imports dataclasses or numpy.random.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .core import (CyclicInterval, InputError, Permutation, Record, _cut, components,
                   parse_permutation, parse_set, serialize_permutation)

BIGINT_CUTOFF = 1 << 53  # larger integers become decimal strings


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # a bad flag exits 1, not argparse's 2, with the failing parser's usage
    def error(self, message):
        raise UsageError(message, self.format_usage())


def _intj(v: int):
    return str(v) if abs(v) > BIGINT_CUTOFF else v


def _encode(obj):
    """The report form of a library value, for JSON and CSV alike.  Any
    other record is a dict of its fields, in slot order."""
    if isinstance(obj, Fraction):
        return {"num": _intj(obj.numerator), "den": _intj(obj.denominator),
                "float": float(obj)}
    if isinstance(obj, CyclicInterval):
        return {"start": obj.start, "length": obj.length}
    if isinstance(obj, Permutation):
        return serialize_permutation(obj)
    if isinstance(obj, Record):
        return {name: getattr(obj, name) for name in obj.__slots__}
    raise TypeError(f"{type(obj).__name__} has no report form")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="quasiperm",
                  description="Discrepancy and pattern statistics on Z_n.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command")

    def add(name, handler, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--csv", action="store_true",
                       help="flat CSV instead of JSON")
        p.set_defaults(handler=handler)
        return p

    p = add("analyze-set", cmd_analyze_set,
            help="interval discrepancy and balance of a set")
    p.add_argument("--set", required=True, metavar="FILE")
    p.add_argument("--k", type=int, default=None,
                   help="also report the dilation discrepancy n*D(kS)")
    p.add_argument("--alpha", type=float, default=0.5)

    p = add("analyze-perm", cmd_analyze_perm,
            help="permutation discrepancy report")
    p.add_argument("--perm", required=True, metavar="FILE")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", action="store_true", default=True)
    g.add_argument("--sample", type=int, default=None, metavar="N",
                   help="lower bound from N randomly drawn interval starts")
    p.add_argument("--seed", type=int, default=0)

    p = add("pattern-count", cmd_pattern_count,
            help="pattern occurrence counts")
    p.add_argument("--perm", required=True, metavar="FILE")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pattern", default=None,
                   help="one-line pattern, e.g. '0 2 1'; default: full profile")

    p = add("matrix", cmd_matrix,
            help="pattern inclusion matrices and spectra")
    p.add_argument("--m", type=int, required=True)

    p = add("construct", cmd_construct,
            help="digit-reversal product permutation")
    p.add_argument("--n", type=int, required=True, help="base")
    p.add_argument("--k", type=int, required=True, help="number of factors")

    p = add("random-stats", cmd_random_stats,
            help="Monte Carlo discrepancy statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)

    p = add("invdist", cmd_invdist,
            help="inversion-count distribution over S_n")
    p.add_argument("--n", type=int, required=True)

    p = add("search-symmetric", cmd_search_symmetric,
            help="search for perfectly symmetric permutations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="work budget: one unit per node plus the "
                        "patterns.push_work of each push, so nodes at m = 2; "
                        "required for n above 10")

    p = add("certify", cmd_certify,
            help="balance certificate with implication checks")
    p.add_argument("--set", required=True, metavar="FILE")
    p.add_argument("--seed", type=int, default=0)

    return top


def cmd_analyze_set(args) -> dict:
    from . import balance

    s = parse_set(_read(args.set))
    value, witness = balance.max_interval_discrepancy(s)
    count, parts = components(s)
    stat, k_at = balance.eigenvalue_bound_profile(s, args.alpha)
    out = {
        "n": s.n,
        "size": len(s.members),
        "scaled_D": value,
        "witness": witness,
        "eps_B": Fraction(value, s.n * s.n),
        "components": count,
        "component_parts": parts,
        "eigenvalue_statistic": {"alpha": args.alpha, "value": stat, "k": k_at},
        "sum_statistic": balance.sum_statistic(s),
    }
    if args.k is not None:
        out["multiple_scaled_D"] = balance.multiple_discrepancy(s, args.k)
    return out


def cmd_analyze_perm(args) -> dict:
    from . import permdisc

    sigma = parse_permutation(_read(args.perm))
    if args.sample is not None:
        if args.sample < 0:
            raise InputError(f"--sample {_cut(str(args.sample))} is below 0")
        value = permdisc.sampled_discrepancy_lower_bound(
            sigma, args.sample, args.seed)
        return {
            "n": sigma.n,
            "mode": "sample",
            "samples": args.sample,
            "scaled_D_lower_bound": value,
        }
    return {"n": sigma.n, "mode": "exact"} | _encode(permdisc.perm_discrepancy(sigma))


def cmd_pattern_count(args) -> dict:
    from . import patterns

    if args.m < 1:
        raise InputError(f"pattern order --m {_cut(str(args.m))} is below 1")
    sigma = parse_permutation(_read(args.perm))
    if args.pattern is not None:
        tau = parse_permutation(args.pattern)
        if tau.n != args.m:
            raise InputError(f"pattern has order {tau.n}, expected {args.m}")
        return {
            "n": sigma.n,
            "m": args.m,
            "pattern": tau.images,
            "count": _intj(patterns.count_pattern(sigma, tau)),
        }
    prof = patterns.profile(sigma, args.m)
    return {
        "n": sigma.n,
        "m": args.m,
        "patterns": [t.images for t in patterns.patterns_of_order(args.m)],
        "counts": [_intj(c) for c in prof.counts],
        "centered_norm_sq": prof.centered_norm_sq(),
    }


def cmd_matrix(args) -> dict:
    from . import patterns

    mats = patterns.build_pattern_matrices(args.m)
    return {
        "m": args.m,
        "B": mats.B.tolist(),
        "A": mats.A.tolist(),
        "lambda_max": patterns.top_eigenvalue(mats.A),
        "connected": patterns.occurrence_graph_connected(args.m),
        "rank_B": patterns.rank_of_B(args.m),
    }


def cmd_construct(args) -> dict:
    from . import construct, permdisc

    sigma = construct.digit_reversal(args.n, args.k)
    out = {
        "base": args.n,
        "factors": args.k,
        "size": sigma.n,
        "images": sigma.images,
        "product_bound": construct.product_bound([args.n] * args.k),
        "schmidt_floor": construct.schmidt_floor(sigma.n),
    }
    if sigma.n <= 1024:
        out["scaled_D"] = permdisc.perm_discrepancy(sigma).scaled_D
    return out


def cmd_random_stats(args) -> dict:
    from . import construct

    sample = construct.mc_discrepancy_stats(
        args.n, args.trials, args.seed, threads=args.threads)
    return {
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "scaled_D": sample.scaled_values,
        "ratios": sample.ratios,
        "max_ratio": sample.max_ratio,
        "median_ratio": sample.median_ratio,
    }


def cmd_invdist(args) -> dict:
    from . import construct

    dist = construct.inversion_distribution(args.n)
    return {
        "n": args.n,
        "counts": [str(c) for c in dist.counts],
        "mean": dist.mean,
        "variance": dist.variance,
    }


def cmd_search_symmetric(args):
    from . import symmetry

    return symmetry.search_perfect(args.n, args.m, args.budget)


def cmd_certify(args) -> dict:
    from . import balance

    s = parse_set(_read(args.set))
    cert = balance.balance_certificate(s)
    return {
        "n": s.n,
        "eps_B": cert.eps_B,
        "eps_PB": cert.eps_PB,
        "eps_MB": cert.eps_MB,
        "eps_E_half": cert.eps_E_half,
        "eps_S": cert.eps_S,
        "eps_T": cert.eps_T,
        # a label only: eps_PB is exact for every n
        "pb_policy": ("exhaustive c(T)<=2" if s.n <= 20 else
                      f"intervals exactly + 1000 random subsets (seed {args.seed})"),
        "implication_checks": cert.implication_checks,
    }


def _flatten(obj, prefix=""):
    # json writes None, str, int and float as they are, anything else by _encode
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    elif obj is None or isinstance(obj, (str, int, float)):
        yield prefix.rstrip("."), obj
    else:
        yield from _flatten(_encode(obj), prefix)


def dispatch(argv) -> int:
    parser = build_parser()
    start = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        results = args.handler(args)
        # encoded in full before anything is written, so a report that
        # cannot be encoded leaves stdout empty
        if args.csv:
            rows = list(_flatten(results))
        else:
            report = {
                "command": args.command,
                "inputs": {k: v for k, v in vars(args).items()
                           if k not in ("command", "csv", "handler")},
                "results": results,
                "version": __version__,
                "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
            }
            text = json.dumps(report, indent=2, sort_keys=True, default=_encode)
    except UsageError as exc:
        message, usage = exc.args
        print(f"usage error: {message}", file=sys.stderr)
        sys.stderr.write(usage)
        return 1
    except InputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return 3

    if args.csv:
        import csv

        out = csv.writer(sys.stdout)
        out.writerow(["key", "value"])
        out.writerows(rows)
    else:
        sys.stdout.write(text + "\n")
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
