"""Answer checking: canonical forms, reference fingerprints and invariants.

Every check runs outside the timed region.  An invariant check returns a
list of problems, empty when the answer is right; it holds for any seed.
The reference comparison applies only to the default seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from fractions import Fraction
from math import comb, factorial

import numpy as np

# canonical answers longer than this are stored and compared as a digest
FINGERPRINT_LIMIT = 16384


def fingerprint(canon) -> str:
    """Stable text form of a canonical answer; a sha256 digest when long."""
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    if len(text) <= FINGERPRINT_LIMIT:
        return text
    digest = hashlib.sha256(text.encode()).hexdigest()
    return json.dumps({"sha256": digest}, separators=(",", ":"))


def matches_reference(fp: str, stored) -> bool:
    return fp == json.dumps(stored, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------- canonical

def interval(iv) -> list:
    return [iv.start, iv.length]


def fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def canon_report(rep) -> dict:
    return {
        "n": rep.n,
        "scaled_D": rep.scaled_D,
        "witness": [interval(rep.witness_I), interval(rep.witness_J)],
        "scaled_d": rep.scaled_d,
        "witness_d": [interval(iv) for iv in rep.witness_d],
        "scaled_d_prime": rep.scaled_d_prime,
        "witness_d_prime": [interval(iv) for iv in rep.witness_d_prime],
    }


def canon_certificate(cert) -> dict:
    return {
        "eps_B": fraction(cert.eps_B),
        "witness_B": interval(cert.witness_B),
        "eps_PB": fraction(cert.eps_PB),
        "witness_PB": list(cert.witness_PB),
        "eps_MB": fraction(cert.eps_MB),
        "witness_MB": cert.witness_MB,
        "implication_checks": cert.implication_checks,
    }


def canon_search(res) -> dict:
    # nodes_explored is left out on purpose: symmetry breaking may change it
    return {"found": [list(p.images) for p in res.found],
            "exhaustive": res.exhaustive}


# --------------------------------------------------------------- invariants

def check_report(qp, sigma, rep) -> list:
    """Each witness re-evaluates to its scaled value; d and d' use initial
    and final preimage intervals and never exceed D."""
    problems = []
    if rep.n != sigma.n:
        problems.append(f"report for n={rep.n}, expected {sigma.n}")
        return problems
    pairs = (("D", rep.scaled_D, (rep.witness_I, rep.witness_J)),
             ("d", rep.scaled_d, rep.witness_d),
             ("d'", rep.scaled_d_prime, rep.witness_d_prime))
    for name, value, (wi, wj) in pairs:
        got = qp.discrepancy_of_pair(sigma, wi, wj)
        if got != value:
            problems.append(f"{name} witness gives {got}, reported {value}")
    n = sigma.n
    if rep.witness_d[0].length and rep.witness_d[0].start != 0:
        problems.append("d witness is not an initial interval")
    wf = rep.witness_d_prime[0]
    if wf.length and (wf.start + wf.length) != n:
        problems.append("d' witness is not a final interval")
    if max(rep.scaled_d, rep.scaled_d_prime) > rep.scaled_D:
        problems.append("restricted discrepancy exceeds D")
    return problems


def check_profile(pv, n: int, m: int) -> list:
    problems = []
    if (pv.n, pv.m) != (n, m) or len(pv.counts) != factorial(m):
        problems.append(f"profile shape (n={pv.n}, m={pv.m}, {len(pv.counts)} counts)")
    elif sum(pv.counts) != comb(n, m):
        problems.append(f"profile sums to {sum(pv.counts)}, not C({n},{m})")
    return problems


def check_transfer(qp, vm, vm1) -> list:
    """The exact transfer identity (n - m) v_m = B_m v_{m+1}."""
    n, m = vm.n, vm.m
    b = qp.build_pattern_matrices(m).B.astype(object)
    rhs = (b @ np.array(vm1.counts, dtype=object)).tolist()
    lhs = [(n - m) * c for c in vm.counts]
    return [] if lhs == rhs else [f"transfer identity fails at n={n}, m={m}"]


def check_search(qp, res, n: int, m: int, exhaustive: bool) -> list:
    problems = []
    if exhaustive and not res.exhaustive:
        problems.append("exhaustive search reported as partial")
    for p in res.found:
        if p.n != n or not qp.is_perfect_m_symmetric(p, m):
            problems.append(f"{list(p.images)} is not perfectly {m}-symmetric")
            break
    if len({p.images for p in res.found}) != len(res.found):
        problems.append("duplicate solutions")
    return problems


def check_certificate(qp, s, cert) -> list:
    problems = []
    n = s.n
    if qp.scaled_discrepancy_in(s, cert.witness_B.to_subset()) != cert.eps_B * n * n:
        problems.append("eps_B witness does not attain eps_B")
    if cert.eps_PB < cert.eps_B:
        problems.append("eps_PB below eps_B")
    if cert.witness_PB:
        t = qp.ZnSubset.from_elements(n, cert.witness_PB)
        c, _ = qp.components(t)
        if Fraction(qp.scaled_discrepancy_in(s, t), n * n * c) != cert.eps_PB:
            problems.append("eps_PB witness does not attain eps_PB")
    elif cert.eps_PB != cert.eps_B:
        problems.append("eps_PB has no witness but differs from eps_B")
    if cert.witness_MB:
        k = cert.witness_MB
        if Fraction(qp.multiple_discrepancy(s, k), n * n * qp.sym_abs(k, n)) != cert.eps_MB:
            problems.append("eps_MB witness does not attain eps_MB")
    elif cert.eps_MB != 0:
        problems.append("eps_MB has no witness but is nonzero")
    failed = [k for k, ok in cert.implication_checks.items() if not ok]
    if failed:
        problems.append(f"implication checks failed: {failed}")
    return problems


def check_product(qp, factors, product, rep) -> list:
    """The block product matches its definition and D obeys product_bound."""
    images = factors[0]
    for f in factors[1:]:
        n, m = len(images), len(f)
        images = tuple(f[x // n] + m * images[x % n] for x in range(n * m))
    problems = []
    if product.images != images:
        problems.append("block product differs from its definition")
        return problems
    problems += check_report(qp, product, rep)
    bound = qp.product_bound([len(f) for f in factors]) * product.n
    if rep.scaled_D > bound:
        problems.append(f"scaled D {rep.scaled_D} above the product bound {bound}")
    return problems


def inversions(values) -> int:
    """Descending pairs by a bottom-up merge whose cross counts come from
    numpy searchsorted; independent of quasiperm's Fenwick tree."""
    a = np.asarray(values, dtype=np.int64)
    size = 1 << max(0, (len(a) - 1).bit_length())
    big = int(a.max()) + 1 if len(a) else 1
    a = np.concatenate([a, np.full(size - len(a), big, dtype=np.int64)])
    total = 0
    width = 1
    while width < size:
        blocks = a.reshape(-1, 2, width)  # each block sorted from the level below
        rows = np.arange(blocks.shape[0], dtype=np.int64)[:, None] * (big + 1)
        left = (blocks[:, 0, :] + rows).ravel()
        right = (blocks[:, 1, :] + rows).ravel()
        not_greater = np.searchsorted(left, right, side="right")
        row_end = (np.arange(blocks.shape[0]) + 1).repeat(width) * width
        total += int((row_end - not_greater).sum())
        a = np.sort(a.reshape(-1, 2 * width), axis=1).ravel()
        width *= 2
    return total


def brute_pattern_count(values, tau) -> int:
    target = tuple(tau)
    count = 0
    for idx in itertools.combinations(range(len(values)), len(target)):
        vals = [values[i] for i in idx]
        ranks = tuple(sorted(vals).index(v) for v in vals)
        count += ranks == target
    return count


def check_window(sigma, tau, i, j, deviation) -> list:
    """Recount the windowed pattern deviation by brute force."""
    pos = [x for x in range(sigma.n) if x in i and sigma.images[x] in j]
    vals = [sigma.images[x] for x in pos]
    m = len(tau)
    expected = abs(Fraction(brute_pattern_count(vals, tau))
                   - Fraction(comb(len(vals), m), factorial(m)))
    return [] if deviation == expected else [f"deviation {deviation}, expected {expected}"]


def check_inversion_distribution(dist, n: int) -> list:
    counts = dist.counts
    problems = []
    if sum(counts) != factorial(n):
        problems.append("counts do not sum to n!")
    if tuple(counts) != tuple(reversed(counts)):
        problems.append("counts not symmetric")
    if dist.mean != Fraction(n * (n - 1), 4):
        problems.append(f"mean {dist.mean}")
    if dist.variance != Fraction(n * (n - 1) * (2 * n + 5), 72):
        problems.append(f"variance {dist.variance}")
    return problems


def check_pattern_matrices(mats, m: int) -> list:
    b = mats.B
    problems = []
    if b.shape != (factorial(m), factorial(m + 1)):
        problems.append(f"B has shape {b.shape}")
    elif not (b.sum(axis=0) == m + 1).all():
        problems.append("a column of B does not sum to m + 1")
    elif not np.array_equal(mats.A, b.T @ b):
        problems.append("A differs from B^T B")
    return problems


def check_mc(sample, n: int, trials: int) -> list:
    values = sample.scaled_values
    problems = []
    if len(values) != trials:
        problems.append(f"{len(values)} values for {trials} trials")
    if any(not 0 < v < n * n for v in values):
        problems.append("a scaled D outside (0, n^2)")
    norm = math.sqrt(n * math.log(n))
    if max(sample.ratios) != sample.max_ratio or any(
            r != (v / n) / norm for r, v in zip(sample.ratios, values)):
        problems.append("ratios disagree with the scaled values")
    return problems
