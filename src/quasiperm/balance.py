"""Balance statistics for subsets of Z_n.

Interval discrepancies are kept as exact n-scaled integers (n*D instead of
D) so every inequality can be checked without tolerances.  Floating point
appears only in the Fourier-derived statistics.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .core import (
    CyclicInterval,
    ModulusMismatchError,
    ZnMultiset,
    ZnSubset,
    components,
    sym_abs,
)

SetLike = Union[ZnSubset, ZnMultiset]


def _weights(s: SetLike) -> np.ndarray:
    if isinstance(s, ZnMultiset):
        return np.asarray(s.multiplicity, dtype=np.int64)
    return np.asarray(s.indicator(), dtype=np.int64)


def _mass(s: SetLike) -> int:
    return s.mass if isinstance(s, ZnMultiset) else s.size


def scaled_discrepancy_in(s: SetLike, t: ZnSubset) -> int:
    """n * D_T(S) = |n*|S & T| - |S|*|T|| as an exact integer.

    Multisets count the intersection with multiplicity.
    """
    if s.n != t.n:
        raise ModulusMismatchError(f"moduli differ: {s.n} vs {t.n}")
    n = s.n
    if isinstance(s, ZnMultiset):
        inter = sum(s.multiplicity[x] for x in t.members)
    else:
        inter = len(s.members & t.members)
    return abs(n * inter - _mass(s) * t.size)


def profile_discrepancy(g: np.ndarray) -> tuple:
    """(n * D, witness interval) from a prefix profile g of length n.

    g(j) = n*P(j) - |S|*(j+1) with P the prefix count of S, so g(n-1) = 0.
    Every interval discrepancy is a difference g(b) - g(a), wrapping
    intervals included via the complement identity D_J = D_{complement(J)};
    the first maximum and the first minimum give the witness.
    """
    n = len(g)
    b = int(np.argmax(g))
    a = int(np.argmin(g))
    value = int(g[b] - g[a])
    if value == 0:
        return 0, CyclicInterval.empty(n)
    return value, CyclicInterval(n, (a + 1) % n, (b - a) % n)


def max_interval_discrepancy(s: SetLike) -> tuple:
    """(n * D(S), witness interval) with D(S) the max of D_J over all J."""
    n = s.n
    w = _weights(s)
    mass = int(w.sum())
    return profile_discrepancy(
        n * np.cumsum(w) - mass * np.arange(1, n + 1, dtype=np.int64))


def multiple_discrepancy(s: ZnSubset, k: int) -> int:
    """n * D(kS) where kS is the multiset {k*x : x in S}."""
    n = s.n
    if k % n == 0:
        raise ValueError("k must be nonzero mod n")
    members = np.fromiter(s.members, dtype=np.int64, count=s.size)
    w = np.bincount(k % n * members % n, minlength=n)
    g = n * np.cumsum(w) - s.size * np.arange(1, n + 1, dtype=np.int64)
    return int(g.max() - g.min())


@dataclass(frozen=True)
class FourierSpectrum:
    """All n Fourier coefficients S~(k) = sum_x f(x) e^(-2 pi i k x / n)."""

    n: int
    coeffs: np.ndarray

    def magnitude(self, k: int) -> float:
        return abs(self.coeffs[k % self.n])

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.coeffs)


def fourier_spectrum(s: SetLike) -> FourierSpectrum:
    """Spectrum via the FFT (the transform kernel matches the definition)."""
    w = _weights(s).astype(np.float64)
    return FourierSpectrum(s.n, np.fft.fft(w))


def fourier_spectrum_direct(s: SetLike) -> FourierSpectrum:
    """O(n^2) summation straight from the definition; oracle for the FFT path."""
    n = s.n
    w = _weights(s)
    coeffs = np.empty(n, dtype=complex)
    for k in range(n):
        acc = 0j
        for x in range(n):
            if w[x]:
                acc += w[x] * cmath.exp(-2j * cmath.pi * k * x / n)
        coeffs[k] = acc
    return FourierSpectrum(n, coeffs)


def sym_ks(n: int) -> np.ndarray:
    """|k| for k = 0..n-1 under the (-n/2, n/2] representative convention."""
    k = np.arange(n)
    return np.where(2 * k <= n, k, n - k)


def eigenvalue_bound_profile(s: SetLike, alpha: float) -> tuple:
    """(max over k != 0 of |S~(k)| / |k|^alpha, witness k)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n = s.n
    if n == 1:
        return 0.0, 0
    mags = fourier_spectrum(s).magnitudes()
    ks = sym_ks(n).astype(np.float64)
    ratios = mags[1:] / ks[1:] ** alpha
    i = int(np.argmax(ratios))
    return float(ratios[i]), i + 1


def sum_statistic(s: SetLike) -> float:
    """Sum over k != 0 of (|S~(k)| / |k|)^2."""
    n = s.n
    if n == 1:
        return 0.0
    mags = fourier_spectrum(s).magnitudes()
    ks = sym_ks(n).astype(np.float64)
    return float(np.sum((mags[1:] / ks[1:]) ** 2))


def interval_spectrum_magnitudes(n: int, length: int) -> np.ndarray:
    """|J~(k)| for an interval of the given length; independent of start."""
    j = CyclicInterval(n, 0, length)
    w = np.zeros(n)
    for x in j.elements():
        w[x] = 1.0
    return np.abs(np.fft.fft(w))


def translation_statistic_direct(s: ZnSubset, j: CyclicInterval) -> float:
    """Sum over k of (|S & (J+k)| - |S||J|/n)^2 by direct counting."""
    if s.n != j.n:
        raise ModulusMismatchError(f"moduli differ: {s.n} vs {j.n}")
    n = s.n
    ind = np.asarray(s.indicator(), dtype=np.int64)
    L = j.length
    if L == 0:
        return 0.0
    # window sum of the indicator over each translate of J
    ext = np.concatenate([ind, ind])
    csum = np.concatenate([[0], np.cumsum(ext)])
    starts = (j.start + np.arange(n)) % n
    counts = csum[starts + L] - csum[starts]
    mean = s.size * L / n
    return float(np.sum((counts - mean) ** 2))


def translation_statistic_spectral(s: ZnSubset, j: CyclicInterval) -> float:
    """The same sum via the spectral identity sum_{k!=0} |S~(k) J~(-k)|^2 / n."""
    if s.n != j.n:
        raise ModulusMismatchError(f"moduli differ: {s.n} vs {j.n}")
    n = s.n
    if n == 1:
        return 0.0
    smags = fourier_spectrum(s).magnitudes()
    jmags = interval_spectrum_magnitudes(n, j.length)
    return float(np.sum((smags[1:] * jmags[1:]) ** 2) / n)


def translation_statistic(s: ZnSubset, j: CyclicInterval) -> float:
    """Translation sum, computed two independent ways which must agree."""
    direct = translation_statistic_direct(s, j)
    spectral = translation_statistic_spectral(s, j)
    scale = max(abs(direct), abs(spectral), 1.0)
    if abs(direct - spectral) > 1e-6 * scale:
        raise ArithmeticError(
            f"translation paths disagree: direct={direct} spectral={spectral}")
    return direct


@dataclass
class BalanceCertificate:
    """Per-instance epsilon values for the seven balance properties.

    Each eps field is the smallest epsilon at which the property's defining
    inequality holds for this set, together with the witness attaining it.
    Integral statistics are exact rationals; Fourier-derived ones floats.
    """

    n: int
    size: int
    eps_B: Fraction
    witness_B: CyclicInterval
    eps_PB: Fraction
    witness_PB: tuple
    pb_policy: str
    eps_MB: Fraction
    witness_MB: int
    eps_E_half: float
    witness_E_half: int
    eps_S: float
    eps_T: float
    witness_T_length: int
    implication_checks: dict = field(default_factory=dict)


def _pb_candidates(n: int, samples: int, seed: int):
    """Subsets T over which the piecewise-balance quantifier is sampled."""
    if n <= 20:
        # exhaustive over all T with at most two components
        for start in range(n):
            for length in range(1, n + 1):
                yield CyclicInterval(n, start, length).to_subset()
        for s1 in range(n):
            for l1 in range(1, n - 1):
                for s2off in range(1, n - l1):
                    s2 = (s1 + l1 + s2off) % n
                    for l2 in range(1, n - l1 - s2off + 1):
                        a = CyclicInterval(n, s1, l1)
                        b = CyclicInterval(n, s2, l2)
                        if (a.start + a.length) % n == b.start:
                            continue  # adjacent pieces merge into one component
                        if (b.start + b.length) % n == a.start:
                            continue
                        yield ZnSubset(n, frozenset(a.elements()) | frozenset(b.elements()))
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            members = frozenset(x for x in range(n) if rng.random() < 0.5)
            if members and len(members) < n:
                yield ZnSubset(n, members)


def balance_certificate(s: ZnSubset, *, pb_samples: int = 1000,
                        seed: int = 0) -> BalanceCertificate:
    """Evaluate every balance statistic and the proof-level implications."""
    n = s.n
    scaled_d, witness_b = max_interval_discrepancy(s)
    eps_b = Fraction(scaled_d, n * n)

    # [PB]: D_T(S)/(n c(T)) over the sampled family; intervals are covered
    # exactly by eps_B (c = 1), so the sample only needs to add c >= 2 sets.
    eps_pb = eps_b
    witness_pb = tuple(sorted(witness_b.elements())) if witness_b.length else ()
    policy = ("exhaustive c(T)<=2" if n <= 20
              else f"intervals exactly + {pb_samples} random subsets (seed {seed})")
    for t in _pb_candidates(n, pb_samples, seed):
        c, _ = components(t)
        if c == 0:
            continue
        val = Fraction(scaled_discrepancy_in(s, t), n * n * c)
        if val > eps_pb:
            eps_pb = val
            witness_pb = tuple(sorted(t.members))

    # [MB]: D(kS)/(n|k|) over all nonzero k
    eps_mb = Fraction(0)
    witness_mb = 0
    for k in range(1, n):
        val = Fraction(multiple_discrepancy(s, k), n * n * sym_abs(k, n))
        if val > eps_mb:
            eps_mb = val
            witness_mb = k

    stat_e, witness_e = eigenvalue_bound_profile(s, 0.5) if n > 1 else (0.0, 0)
    eps_e_half = stat_e / n

    eps_s = sum_statistic(s) / n ** 2

    # [T]: the translation sum depends on J only through |J|
    eps_t = 0.0
    witness_t_len = 0
    if n > 1:
        smags2 = fourier_spectrum(s).magnitudes()[1:] ** 2
        for length in range(1, n):
            jmags2 = interval_spectrum_magnitudes(n, length)[1:] ** 2
            val = float(np.sum(smags2 * jmags2) / n) / n ** 3
            if val > eps_t:
                eps_t = val
                witness_t_len = length

    checks = implication_checks(s, eps_pb=eps_pb, eps_mb=eps_mb,
                                eps_s=eps_s, eps_t=eps_t)

    return BalanceCertificate(
        n=n, size=s.size,
        eps_B=eps_b, witness_B=witness_b,
        eps_PB=eps_pb, witness_PB=witness_pb, pb_policy=policy,
        eps_MB=eps_mb, witness_MB=witness_mb,
        eps_E_half=eps_e_half, witness_E_half=witness_e,
        eps_S=eps_s, eps_T=eps_t, witness_T_length=witness_t_len,
        implication_checks=checks,
    )


def implication_checks(s: ZnSubset, *, eps_pb: Fraction, eps_mb: Fraction,
                       eps_s: float, eps_t: float) -> dict:
    """The quantitative inequalities linking the balance properties."""
    n = s.n
    checks = {}

    # piecewise balance bounds multiple balance: D(kS) <= 2 eps_PB n |k|
    ok = True
    for k in range(1, n):
        if multiple_discrepancy(s, k) > 2 * eps_pb * n * n * sym_abs(k, n):
            ok = False
            break
    checks["pb_implies_mb"] = ok

    mags = fourier_spectrum(s).magnitudes() if n > 1 else np.zeros(1)
    ks = sym_ks(n).astype(np.float64)

    # multiple balance bounds the k-th coefficient (valid for eps <= pi/8)
    if float(eps_mb) <= math.pi / 8:
        tol = 1e-9 * n
        checks["mb_implies_e_half"] = all(
            mags[k] <= n * math.sqrt(18 * math.pi * float(eps_mb) * ks[k]) + tol
            for k in range(1, n))
    else:
        checks["mb_implies_e_half"] = True  # hypothesis of the bound not met

    # one eigenvalue bound yields all the others
    for alpha, beta in ((0.5, 0.25), (1.0, 0.5)):
        stat, _ = eigenvalue_bound_profile(s, alpha) if n > 1 else (0.0, 0)
        eps_a = stat / n
        m_exp = math.ceil(alpha / beta)
        tol = 1e-9 * n
        checks[f"e{alpha}_implies_e{beta}"] = all(
            mags[k] <= eps_a ** (1.0 / m_exp) * n * ks[k] ** beta + tol
            for k in range(1, n))

    # the sum statistic dominates every translation sum: T(J) <= (n/4) * S
    checks["s_implies_t"] = eps_t * n ** 3 <= (n / 4) * (eps_s * n ** 2) * (1 + 1e-9) + 1e-9

    return checks
