"""Balance statistics for subsets of Z_n.

Interval discrepancies are kept as exact n-scaled integers (n*D instead of
D) so every inequality can be checked without tolerances.  Floating point
appears only in the Fourier-derived statistics.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import (CyclicInterval, InputError, Record, ZnSubset, _check_moduli,
                   profile_witness)

# balance_certificate costs O(n^2 log n): one FFT per interval length
MAX_CERTIFICATE_SIZE = 4096

# Cells in one block of rows of the certificate's dilation counts and of
# its interval FFTs.  Blocks cut the per-row cost of numpy calls, which
# dominates at small n; at large n the FFTs dominate.  On a 2-core x86-64
# host the certificate of a random half set took 0.16 against 0.31 ms at
# n = 16, 4.4 against 11.4 ms at 512 and 76 against 96 ms at 2048 with one
# row at a time (fastest of 9-100 calls).  FFT blocks of 2^13 cells, two
# rows at n = 4096, took 1.6x as long there as one row at a time, so they
# hold 2^12 cells, one row at that n.
_COUNT_CELLS = 1 << 14
_FFT_CELLS = 1 << 12


def _weights(s: ZnSubset) -> np.ndarray:
    return np.asarray(s.indicator(), dtype=np.int64)


def _prefix_profile(w: np.ndarray, mass: int) -> np.ndarray:
    """g(j) = n * (w[0] + ... + w[j]) - mass * (j + 1) for weights w of
    total mass over Z_n."""
    n = len(w)
    return n * np.cumsum(w) - mass * np.arange(1, n + 1, dtype=np.int64)


def max_interval_discrepancy(s: ZnSubset) -> tuple:
    """(n * D(S), witness J) with D(S) the max of D_J over all J."""
    return profile_witness(_prefix_profile(_weights(s), s.size).tolist())


def _by_blocks(kernel, rows: np.ndarray, n: int, cells: int) -> np.ndarray:
    """kernel(rows), run on blocks of rows of about `cells` cells of length
    n and joined; an empty `rows` is one empty block."""
    step = max(1, cells // n)
    return np.concatenate([kernel(rows[i:i + step]) for i in range(0, len(rows) or 1, step)])


def _dilated_discrepancies(n: int, members: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """n * D(kS) for each k of ks, 0 <= k < n, from the members of S: the
    ranges of the profiles of the kS, counted by one bincount over all."""
    rows = n * np.arange(len(ks))[:, None]
    g = np.bincount((ks[:, None] * members % n + rows).ravel(),
                    minlength=len(ks) * n).reshape(len(ks), n)
    np.cumsum(g, axis=1, out=g)
    g *= n
    g -= len(members) * np.arange(1, n + 1, dtype=np.int64)
    return g.max(axis=1) - g.min(axis=1)


def _members(s: ZnSubset) -> np.ndarray:
    return np.fromiter(s.members, dtype=np.int64, count=s.size)


def multiple_discrepancy(s: ZnSubset, k: int) -> int:
    """n * D(kS) where kS is the multiset {k*x : x in S}."""
    if k % s.n == 0:
        raise InputError("k must be nonzero mod n")
    return int(_dilated_discrepancies(s.n, _members(s), np.array([k % s.n]))[0])


def fourier_spectrum(s: ZnSubset) -> np.ndarray:
    """All n Fourier coefficients S~(k) = sum_{x in S} e^(-2 pi i k x / n),
    via the FFT (the transform kernel matches the definition)."""
    return np.fft.fft(_weights(s).astype(np.float64))


def _nonzero_ks(n: int) -> np.ndarray:
    """|k| for k = 1..n-1 under the (-n/2, n/2] representative convention,
    as floats."""
    k = np.arange(1, n)
    return np.minimum(k, n - k).astype(np.float64)


def _max_ratio(mags: np.ndarray, alpha: float) -> tuple:
    """(max over k != 0 of mags[k] / |k|^alpha, witness k)."""
    n = len(mags)
    if n == 1:
        return 0.0, 0
    with np.errstate(over="ignore"):  # a |k|^alpha past the float range is inf, its ratio 0
        ratios = mags[1:] / _nonzero_ks(n) ** alpha
    i = int(np.argmax(ratios))
    return float(ratios[i]), i + 1


def _ratio_square_sum(mags: np.ndarray) -> float:
    """Sum over k != 0 of (mags[k] / |k|)^2."""
    return float(np.sum((mags[1:] / _nonzero_ks(len(mags))) ** 2))


def eigenvalue_bound_profile(s: ZnSubset, alpha: float) -> tuple:
    """(max over k != 0 of |S~(k)| / |k|^alpha, witness k)."""
    if not 0 < alpha < math.inf:
        raise InputError("alpha must be positive and finite")
    return _max_ratio(np.abs(fourier_spectrum(s)), alpha)


def sum_statistic(s: ZnSubset) -> float:
    """Sum over k != 0 of (|S~(k)| / |k|)^2."""
    return _ratio_square_sum(np.abs(fourier_spectrum(s)))


def interval_spectrum_magnitudes(n: int, length: int) -> np.ndarray:
    """|J~(k)| for an interval of the given length; independent of start."""
    if not 0 <= length <= n:
        raise InputError(f"length {length} outside [0, {n}]")
    return _interval_magnitudes(np.arange(n), np.array([length]))[0]


def _interval_magnitudes(columns: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """|J~(k)| for an interval of each of the lengths, a row each, from
    columns = arange(n): one FFT along the rows of the indicators of the
    intervals [0, L) in floats."""
    return np.abs(np.fft.fft((columns < lengths[:, None]).astype(np.float64), axis=1))


def _translation_sums(smags2: np.ndarray, columns: np.ndarray,
                      lengths: np.ndarray) -> np.ndarray:
    """sum_{k!=0} |S~(k)|^2 |J~(k)|^2 / n for a J of each of the lengths,
    from smags2[k-1] = |S~(k)|^2 for k = 1..n-1 and columns = arange(n),
    built once per caller.  Each row is summed on its own, so each value is
    the one a single length gives, bit for bit."""
    return (np.sum(smags2 * _interval_magnitudes(columns, lengths)[:, 1:] ** 2, axis=1)
            / len(columns))


def translation_statistic(s: ZnSubset, j: CyclicInterval) -> float:
    """Sum over k of (|S & (J+k)| - |S||J|/n)^2, by the spectral identity
    sum_{k!=0} |S~(k) J~(-k)|^2 / n."""
    _check_moduli(s.n, j.n)
    return float(_translation_sums(np.abs(fourier_spectrum(s))[1:] ** 2, np.arange(s.n),
                                   np.array([j.length]))[0])


class BalanceCertificate(Record):
    """Per-instance epsilon values for the seven balance properties.

    Each eps field is the smallest epsilon at which the property's defining
    inequality holds for this set, together with the witness attaining it.
    Integral statistics are exact rationals; Fourier-derived ones floats.
    """

    __slots__ = ("n", "size", "eps_B", "witness_B", "eps_PB", "witness_PB",
                 "eps_MB", "witness_MB", "eps_E_half", "witness_E_half",
                 "eps_S", "eps_T", "witness_T_length", "implication_checks")
    n: int
    size: int
    eps_B: Fraction
    witness_B: CyclicInterval
    eps_PB: Fraction
    witness_PB: tuple
    eps_MB: Fraction
    witness_MB: int
    eps_E_half: float
    witness_E_half: int
    eps_S: float
    eps_T: float
    witness_T_length: int
    implication_checks: dict


def balance_certificate(s: ZnSubset) -> BalanceCertificate:
    """Evaluate every balance statistic and the proof-level implications.

    One prefix profile gives [B]; one pass over the dilations k <= n/2
    gives n*D(kS) for [MB]; one FFT of S gives [E], [S] and, with one FFT
    of an interval of each length 1..n-1, [T].  The dilations are counted
    and the interval FFTs taken in blocks of rows, each row exactly as a
    single row would be, so eps_T is the same to the last bit.

    [PB] asks for the least eps with D_T(S) <= eps * c(T) for every T that
    is a union of c(T) disjoint intervals J_1..J_c.  The intersection count
    is additive over them, so n*D_T(S) = |sum_i (n|S & J_i| - |S||J_i|)|
    <= c(T) * n*D(S): no T beats an interval, and eps_PB = eps_B with the
    elements of witness_B as its witness.
    """
    n = s.n
    if n > MAX_CERTIFICATE_SIZE:
        raise InputError(f"n={n} exceeds the certificate limit "
                         f"{MAX_CERTIFICATE_SIZE}")
    scaled_d, witness_b = max_interval_discrepancy(s)
    eps_b = Fraction(scaled_d, n * n)

    # [MB]: D(kS)/(n|k|) over all nonzero k, the first k attaining the max.
    # Negation maps intervals to intervals, so D((n-k)S) = D(kS) and
    # |n-k| = |k|: the ratios are symmetric and k <= n/2, where |k| = k,
    # holds every value and the first maximum.
    members = _members(s)
    ks = np.arange(1, n // 2 + 1)
    dilated = _by_blocks(lambda block: _dilated_discrepancies(n, members, block), ks, n,
                         _COUNT_CELLS)
    ratios = [Fraction(int(d), n * n * k) for k, d in enumerate(dilated, 1)]
    eps_mb = max(ratios, default=Fraction(0))
    witness_mb = ratios.index(eps_mb) + 1 if eps_mb else 0

    mags = np.abs(fourier_spectrum(s))
    stat_e, witness_e = _max_ratio(mags, 0.5)
    eps_e_half = stat_e / n
    eps_s = _ratio_square_sum(mags) / n ** 2

    # [T]: the translation sum depends on J only through |J|; the first
    # length attaining the largest positive value is the witness
    smags2, columns = mags[1:] ** 2, np.arange(n)
    vals = _by_blocks(lambda block: _translation_sums(smags2, columns, block),
                      columns[1:], n, _FFT_CELLS) / n ** 3
    witness_t_len = int(np.argmax(vals)) + 1 if vals.any() else 0
    eps_t = float(vals[witness_t_len - 1]) if witness_t_len else 0.0

    return BalanceCertificate(
        n=n, size=s.size,
        eps_B=eps_b, witness_B=witness_b,
        eps_PB=eps_b, witness_PB=tuple(sorted(witness_b.elements())),
        eps_MB=eps_mb, witness_MB=witness_mb,
        eps_E_half=eps_e_half, witness_E_half=witness_e,
        eps_S=eps_s, eps_T=eps_t, witness_T_length=witness_t_len,
        implication_checks=_implication_checks(
            scaled_d, s.size, dilated, mags, eps_mb=eps_mb,
            eps_e_half=eps_e_half, eps_s=eps_s, eps_t=eps_t),
    )


def _implication_checks(scaled_d: int, size: int, dilated: np.ndarray,
                        mags: np.ndarray, *, eps_mb: Fraction, eps_e_half: float,
                        eps_s: float, eps_t: float) -> dict:
    """The quantitative inequalities linking the balance properties, from
    n*D(S), |S|, the dilation discrepancies n*D(kS) for k = 1..n/2, the
    magnitudes |S~(k)| and the certificate's own statistics."""
    n = len(mags)
    ks = _nonzero_ks(n)
    tol = 1e-9 * n
    checks = {}

    # piecewise balance bounds multiple balance.  kS meets J where S meets
    # T = k^-1 J, a union of at most 2|k| intervals.  |T| = |J| when
    # gcd(k, n) = 1; in general n * ||T| - |J|| is the n-scaled discrepancy
    # of the multiset kZ_n on J, and n * D(kZ_n) = n * (gcd(k, n) - 1).  Hence
    # n * n D(kS) <= 2|k| * n * n D(S) + |S| * n * D(kZ_n), divided here by n.
    # Both sides are equal at k and n - k, so k <= n/2 covers every k.
    k = np.arange(1, n // 2 + 1)
    checks["pb_implies_mb"] = bool(np.all(
        dilated <= 2 * scaled_d * k + size * (np.gcd(k, n) - 1)))

    # multiple balance bounds the k-th coefficient when eps_MB <= pi/8, which
    # always holds.  Let g = gcd(k, n) and c_J = #{x in S : kx in J}.  J of
    # length L has m <= L + g - 1 preimages under x -> kx, so c_J <= min(|S|, m)
    # and n*c_J - |S|*L <= m(n - L) <= ((n + k - 1)/2)^2; J's complement bounds
    # |S|*L - n*c_J alike.  So n*D(kS)/(n^2 k) <= (n + k - 1)^2 / (4 n^2 k),
    # which is 1/4 at k = 1 and at most 9/32 < pi/8 for 2 <= k <= n/2.
    checks["mb_implies_e_half"] = bool(np.all(
        mags[1:] <= n * np.sqrt(18 * math.pi * float(eps_mb) * ks) + tol))

    # one eigenvalue bound yields all the others
    eps_one = _max_ratio(mags, 1.0)[0] / n
    for alpha, beta, eps_a in ((0.5, 0.25, eps_e_half), (1.0, 0.5, eps_one)):
        m_exp = math.ceil(alpha / beta)
        checks[f"e{alpha}_implies_e{beta}"] = bool(np.all(
            mags[1:] <= eps_a ** (1.0 / m_exp) * n * ks ** beta + tol))

    # the sum statistic dominates every translation sum: T(J) <= (n/4) * S
    checks["s_implies_t"] = eps_t * n ** 3 <= (n / 4) * (eps_s * n ** 2) * (1 + 1e-9) + 1e-9

    return checks
