"""Rank statistics: group summaries and the significance protocol.

Quantiles follow the linear-interpolation convention q = x_(h) +
frac(h) * (x_(h+1) - x_(h)) with h = (n-1)p (R's default, type 7).
The omnibus comparison is Kruskal-Wallis with midrank ties and the
standard tie-correction divisor; pairwise comparisons use the Wilcoxon
rank-sum test with an exact two-sided p-value from the Mann-Whitney
U-count distribution whenever the data are tie-free and small enough,
falling back to a tie-corrected normal approximation otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

METHOD_EXACT = "exact"
METHOD_CHI_SQUARE = "chi-square-approx"
METHOD_NORMAL_TIES = "normal-approx-tie-corrected"

EXACT_LIMIT = 50


@dataclass(frozen=True)
class GroupSummary:
    n: int
    median: float
    q1: float
    q3: float


@dataclass(frozen=True)
class HypothesisTestResult:
    statistic: float
    p_value: float
    method: str
    groups: tuple[str, ...]

    @property
    def stars(self) -> str:
        """Significance annotation: ** for p <= 0.01, * for 0.01 < p <= 0.05."""
        if self.p_value <= 0.01:
            return "**"
        if self.p_value <= 0.05:
            return "*"
        return ""

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "p_value": self.p_value,
            "method": self.method,
            "groups": list(self.groups),
            "significance": self.stars,
        }


def quantile(values: Sequence[float], p: float) -> float:
    """Type-7 quantile of nonempty ``values`` at probability ``p`` in [0, 1]."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    h = (x.size - 1) * p
    lo = int(math.floor(h))
    hi = min(lo + 1, x.size - 1)
    return float(x[lo] + (h - lo) * (x[hi] - x[lo]))


def median_iqr(values: Sequence[float]) -> GroupSummary:
    """Median and interquartile endpoints of a nonempty sample."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("median_iqr needs at least one value")
    return GroupSummary(
        n=int(x.size),
        median=quantile(x, 0.5),
        q1=quantile(x, 0.25),
        q3=quantile(x, 0.75),
    )


def _ranks(pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks 1..N with tied values sharing their average rank, and the tie-group sizes."""
    _, inverse, ties = np.unique(pooled, return_inverse=True, return_counts=True)
    return (np.cumsum(ties) - (ties - 1) / 2.0)[inverse], ties


def _tie_term(ties: np.ndarray) -> float:
    """Sum of t^3 - t over tie groups."""
    return float((ties.astype(np.float64) ** 3 - ties).sum())


def kruskal_wallis(groups: Mapping[str, Sequence[float]]) -> HypothesisTestResult:
    """Rank-based omnibus test across two or more groups.

    H = [12 / (N(N+1))] * sum(R_i^2 / n_i) - 3(N+1) on midranks, divided
    by the tie correction 1 - sum(t^3 - t) / (N^3 - N). When every
    pooled observation is equal the statistic is defined as 0 with p=1.
    """
    labels = tuple(groups)
    if len(labels) < 2:
        raise ValueError("kruskal_wallis needs at least 2 groups")
    samples = [np.asarray(groups[g], dtype=np.float64) for g in labels]
    if any(s.size == 0 for s in samples):
        raise ValueError("kruskal_wallis groups must all be nonempty")
    pooled = np.concatenate(samples)
    n_total = pooled.size
    ranks, ties = _ranks(pooled)
    h = 0.0
    start = 0
    for s in samples:
        r = ranks[start : start + s.size].sum()
        h += r * r / s.size
        start += s.size
    h = 12.0 / (n_total * (n_total + 1.0)) * h - 3.0 * (n_total + 1.0)
    correction = 1.0 - _tie_term(ties) / (n_total**3 - n_total)
    if correction <= 0.0:
        return HypothesisTestResult(0.0, 1.0, METHOD_CHI_SQUARE, labels)
    h /= correction
    h = max(0.0, h)
    p = chi_square_sf(h, len(labels) - 1)
    return HypothesisTestResult(h, p, METHOD_CHI_SQUARE, labels)


def _u_counts(n: int, m: int, degree: int) -> list[int]:
    """Counts of rank configurations per Mann-Whitney U value 0..degree, exact integers.

    The counts are the coefficients of the Gaussian binomial
    [n+m choose n]_q = prod_{i=1..n} (1 - q^(m+i)) / (1 - q^i), built
    over the smaller sample in O(n * degree) integer operations.
    """
    n, m = min(n, m), max(n, m)
    # Power-series arithmetic modulo q^(degree+1): the downward pass
    # multiplies by (1 - q^(m+i)), the upward pass divides by (1 - q^i).
    # Each step reads only lower coefficients, so the cut loses nothing.
    c = [1] + [0] * degree
    for i in range(1, n + 1):
        for u in range(degree, m + i - 1, -1):
            c[u] -= c[u - m - i]
        for u in range(i, degree + 1):
            c[u] += c[u - i]
    return c


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_rank_sum_exact(
    x: Sequence[float],
    y: Sequence[float],
    labels: tuple[str, str] = ("x", "y"),
) -> HypothesisTestResult:
    """Two-sided two-sample rank test.

    Tie-free samples with min(n, m) <= 50 get the exact p-value
    p = min(1, 2 * min(P(U <= u), P(U >= u))) from the exact U counts,
    whatever the size of the larger sample. Ties (or both samples above
    the limit) use the normal approximation with tie-corrected variance
    and continuity correction, and the method flag says so.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.size == 0 or ya.size == 0:
        raise ValueError("both samples must be nonempty")
    n, m = int(xa.size), int(ya.size)
    pooled = np.concatenate([xa, ya])
    ranks, ties = _ranks(pooled)
    r_x = float(ranks[:n].sum())
    u = r_x - n * (n + 1) / 2.0

    if ties.size == pooled.size and min(n, m) <= EXACT_LIMIT:
        # The counts are a palindrome, so the smaller tail P(U <= u) or
        # P(U >= u) is the sum of the counts up to min(u, nm - u).
        u_int = int(round(u))
        tail = sum(_u_counts(n, m, min(u_int, n * m - u_int)))
        p = min(1.0, 2.0 * tail / math.comb(n + m, n))
        return HypothesisTestResult(u, p, METHOD_EXACT, labels)

    mean_u = n * m / 2.0
    var_u = n * m / 12.0 * ((n + m + 1.0) - _tie_term(ties) / ((n + m) * (n + m - 1.0)))
    if var_u <= 0.0:
        return HypothesisTestResult(u, 1.0, METHOD_NORMAL_TIES, labels)
    shift = u - mean_u
    z = (shift - math.copysign(0.5, shift)) / math.sqrt(var_u) if shift != 0.0 else 0.0
    p = min(1.0, 2.0 * _normal_sf(abs(z)))
    return HypothesisTestResult(u, p, METHOD_NORMAL_TIES, labels)


def _gamma_p_series(a: float, x: float) -> float:
    # P(a, x) by series expansion; converges fast for x < a + 1.
    term = 1.0 / a
    total = term
    k = a
    for _ in range(10_000):
        k += 1.0
        term *= x / k
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Q(a, x) by Lentz's continued fraction; for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi_square_sf(x: float, df: int) -> float:
    """Chi-square survival function Q(df/2, x/2), absolute error <= 1e-10."""
    if df < 1 or int(df) != df:
        raise ValueError("df must be a positive integer")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 1.0
    a = df / 2.0
    half_x = x / 2.0
    if x < df + 1.0:
        return min(1.0, max(0.0, 1.0 - _gamma_p_series(a, half_x)))
    return min(1.0, max(0.0, _gamma_q_contfrac(a, half_x)))
