import math
import time
from itertools import combinations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from claimdist.stats import (
    _ranks,
    _u_counts,
    chi_square_sf,
    kruskal_wallis,
    median_iqr,
    wilcoxon_rank_sum_exact,
)

# 32 similarity scores from the case-study's h-index group; the known
# summary row gives median 0.5763 and lower quartile 0.5208.
H_INDEX_VALUES = [
    0.7636, 0.6729, 0.6701, 0.6680, 0.6658, 0.6583, 0.6536, 0.6276,
    0.6132, 0.6130, 0.6093, 0.6065, 0.5973, 0.5935, 0.5902, 0.5788,
    0.5738, 0.5678, 0.5630, 0.5575, 0.5375, 0.5372, 0.5344, 0.5210,
    0.5200, 0.5138, 0.5121, 0.5053, 0.4886, 0.4652, 0.4555, 0.4265,
]


def enumerate_wilcoxon_p(x, y):
    """Brute-force two-sided exact p over all rank splits (tie-free data)."""
    n, m = len(x), len(y)
    pooled = sorted(x + y)
    ranks_x = {pooled.index(v) + 1 for v in x}
    u_obs = sum(ranks_x) - n * (n + 1) / 2
    us = []
    for subset in combinations(range(1, n + m + 1), n):
        us.append(sum(subset) - n * (n + 1) / 2)
    total = len(us)
    lower = sum(1 for u in us if u <= u_obs)
    upper = sum(1 for u in us if u >= u_obs)
    return min(1.0, 2.0 * min(lower, upper) / total)


def reference_u_counts(n, m):
    """Mann-Whitney U counts by the 2-D recurrence over every (i, j) table.

    c_{i,j}(u) = c_{i-1,j}(u-j) + c_{i,j-1}(u); about n^2 m^2 / 4 integer
    additions. The counts for (n, m) and (m, n) are the same list; the
    row kept in memory grows with m, so pass the larger size first.
    """
    prev_row = [[1] for _ in range(m + 1)]
    for i in range(1, n + 1):
        row = [[1]]
        for j in range(1, m + 1):
            counts = [0] * (i * j + 1)
            for u, c in enumerate(prev_row[j]):
                counts[u + j] += c
            for u, c in enumerate(row[j - 1]):
                counts[u] += c
            row.append(counts)
        prev_row = row
    return prev_row[m]


U_COUNT_GRID = [
    (1, 1), (3, 5), (7, 2), (10, 50), (32, 32), (50, 50), (1, 50), (50, 1),
    (2, 60), (13, 17), (10, 200), (20, 200), (5, 2000),
]

# Fixed samples whose statistics are pinned to the last bit.
TIE_FREE_KW = {
    "a": [0.034193, 1.359748, 1.224721, -0.510307, -0.29797, -0.527384, 0.569726],
    "b": [-0.056064, 0.746886, -1.847325, 1.566549, -0.096432, 0.680378, -0.136566,
          -0.379099, 0.46311],
    "c": [0.824514, -0.20253, -0.152786, 0.685699, -0.870341, -1.514384, 0.394982, -0.670566],
}
TIE_HEAVY_KW = {"a": [1, 1, 2, 2, 2, 3], "b": [3, 3, 5, 5, 5, 5], "c": [2, 4, 4, 4, 6, 6, 6]}
ALL_EQUAL_KW = {"a": [0.5] * 3, "b": [0.5] * 2, "c": [0.5]}
TIE_HEAVY_PAIR = ([1, 1, 2, 2, 2, 3, 3, 5, 5, 5, 5], [2, 2, 3, 4, 4, 4, 5, 6, 6])


def hexes(res):
    return float(res.statistic).hex(), float(res.p_value).hex()


class TestMedianIqr:
    def test_hand_interpolation(self):
        s = median_iqr([1, 2, 3, 4])
        assert s.median == pytest.approx(2.5)
        assert s.q1 == pytest.approx(1.75)
        assert s.q3 == pytest.approx(3.25)

    def test_singleton(self):
        s = median_iqr([7.0])
        assert (s.median, s.q1, s.q3) == (7.0, 7.0, 7.0)
        assert s.n == 1

    def test_32_value_group_summary(self):
        # median and lower quartile match the known summary row; the upper
        # quartile is the type-7 formula's own value (the summary row's
        # 0.6131 is not reproducible from these values with any standard
        # quantile convention).
        s = median_iqr(H_INDEX_VALUES)
        assert s.n == 32
        assert s.median == pytest.approx(0.5763, abs=5e-5)
        assert s.q1 == pytest.approx(0.5208, abs=5e-5)
        assert s.q3 == pytest.approx(0.6168, abs=5e-5)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            median_iqr([])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=rng.integers(1, 40))
            s1 = median_iqr(x)
            s2 = median_iqr(rng.permutation(x))
            assert (s1.median, s1.q1, s1.q3) == (s2.median, s2.q1, s2.q3)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=rng.integers(2, 30))
            a = float(rng.random() * 5 + 0.1)
            b = float(rng.normal())
            s = median_iqr(x)
            t = median_iqr(a * x + b)
            assert t.median == pytest.approx(a * s.median + b, abs=1e-12)
            assert t.q1 == pytest.approx(a * s.q1 + b, abs=1e-12)
            assert t.q3 == pytest.approx(a * s.q3 + b, abs=1e-12)

    def test_ordering_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.normal(size=rng.integers(1, 25))
            s = median_iqr(x)
            assert s.q1 <= s.median <= s.q3


class TestKruskalWallis:
    def test_hand_three_groups(self):
        res = kruskal_wallis({"a": [1, 2], "b": [3, 4], "c": [5, 6]})
        assert res.statistic == pytest.approx(4.5714, abs=1e-4)
        assert res.p_value == pytest.approx(0.1017, abs=1e-4)
        assert res.method == "chi-square-approx"

    def test_all_equal_defines_zero(self):
        res = kruskal_wallis({"a": [5, 5], "b": [5, 5, 5]})
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_requires_two_nonempty_groups(self):
        with pytest.raises(ValueError):
            kruskal_wallis({"a": [1, 2]})
        with pytest.raises(ValueError):
            kruskal_wallis({"a": [1], "b": []})

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            groups = {
                g: list(rng.normal(size=rng.integers(2, 10))) for g in ("x", "y", "z")
            }
            ref = kruskal_wallis(groups)
            transformed = {g: [math.exp(v) for v in vs] for g, vs in groups.items()}
            res = kruskal_wallis(transformed)
            assert res.statistic == pytest.approx(ref.statistic, abs=1e-10)

    def test_tie_correction_against_reference(self):
        # frozen from scipy.stats.kruskal on the same data
        res = kruskal_wallis({"a": [1, 1, 2], "b": [2, 3, 3]})
        assert res.statistic == pytest.approx(3.3333333333333, abs=1e-10)
        assert res.p_value == pytest.approx(0.0678891548618, abs=1e-10)
        res3 = kruskal_wallis({"a": [1, 2, 2, 4], "b": [2, 3, 5], "c": [1, 5, 6, 6]})
        assert res3.statistic == pytest.approx(2.4784820031299, abs=1e-10)
        assert res3.p_value == pytest.approx(0.2896039434827, abs=1e-10)


class TestWilcoxonExact:
    def test_hand_example(self):
        res = wilcoxon_rank_sum_exact([1, 2], [3, 4])
        assert res.method == "exact"
        assert res.p_value == pytest.approx(1 / 3, abs=1e-9)

    def test_forced_tie_uses_normal_path(self):
        res = wilcoxon_rank_sum_exact([5.0], [5.0])
        assert res.method == "normal-approx-tie-corrected"
        assert res.p_value == 1.0

    def test_empty_error(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum_exact([], [1.0])

    def test_symmetric_interleaved_sets_give_p_one(self):
        x, y = [1, 4, 5, 8], [2, 3, 6, 7]
        res = wilcoxon_rank_sum_exact(x, y)
        assert res.method == "exact"
        assert res.p_value == 1.0
        assert enumerate_wilcoxon_p(x, y) == 1.0

    def test_extreme_separation(self):
        res = wilcoxon_rank_sum_exact([1, 2, 3], [10, 11, 12])
        assert res.method == "exact"
        assert res.p_value == pytest.approx(0.1, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 200:
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            values = rng.normal(size=n + m)
            if np.unique(values).size < values.size:
                continue
            x, y = list(values[:n]), list(values[n:])
            res = wilcoxon_rank_sum_exact(x, y)
            assert res.method == "exact"
            assert abs(res.p_value - enumerate_wilcoxon_p(x, y)) <= 1e-12
            checked += 1

    def test_ties_tie_corrected_normal(self):
        # frozen from scipy.stats.mannwhitneyu (two-sided, asymptotic) on the same data
        res = wilcoxon_rank_sum_exact([1, 2, 2, 3], [2, 4, 5, 6])
        assert res.method == "normal-approx-tie-corrected"
        assert res.statistic == pytest.approx(2.0)
        assert res.p_value == pytest.approx(0.1037536775210, abs=1e-10)

    def test_stars_annotation(self):
        assert wilcoxon_rank_sum_exact([1, 2, 3], [10, 11, 12]).stars == ""
        strong = wilcoxon_rank_sum_exact(list(range(10)), list(range(20, 30)))
        assert strong.p_value <= 0.01
        assert strong.stars == "**"


class TestUCounts:
    @pytest.mark.parametrize("n,m", U_COUNT_GRID)
    def test_matches_two_dimensional_recurrence(self, n, m):
        assert _u_counts(n, m, n * m) == reference_u_counts(max(n, m), min(n, m))

    @pytest.mark.parametrize("n,m", U_COUNT_GRID)
    def test_total_and_symmetry(self, n, m):
        counts = _u_counts(n, m, n * m)
        assert len(counts) == n * m + 1
        assert sum(counts) == math.comb(n + m, n)
        assert counts == counts[::-1]

    @pytest.mark.parametrize("n,m", [(5, 7), (13, 40), (32, 32), (5, 2000)])
    def test_lower_degree_is_a_prefix(self, n, m):
        full = _u_counts(n, m, n * m)
        for degree in (0, 1, n * m // 3, n * m // 2, n * m - 1, n * m):
            assert _u_counts(n, m, degree) == full[: degree + 1]

    @pytest.mark.parametrize("n,m", [(5, 7), (13, 40), (32, 32)])
    def test_exact_p_equals_the_full_count_formula(self, n, m):
        counts = reference_u_counts(max(n, m), min(n, m))
        for u in (0, 1, n * m // 3, n * m // 2, n * m - 1, n * m):
            # x_i has k_i of the y values 0..m-1 below it; the k_i sum to u
            q, r = divmod(u, m)
            k = [0] * (n - q - 1) + [r] + [m] * q if q < n else [m] * n
            x = [k_i - 0.5 + i * 1e-6 for i, k_i in enumerate(k)]
            res = wilcoxon_rank_sum_exact(x, list(range(m)))
            assert (res.method, res.statistic) == ("exact", u)
            lower, upper = sum(counts[: u + 1]), sum(counts[u:])
            want = min(1.0, 2.0 * min(lower, upper) / sum(counts))
            assert res.p_value.hex() == want.hex()

    def test_reference_is_symmetric_in_its_sizes(self):
        for n, m in [(1, 4), (3, 5), (6, 2), (7, 9)]:
            assert reference_u_counts(n, m) == reference_u_counts(m, n)


class TestPinnedBits:
    """Statistics of fixed samples, pinned by float.hex, and scipy cross-checks."""

    def test_wilcoxon_tie_free(self):
        res = wilcoxon_rank_sum_exact(H_INDEX_VALUES[::2], H_INDEX_VALUES[1::2])
        assert res.method == "exact"
        assert hexes(res) == ("0x1.1000000000000p+7", "0x1.8f963ea9eccc4p-1")

    def test_wilcoxon_tie_heavy(self):
        res = wilcoxon_rank_sum_exact(*TIE_HEAVY_PAIR)
        assert res.method == "normal-approx-tie-corrected"
        assert hexes(res) == ("0x1.1000000000000p+5", "0x1.f68876c005984p-3")

    def test_wilcoxon_all_equal(self):
        res = wilcoxon_rank_sum_exact([0.5] * 4, [0.5] * 3)
        assert res.method == "normal-approx-tie-corrected"
        assert hexes(res) == ("0x1.8000000000000p+2", "0x1.0000000000000p+0")

    def test_kruskal_wallis_tie_free(self):
        assert hexes(kruskal_wallis(TIE_FREE_KW)) == ("0x1.1571f0b8a5240p+0", "0x1.29ce23fc7de96p-1")

    def test_kruskal_wallis_tie_heavy(self):
        assert hexes(kruskal_wallis(TIE_HEAVY_KW)) == ("0x1.414b6c20e7853p+3", "0x1.b0bc43a55a249p-8")

    def test_kruskal_wallis_all_equal(self):
        assert hexes(kruskal_wallis(ALL_EQUAL_KW)) == ("0x0.0p+0", "0x1.0000000000000p+0")

    def test_ranks_equal_scipy_rankdata(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            size = int(rng.integers(1, 80))
            if rng.random() < 0.5:
                pooled = rng.integers(0, int(rng.integers(1, 6)), size=size).astype(np.float64)
            else:
                pooled = rng.normal(size=size)
            ranks, ties = _ranks(pooled)
            assert np.array_equal(ranks, scipy_stats.rankdata(pooled, method="average"))
            assert ties.sum() == size
            assert np.array_equal(ties, np.unique(pooled, return_counts=True)[1])

    @pytest.mark.parametrize("n,m", [(3, 7), (9, 4), (32, 32), (50, 50), (10, 200), (50, 120)])
    def test_exact_p_matches_scipy(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        for shift in (0.0, 0.4):
            x = rng.normal(size=n)
            y = rng.normal(size=m) + shift
            res = wilcoxon_rank_sum_exact(x, y)
            ref = scipy_stats.mannwhitneyu(x, y, alternative="two-sided", method="exact")
            assert res.method == "exact"
            assert res.statistic == ref.statistic
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0.0)

    def test_exact_on_unbalanced_groups_is_fast(self):
        # min(n, m) <= 50 is exact however large the other group is, so the
        # cost of the counts must not grow with the square of the larger one.
        rng = np.random.default_rng(2000)
        x, y = rng.normal(size=5), rng.normal(size=2000)
        start = time.perf_counter()
        res = wilcoxon_rank_sum_exact(x, y)
        elapsed = time.perf_counter() - start
        ref = scipy_stats.mannwhitneyu(x, y, alternative="two-sided", method="exact")
        assert res.method == "exact"
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0.0)
        assert elapsed < 1.0


class TestChiSquareSf:
    def test_zero_is_one(self):
        assert chi_square_sf(0.0, 5) == 1.0

    def test_df2_closed_form_hand_value(self):
        assert chi_square_sf(4.5714, 2) == pytest.approx(math.exp(-2.2857), abs=1e-4)

    def test_df2_closed_form_grid(self):
        for x in np.arange(0.0, 50.5, 0.5):
            assert abs(chi_square_sf(float(x), 2) - math.exp(-x / 2)) <= 1e-10

    def test_df1_closed_form(self):
        for x in (0.1, 0.5, 1.0, 3.2, 9.0, 25.0):
            expected = math.erfc(math.sqrt(x / 2))
            assert abs(chi_square_sf(x, 1) - expected) <= 1e-10

    def test_df4_closed_form(self):
        for x in (0.2, 1.0, 4.0, 10.0, 30.0):
            expected = math.exp(-x / 2) * (1 + x / 2)
            assert abs(chi_square_sf(x, 4) - expected) <= 1e-10

    def test_monotone_decreasing_in_x(self):
        for df in (1, 2, 3, 7, 15):
            values = [chi_square_sf(x, df) for x in np.linspace(0, 40, 81)]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi_square_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0)

    def test_range_fuzzed(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            x = float(rng.random() * 100)
            df = int(rng.integers(1, 30))
            p = chi_square_sf(x, df)
            assert 0.0 <= p <= 1.0
