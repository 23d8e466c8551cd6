import tracemalloc

import numpy as np
import pytest

from claimdist.embeddings import normalized_rows
from claimdist.errors import InternalInvariantError, OracleSizeError
from claimdist.textprep import NBow
from claimdist.transport import (
    DistanceResult,
    ground_cost,
    lc_rwmd_batch,
    rwmd_distance,
    wmd_exact,
)
from claimdist import native, transport

from conftest import dense_rwmd, random_nbow, random_unit_table, require_library


def nbow(words, weights):
    return NBow(words=tuple(words), weights=np.asarray(weights, dtype=np.float64))


@pytest.fixture
def pair_2x2(gram_table):
    """The 2x2 instance with ground costs [[0.1, 0.2], [0.3, 0.4]]."""
    a = nbow(["a", "b"], [0.5, 0.5])
    b = nbow(["c", "d"], [0.5, 0.5])
    return a, b, gram_table


class TestGroundCost:
    def test_similarity_one_costs_zero(self):
        np.testing.assert_allclose(ground_cost(np.array([[1.0]])), [[0.0]])

    def test_similarity_zero_costs_one(self):
        np.testing.assert_allclose(ground_cost(np.array([[0.0]])), [[1.0]])

    def test_negative_similarity_clamped(self):
        np.testing.assert_allclose(ground_cost(np.array([[-0.3]])), [[1.0]])

    def test_range(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-1, 1, size=(20, 20))
        c = ground_cost(s)
        assert c.min() >= 0.0 and c.max() <= 1.0


class TestDistanceResult:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_distance_is_an_invariant_error(self, bad):
        with pytest.raises(InternalInvariantError):
            DistanceResult.from_distance(bad, "symmetric-max")


class TestRelaxedOneSided:
    """Each word ships all its mass to its cheapest counterpart."""

    def test_hand_2x2_both_directions(self, pair_2x2):
        a, b, table = pair_2x2
        (from_a,) = lc_rwmd_batch(a, [b], table, "one-sided-query")
        (from_b,) = lc_rwmd_batch(b, [a], table, "one-sided-query")
        assert from_a.distance == pytest.approx(0.2, abs=1e-9)
        assert from_b.distance == pytest.approx(0.15, abs=1e-9)
        (both,) = lc_rwmd_batch(a, [b], table, "symmetric-max")
        assert both.distance == max(from_a.distance, from_b.distance)

    def test_zero_cost_diagonal(self, ortho_table):
        a = nbow(["w0", "w1"], [0.6, 0.4])
        assert lc_rwmd_batch(a, [a], ortho_table, "one-sided-query")[0].distance == 0.0


class TestRwmdDistance:
    def test_symmetric_max_on_2x2(self, pair_2x2):
        a, b, table = pair_2x2
        res = rwmd_distance(a, b, table)
        assert res.variant == "symmetric-max"
        assert res.distance == pytest.approx(0.2, abs=1e-9)

    def test_one_sided_query_on_2x2(self, pair_2x2):
        a, b, table = pair_2x2
        res = rwmd_distance(a, b, table, "one-sided-query")
        assert res.distance == pytest.approx(0.2, abs=1e-9)
        res = rwmd_distance(b, a, table, "one-sided-query")
        assert res.distance == pytest.approx(0.15, abs=1e-9)

    def test_identity_is_zero(self, gram_table):
        d = nbow(["a", "c"], [0.7, 0.3])
        assert rwmd_distance(d, d, gram_table).distance <= 1e-12

    def test_orthogonal_vocabularies(self, ortho_table):
        a = nbow(["w0", "w1"], [0.5, 0.5])
        b = nbow(["w2", "w3"], [0.5, 0.5])
        res = rwmd_distance(a, b, ortho_table)
        assert res.distance == pytest.approx(1.0)
        assert res.similarity == pytest.approx(0.0)

    def test_unknown_variant(self, pair_2x2):
        a, b, table = pair_2x2
        with pytest.raises(ValueError):
            rwmd_distance(a, b, table, "bogus")

    def test_similarity_value(self, pair_2x2):
        a, b, table = pair_2x2
        assert rwmd_distance(a, b, table).similarity == pytest.approx(0.8, abs=1e-9)
        assert rwmd_distance(a, a, table).similarity == pytest.approx(1.0)


class TestWmdExact:
    def test_single_word_forced_plan(self, gram_table):
        a = nbow(["a"], [1.0])
        b = nbow(["d"], [1.0])  # cost 1 - 0.8 = 0.2
        res, plan = wmd_exact(a, b, gram_table)
        assert res.distance == pytest.approx(0.2, abs=1e-9)
        np.testing.assert_allclose(plan, [[1.0]], atol=1e-9)
        assert not plan.flags.writeable

    def test_2x2_all_plans_cost_quarter(self, pair_2x2):
        a, b, table = pair_2x2
        res, plan = wmd_exact(a, b, table)
        assert res.distance == pytest.approx(0.25, abs=1e-9)
        assert res.distance > rwmd_distance(a, b, table).distance
        np.testing.assert_allclose(plan.sum(axis=1), a.weights, atol=1e-7)
        np.testing.assert_allclose(plan.sum(axis=0), b.weights, atol=1e-7)

    def test_identity_diagonal_plan(self, gram_table):
        d = nbow(["a", "b"], [0.6, 0.4])
        res, plan = wmd_exact(d, d, gram_table)
        assert res.distance <= 1e-9
        np.testing.assert_allclose(plan, np.diag([0.6, 0.4]), atol=1e-7)

    def test_size_cap_refusal(self):
        rng = np.random.default_rng(0)
        table = random_unit_table(rng, 70, 4)
        words = tuple(f"w{i}" for i in range(70))
        big = NBow(words=words, weights=np.full(70, 1 / 70))
        small = nbow(["w0"], [1.0])
        with pytest.raises(OracleSizeError):
            wmd_exact(big, small, table)
        with pytest.raises(OracleSizeError):
            wmd_exact(small, big, table)


class TestLcRwmdBatch:
    def test_query_among_candidates(self, gram_table):
        q = nbow(["a", "b"], [0.5, 0.5])
        res = lc_rwmd_batch(q, [q], gram_table)
        assert res[0].distance <= 1e-12

    def test_empty_candidate_list(self, gram_table):
        q = nbow(["a"], [1.0])
        assert lc_rwmd_batch(q, [], gram_table) == []

    @pytest.mark.parametrize("variant", ["symmetric-max", "one-sided-query"])
    def test_matches_naive_on_random_docs(self, variant):
        rng = np.random.default_rng(21)
        table = random_unit_table(rng, 30, 5)
        vocab = [f"w{i}" for i in range(30)]
        q = random_nbow(rng, vocab, 6)
        cands = [random_nbow(rng, vocab, int(rng.integers(2, 9))) for _ in range(10)]
        batch = lc_rwmd_batch(q, cands, table, variant)
        for cand, got in zip(cands, batch):
            assert abs(got.distance - dense_rwmd(q, cand, table, variant)) <= 1e-9

    def test_small_block_size_equivalent(self, monkeypatch):
        rng = np.random.default_rng(22)
        table = random_unit_table(rng, 40, 4)
        vocab = [f"w{i}" for i in range(40)]
        q = random_nbow(rng, vocab, 8)
        cands = [random_nbow(rng, vocab, 10) for _ in range(6)]
        full = lc_rwmd_batch(q, cands, table)
        for rows in (1, 3):
            monkeypatch.setattr(transport, "_BLOCK_BYTES", rows * 8 * len(q))
            tiny = lc_rwmd_batch(q, cands, table)
            for x, y in zip(full, tiny):
                assert abs(x.distance - y.distance) <= 1e-12

    def test_peak_memory_holds_one_candidates_by_query_table(self):
        # A query wider than the dimension and more candidates than union
        # words make the |candidates| x |query| table the largest array.
        rng = np.random.default_rng(23)
        dim, n_query, n_union, n_cands = 8, 600, 100, 400
        table = random_unit_table(rng, n_query + n_union, dim)
        vocab = [f"w{i}" for i in range(n_query + n_union)]
        q = random_nbow(rng, vocab[:n_query], n_query)
        cands = [random_nbow(rng, vocab[n_query:], 3) for _ in range(n_cands)]
        rows = max(1, min(transport._BLOCK_ROWS, transport._BLOCK_BYTES // (8 * n_query)))
        block = 8 * min(rows, n_union) * n_query
        table_bytes = 8 * n_cands * n_query
        assert table_bytes > block
        tracemalloc.start()
        try:
            lc_rwmd_batch(q, cands, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beyond the query's normalized rows and the two block buffers, the
        # kernel may hold one such table and small arrays, not a second one.
        q_norm = 8 * n_query * dim
        assert peak < q_norm + 2 * block + 2 * table_bytes


def wide_union(rng, n_query, n_union, dim, n_cands):
    """A table, a query over its first ``n_query`` words, and candidates covering the rest once.

    The candidates split the other ``n_union`` words between them, so the
    union is table rows ``n_query`` to ``n_query + n_union - 1``.
    """
    table = random_unit_table(rng, n_query + n_union, dim)
    vocab = [f"w{i}" for i in range(n_query + n_union)]
    q = random_nbow(rng, vocab[:n_query], n_query)
    parts = np.array_split(rng.permutation(vocab[n_query:]), n_cands)
    return table, q, [random_nbow(rng, part, len(part)) for part in parts]


class TestBlockRows:
    """A short query's blocks are capped at ``_BLOCK_ROWS`` union rows, not sized by bytes alone."""

    def test_union_is_read_once_in_capped_blocks(self, monkeypatch):
        rng = np.random.default_rng(24)
        n_query, n_union = 40, 5000
        table, q, cands = wide_union(rng, n_query, n_union, 300, 50)
        reads = []

        def recording(table, indices):
            reads.append(np.array(indices))
            return normalized_rows(table, indices)

        monkeypatch.setattr(transport, "normalized_rows", recording)
        lc_rwmd_batch(q, cands, table)
        assert np.array_equal(reads[0], table.row_indices(q.words))
        union_reads = reads[1:]
        assert max(map(len, union_reads)) <= 1024
        assert np.array_equal(np.concatenate(union_reads), np.arange(n_query, n_query + n_union))

    def test_peak_memory_holds_a_few_capped_blocks_of_rows(self):
        rng = np.random.default_rng(25)
        dim, n_query, n_union, n_cands = 300, 40, 5000, 50
        table, q, cands = wide_union(rng, n_query, n_union, dim, n_cands)
        tracemalloc.start()
        try:
            lc_rwmd_batch(q, cands, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A few blocks of 1,024 normalized rows, not the whole union's 12 MB,
        # beside the |candidates| x |query| table and the pair arrays, whose
        # sort holds a few int64 arrays of n_union pairs.
        rows_bytes = 3 * 8 * 1024 * dim
        assert peak < rows_bytes + 8 * n_cands * n_query + 8 * 8 * n_union

    @pytest.mark.parametrize("variant", ["symmetric-max", "one-sided-query"])
    @pytest.mark.parametrize("with_library", [True, False])
    def test_capped_blocks_agree_with_one_uncapped_block(self, monkeypatch, variant, with_library):
        rng = np.random.default_rng(26)
        table, q, cands = wide_union(rng, 30, 2500, 50, 40)
        if with_library:
            require_library()
        else:
            monkeypatch.setattr(native, "library", lambda: None)
        capped = lc_rwmd_batch(q, cands, table, variant)
        monkeypatch.setattr(transport, "_BLOCK_ROWS", 1 << 30)
        uncapped = lc_rwmd_batch(q, cands, table, variant)
        for x, y in zip(capped, uncapped, strict=True):
            assert abs(x.distance - y.distance) <= 1e-12


def gathered_maxima(lib, positions, n_union, q, rows, rng):
    """The per-candidate maxima over random blocks of cosines: compiled, numpy and dense.

    The compiled and numpy gathers read the block slices of
    ``transport._block_pairs``; the dense one takes each candidate's rows
    of the whole table of cosines at once.
    """
    # Nine levels, so that many maxima are ties.
    sims_all = rng.integers(-4, 5, size=(n_union, q)) / 4.0
    cand, row, edges = transport._block_pairs(positions, rows, n_union)
    compiled, numpy = (np.full((len(positions), q), -np.inf) for _ in range(2))
    for block, start in enumerate(range(0, n_union, rows)):
        sims = np.ascontiguousarray(sims_all[start : start + rows])
        lo, hi = edges[block], edges[block + 1]
        lib.claimdist_gather_max(
            hi - lo, q, cand[lo:].ctypes.data, row[lo:].ctypes.data,
            sims.ctypes.data, compiled.ctypes.data,
        )
        transport._gather_max(cand[lo:hi], row[lo:hi], sims, numpy)
    dense = np.array([sims_all[pos].max(axis=0) for pos in positions])
    return compiled, numpy, dense


class TestGatherMaxOracle:
    """The compiled per-candidate max against the numpy loop it replaces."""

    # Query widths: one word (a tile narrower than 256), a full tile, and
    # wider than one tile but not a multiple of it.
    @pytest.mark.parametrize("q", [1, 7, 256, 600])
    @pytest.mark.parametrize("rows", [1, 3, 16, 1000])
    def test_same_maxima_as_numpy(self, q, rows):
        lib = require_library()
        rng = np.random.default_rng(q * 1009 + rows)
        n_union = 40
        # Candidates drawn from a small union share words; two have one word
        # and one has every union word.
        sizes = [1, 1, 40, *rng.integers(1, 12, size=9)]
        positions = [rng.choice(n_union, size=n, replace=False) for n in sizes]
        compiled, numpy, dense = gathered_maxima(lib, positions, n_union, q, rows, rng)
        assert np.array_equal(compiled, numpy)
        assert np.array_equal(compiled, dense)

    def test_block_pairs_are_sorted_by_block_candidate_and_row(self):
        positions = [np.array([5, 0, 3]), np.array([3]), np.array([4, 1, 2, 0])]
        cand, row, edges = transport._block_pairs(positions, 2, 6)
        assert edges == [0, 3, 6, 8]
        assert list(zip(cand.tolist(), row.tolist())) == [
            (0, 0), (2, 0), (2, 1),  # block 0: union words 0 and 1
            (0, 1), (1, 1), (2, 0),  # block 1: union words 2 and 3
            (0, 1), (2, 0),  # block 2: union words 4 and 5
        ]
        assert cand.dtype == row.dtype == np.int64

    @pytest.mark.parametrize("variant", ["symmetric-max", "one-sided-query"])
    @pytest.mark.parametrize("block_rows", [1, 3, None])
    @pytest.mark.parametrize("n_query", [1, 300])
    def test_batch_distances_equal_without_the_library(
        self, monkeypatch, variant, block_rows, n_query
    ):
        require_library()
        rng = np.random.default_rng(n_query + (block_rows or 0))
        table = random_unit_table(rng, 400, 6)
        vocab = [f"w{i}" for i in range(400)]
        q = random_nbow(rng, vocab, n_query)
        shared = vocab[:30]  # candidates drawn from 30 words share many of them
        cands = [random_nbow(rng, shared, int(n)) for n in rng.integers(1, 20, size=12)]
        cands += [random_nbow(rng, vocab, 1), random_nbow(rng, vocab, 50)]
        if block_rows is not None:
            monkeypatch.setattr(transport, "_BLOCK_BYTES", block_rows * 8 * n_query)
        compiled = lc_rwmd_batch(q, cands, table, variant)
        pairs = [rwmd_distance(q, cand, table, variant) for cand in cands[-3:]]
        monkeypatch.setattr(native, "library", lambda: None)
        assert lc_rwmd_batch(q, cands, table, variant) == compiled
        assert [rwmd_distance(q, cand, table, variant) for cand in cands[-3:]] == pairs


class TestRankAgainstQuery:
    """Ranking candidates by kernel similarity."""

    @staticmethod
    def rank(query, candidates, table):
        scores = lc_rwmd_batch(query, [doc for _, doc in candidates], table)
        ranked = [(i, r.similarity) for (i, _), r in zip(candidates, scores)]
        return sorted(ranked, key=lambda x: (-x[1], x[0]))

    def test_verbatim_copy_ranks_first(self, gram_table):
        q = nbow(["a", "b"], [0.5, 0.5])
        other = nbow(["c", "d"], [0.5, 0.5])
        ranked = self.rank(q, [("far", other), ("copy", q)], gram_table)
        assert ranked[0] == ("copy", pytest.approx(1.0))
        assert ranked[1][1] < ranked[0][1]

    def test_empty_candidates(self, gram_table):
        q = nbow(["a"], [1.0])
        assert self.rank(q, [], gram_table) == []


class TestExactSolverAgainstLpOracle:
    """The in-repo min-cost-flow solver must agree with an independent LP."""

    @staticmethod
    def lp_objective(wa, wb, cost):
        from scipy.optimize import linprog

        n, m = cost.shape
        a_eq = np.zeros((n + m, n * m))
        for i in range(n):
            a_eq[i, i * m : (i + 1) * m] = 1.0
        for j in range(m):
            a_eq[n + j, j::m] = 1.0
        res = linprog(
            cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([wa, wb]), method="highs"
        )
        assert res.success
        return float(res.fun)

    def test_fuzzed_agreement(self):
        from claimdist.transport import _min_cost_transport

        rng = np.random.default_rng(77)
        for k in range(300):
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            cost = rng.random((n, m))
            if k % 4 == 0:
                cost = np.round(cost, 1)  # ties and zeros stress degeneracy
            wa = rng.random(n) + 1e-3
            wa /= wa.sum()
            wb = rng.random(m) + 1e-3
            wb /= wb.sum()
            obj, plan = _min_cost_transport(wa, wb, cost)
            assert abs(obj - self.lp_objective(wa, wb, cost)) <= 1e-9
            assert plan.min() >= -1e-12

    def test_equal_weight_degenerate_instances(self):
        from claimdist.transport import _min_cost_transport

        rng = np.random.default_rng(78)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            cost = np.round(rng.random((n, n)), 1)
            w = np.full(n, 1.0 / n)
            obj, _ = _min_cost_transport(w, w, cost)
            assert abs(obj - self.lp_objective(w, w, cost)) <= 1e-9


class TestTransportProperties:
    """Fuzzed invariants; the relaxation bound is the central one."""

    def test_relaxation_bound_and_plan_validity(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            n_vocab = int(rng.integers(4, 21))
            table = random_unit_table(rng, n_vocab, 8)
            vocab = [f"w{i}" for i in range(n_vocab)]
            a = random_nbow(rng, vocab, int(rng.integers(2, min(11, n_vocab + 1))))
            b = random_nbow(rng, vocab, int(rng.integers(2, min(11, n_vocab + 1))))
            relaxed = rwmd_distance(a, b, table)
            exact, plan = wmd_exact(a, b, table)
            assert relaxed.distance <= exact.distance + 1e-9
            np.testing.assert_allclose(plan.sum(axis=1), a.weights, atol=1e-7)
            np.testing.assert_allclose(plan.sum(axis=0), b.weights, atol=1e-7)

    def test_one_sided_dominance_symmetry_identity_range(self):
        rng = np.random.default_rng(43)
        table = random_unit_table(rng, 25, 6)
        vocab = [f"w{i}" for i in range(25)]
        for _ in range(200):
            a = random_nbow(rng, vocab, int(rng.integers(1, 9)))
            b = random_nbow(rng, vocab, int(rng.integers(1, 9)))
            sym = rwmd_distance(a, b, table)
            one_ab = rwmd_distance(a, b, table, "one-sided-query")
            one_ba = rwmd_distance(b, a, table, "one-sided-query")
            assert one_ab.distance <= sym.distance
            assert one_ba.distance <= sym.distance
            assert sym.distance == rwmd_distance(b, a, table).distance
            assert 0.0 <= sym.distance <= 1.0
            assert abs(sym.distance + sym.similarity - 1.0) <= 1e-12
            assert rwmd_distance(a, a, table).distance <= 1e-12
