"""Acceptance suite: one test per release criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. Criteria 5 and 6 need the reproduction dataset (see
README, "Reproducing the case study"); they skip with instructions when
it is absent.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from claimdist import (
    bench_scaling,
    chi_square_sf,
    emit_report,
    fit_lda,
    ground_cost,
    kruskal_wallis,
    lc_rwmd_batch,
    lda_select,
    load_manifest,
    run_experiment,
    rwmd_distance,
    similarity_matrix,
    wilcoxon_rank_sum_exact,
    wmd_exact,
)
from claimdist.claimselect import SentenceRecord

from conftest import dense_rwmd, random_nbow, random_unit_table, write_corpus
from test_stats import enumerate_wilcoxon_p


@contextmanager
def criterion(num, name):
    try:
        yield
    except pytest.skip.Exception:
        print(f"\nACCEPTANCE {num} [{name}]: SKIP")
        raise
    except BaseException:
        print(f"\nACCEPTANCE {num} [{name}]: FAIL")
        raise
    else:
        print(f"\nACCEPTANCE {num} [{name}]: PASS")


def reproduction_manifest() -> Path:
    root = os.environ.get("CLAIMDIST_DATA_DIR")
    base = Path(root) if root else Path(__file__).resolve().parents[1] / "data" / "reproduction"
    manifest = base / "manifest.json"
    if not manifest.is_file():
        pytest.skip(
            f"reproduction dataset not present ({manifest}); fetch the published "
            "corpus texts and a pretrained GloVe file, then build the manifest "
            "with scripts/make_zenodo_manifest.py (see README)"
        )
    return manifest


_reproduction_cache: dict = {}


def reproduction_report():
    """Run the reproduction experiment once per session (it is expensive)."""
    if "report" not in _reproduction_cache:
        manifest = load_manifest(reproduction_manifest())
        t0 = time.perf_counter()
        report = run_experiment(manifest)
        _reproduction_cache["report"] = (report, time.perf_counter() - t0)
    return _reproduction_cache["report"]


def test_criterion_1_relaxation_bound():
    with criterion(1, "relaxation bound vs exact transport"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for _ in range(1000):
            na, nb = int(rng.integers(2, 11)), int(rng.integers(2, 11))
            table = random_unit_table(rng, na + nb, 8)
            vocab = [f"w{i}" for i in range(na + nb)]
            a = random_nbow(rng, vocab[:na], na)
            b = random_nbow(rng, vocab[na:], nb)
            relaxed = rwmd_distance(a, b, table, "symmetric-max")
            exact, plan = wmd_exact(a, b, table)
            assert relaxed.distance <= exact.distance + 1e-9
            cost = ground_cost(similarity_matrix(table, a.words, b.words))
            assert abs(float((plan.matrix * cost).sum()) - exact.distance) <= 1e-9
            assert np.abs(plan.row_sums() - a.weights).max() <= 1e-7
            assert np.abs(plan.col_sums() - b.weights).max() <= 1e-7
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"relaxation suite took {elapsed:.1f}s"


def test_criterion_2_batch_kernel_equivalence():
    with criterion(2, "batched kernel equals per-pair distances"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n_vocab = int(rng.integers(6, 30))
            dim = int(rng.integers(3, 12))
            table = random_unit_table(rng, n_vocab, dim)
            vocab = [f"w{i}" for i in range(n_vocab)]
            variant = ("symmetric-max", "one-sided-query")[int(rng.integers(0, 2))]
            query = random_nbow(rng, vocab, int(rng.integers(1, min(9, n_vocab + 1))))
            cands = [
                random_nbow(rng, vocab, int(rng.integers(1, min(9, n_vocab + 1))))
                for _ in range(int(rng.integers(1, 8)))
            ]
            batch = lc_rwmd_batch(query, cands, table, variant)
            for cand, got in zip(cands, batch):
                ref = dense_rwmd(query, cand, table, variant)
                assert abs(got.distance - ref) <= 1e-9


def test_criterion_3_metric_sanity():
    with criterion(3, "identity, symmetry, range, similarity complement"):
        rng = np.random.default_rng(303)
        table = random_unit_table(rng, 40, 7)
        vocab = [f"w{i}" for i in range(40)]
        for _ in range(1000):
            a = random_nbow(rng, vocab, int(rng.integers(1, 12)))
            b = random_nbow(rng, vocab, int(rng.integers(1, 12)))
            ab = rwmd_distance(a, b, table, "symmetric-max")
            ba = rwmd_distance(b, a, table, "symmetric-max")
            assert ab.distance == ba.distance
            assert 0.0 <= ab.distance <= 1.0
            assert 0.0 <= ab.similarity <= 1.0
            assert abs(ab.distance + ab.similarity - 1.0) <= 1e-12
            assert rwmd_distance(a, a, table).distance <= 1e-12


def test_criterion_4_statistics_oracles():
    with criterion(4, "rank-test oracles"):
        rng = np.random.default_rng(404)
        checked = 0
        while checked < 200:
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            values = rng.normal(size=n + m)
            if np.unique(values).size < values.size:
                continue
            x, y = list(values[:n]), list(values[n:])
            res = wilcoxon_rank_sum_exact(x, y)
            assert res.method == "exact"
            assert abs(res.p_value - enumerate_wilcoxon_p(x, y)) <= 1e-12
            checked += 1

        kw = kruskal_wallis({"a": [1, 2], "b": [3, 4], "c": [5, 6]})
        assert abs(kw.statistic - 4.5714) <= 1e-4
        assert abs(kw.p_value - 0.1017) <= 1e-4

        for x in np.arange(0.0, 50.5, 0.5):
            assert abs(chi_square_sf(float(x), 2) - math.exp(-x / 2)) <= 1e-10


def test_criterion_5_paper_reproduction_hard():
    with criterion(5, "reproduction: ordering and significance"):
        report, elapsed = reproduction_report()
        assert set(report.group_order) == {"h-index", "scientometrics", "random"}
        med = {g: report.summaries[g].median for g in report.group_order}
        assert med["h-index"] > med["scientometrics"] > med["random"], med
        assert report.omnibus.p_value < 0.001, report.omnibus
        for test in report.pairwise:
            assert test.p_value < 0.001, test
        assert elapsed < 120.0, f"reproduction run took {elapsed:.1f}s"


def test_criterion_6_paper_reproduction_soft():
    with criterion(6, "reproduction: published medians and top document"):
        report, _ = reproduction_report()
        print("provenance:", json.dumps(report.provenance, indent=2, sort_keys=True))
        expected = {"h-index": 0.5763, "scientometrics": 0.4331, "random": 0.3466}
        for group, target in expected.items():
            got = report.summaries[group].median
            assert abs(got - target) <= 0.05, (
                f"{group} median {got:.4f} vs published {target:.4f}; "
                "see printed provenance for the configuration used"
            )
        top = report.rankings["h-index"][0]
        assert top.id == "7", f"top h-index doc is {top.id}, expected 7"
        assert abs(top.similarity - 0.7636) <= 0.05, top


def test_criterion_7_scaling_benchmark():
    with criterion(7, "exact-vs-relaxed runtime scaling"):
        t0 = time.perf_counter()
        out = bench_scaling([8, 16, 32, 64], pairs_per_size=5, seed=42).decode()
        elapsed = time.perf_counter() - t0
        lines = out.strip().split("\n")
        slope_row = lines[-1].split(",")
        assert slope_row[0] == "slope"
        slope_wmd, slope_rwmd = float(slope_row[1]), float(slope_row[2])
        assert slope_wmd - slope_rwmd >= 1.0, (
            f"slope gap {slope_wmd - slope_rwmd:.3f} (wmd {slope_wmd:.3f}, "
            f"rwmd {slope_rwmd:.3f})\n{out}"
        )
        assert elapsed < 300.0, f"benchmark took {elapsed:.1f}s"


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical reports and seeded model fits"):
        manifest_path = write_corpus(tmp_path)
        manifest = load_manifest(manifest_path)
        first = emit_report(run_experiment(manifest), "json")
        second = emit_report(run_experiment(manifest), "json")
        assert first == second

        rng = np.random.default_rng(805)
        vocab = ["novel", "index", "alpha", "beta", "gamma", "delta"]
        sentences = [
            SentenceRecord(
                index=i,
                text="",
                tokens=tuple(rng.choice(vocab, size=int(rng.integers(2, 6)))),
            )
            for i in range(10)
        ]
        m1 = fit_lda(sentences, n_topics=3, iterations=60, seed=99)
        m2 = fit_lda(sentences, n_topics=3, iterations=60, seed=99)
        np.testing.assert_array_equal(m1.word_topic, m2.word_topic)
        np.testing.assert_array_equal(m1.sentence_topic, m2.sentence_topic)
        s1 = lda_select(m1, sentences, top_k=3)
        s2 = lda_select(m2, sentences, top_k=3)
        assert [(s.index, s.score) for s in s1] == [(s.index, s.score) for s in s2]
