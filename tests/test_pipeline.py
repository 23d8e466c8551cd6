import json

import pytest

from claimdist import (
    ConfigError,
    DataError,
    EmptyDocumentError,
    SelectorConfig,
    bench_scaling,
    default_stopwords,
    emit_report,
    load_corpus,
    load_manifest,
    median_iqr,
    run_experiment,
)
from claimdist.pipeline import select_claims

from conftest import lcg_token_lists, write_corpus


def rewrite_manifest(path, mutate):
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    return path


class TestLoadManifest:
    def test_valid_manifest(self, corpus_manifest):
        m = load_manifest(corpus_manifest)
        assert m.query_id == "q"
        assert len(m.documents) == 10
        assert m.variant == "symmetric-max"
        assert m.seed == 3

    def test_duplicate_id_in_group_errors(self, corpus_manifest):
        def mutate(doc):
            doc["documents"].append(dict(doc["documents"][0]))

        rewrite_manifest(corpus_manifest, mutate)
        with pytest.raises(ConfigError, match="duplicate"):
            load_manifest(corpus_manifest)

    def test_same_id_across_groups_is_fine(self, corpus_manifest):
        m = load_manifest(corpus_manifest)
        ids = [(d.group, d.id) for d in m.documents]
        assert ("alpha", "1") in ids and ("beta", "1") in ids

    def test_missing_file_errors(self, corpus_manifest):
        rewrite_manifest(
            corpus_manifest, lambda d: d["documents"][0].update(path="docs/nope.txt")
        )
        with pytest.raises(ConfigError, match="not found"):
            load_manifest(corpus_manifest)

    def test_empty_group_label_errors(self, corpus_manifest):
        rewrite_manifest(corpus_manifest, lambda d: d["documents"][0].update(group=" "))
        with pytest.raises(ConfigError, match="empty group"):
            load_manifest(corpus_manifest)

    def test_unknown_key_errors(self, corpus_manifest):
        rewrite_manifest(corpus_manifest, lambda d: d.update(extra=1))
        with pytest.raises(ConfigError, match="unknown key"):
            load_manifest(corpus_manifest)

    def test_bad_variant_errors(self, corpus_manifest):
        rewrite_manifest(
            corpus_manifest, lambda d: d["options"].update(variant="bogus")
        )
        with pytest.raises(ConfigError, match="variant"):
            load_manifest(corpus_manifest)

    def test_single_group_single_doc_is_valid(self, tmp_path):
        path = write_corpus(tmp_path, groups=("solo",), docs_per_group=1)
        m = load_manifest(path)
        assert len(m.documents) == 1


class TestLoadCorpus:
    def test_counts_and_groups(self, corpus_manifest):
        corpus = load_corpus(load_manifest(corpus_manifest))
        assert list(corpus.groups) == ["alpha", "beta"]
        assert sum(len(v) for v in corpus.groups.values()) == 10
        assert corpus.query.id == "q"
        assert corpus.query.tokens

    def test_tokens_are_preprocessed(self, corpus_manifest):
        corpus = load_corpus(load_manifest(corpus_manifest))
        for docs in corpus.groups.values():
            for doc in docs:
                assert all(t == t.lower() and t for t in doc.tokens)


class TestRunExperiment:
    def test_full_report_shape(self, corpus_manifest):
        report = run_experiment(load_manifest(corpus_manifest))
        assert report.group_order == ("alpha", "beta")
        assert all(len(report.rankings[g]) == 5 for g in report.group_order)
        assert report.omnibus is not None
        assert len(report.pairwise) == 1
        assert report.pairwise[0].groups == ("alpha", "beta")
        for g in report.group_order:
            sims = [d.similarity for d in report.rankings[g]]
            assert sims == sorted(sims, reverse=True)
            assert all(0.0 <= s <= 1.0 for s in sims)

    def test_partition_scored_plus_skipped(self, tmp_path):
        path = write_corpus(tmp_path)

        def mutate(doc):
            oov = tmp_path / "docs" / "oov.txt"
            oov.write_text("zzzz qqqq xxxx")
            doc["documents"].append({"id": "oov", "group": "alpha", "path": "docs/oov.txt"})

        rewrite_manifest(path, mutate)
        report = run_experiment(load_manifest(path))
        scored = sum(len(report.rankings[g]) for g in report.group_order)
        assert scored + len(report.skipped) == 11
        assert report.skipped[0].id == "oov"
        assert report.skipped[0].group == "alpha"

    def test_group_emptied_by_oov_errors(self, tmp_path):
        path = write_corpus(tmp_path)

        def mutate(doc):
            oov = tmp_path / "docs" / "oov.txt"
            oov.write_text("zzzz qqqq")
            doc["documents"].append({"id": "x", "group": "gamma", "path": "docs/oov.txt"})

        rewrite_manifest(path, mutate)
        with pytest.raises(DataError, match="gamma"):
            run_experiment(load_manifest(path))

    def test_oov_query_is_fatal(self, tmp_path):
        path = write_corpus(tmp_path)
        (tmp_path / "docs" / "query.txt").write_text("zzzz qqqq")
        with pytest.raises(EmptyDocumentError, match="query"):
            run_experiment(load_manifest(path))

    def test_single_group_omits_tests_with_note(self, tmp_path):
        path = write_corpus(tmp_path, groups=("solo",), docs_per_group=3)
        report = run_experiment(load_manifest(path))
        assert report.omnibus is None
        assert report.pairwise == ()
        assert "single group" in report.note

    def test_determinism_byte_identical_json(self, corpus_manifest):
        m = load_manifest(corpus_manifest)
        first = emit_report(run_experiment(m), "json")
        second = emit_report(run_experiment(m), "json")
        assert first == second

    def test_provenance_completeness(self, corpus_manifest):
        report = run_experiment(load_manifest(corpus_manifest))
        p = report.provenance
        for key in (
            "embedding_sha256",
            "stopword_sha256",
            "rwmd_variant",
            "seed",
            "tool_version",
            "embedding_dimension",
            "quantile_convention",
        ):
            assert p[key] not in (None, "")

    def test_selector_settings_recorded(self, tmp_path):
        path = write_corpus(
            tmp_path,
            manifest_extra={
                "query": {
                    "id": "q",
                    "path": "docs/query.txt",
                    "selector": {"method": "ma", "window": 3, "top_k": 2},
                }
            },
        )
        report = run_experiment(load_manifest(path))
        assert report.provenance["selector"] == {"method": "ma", "top_k": 2, "window": 3}

    def test_lda_selector_runs_and_is_deterministic(self, tmp_path):
        # seed the query with cue words so the claim topic is anchorable
        path = write_corpus(tmp_path)
        query = tmp_path / "docs" / "query.txt"
        query.write_text(
            "We propose a novel index. It uses word4 word5 word6. "
            "Background word7 word8 word9. More word10 word11 word12."
        )

        def mutate(doc):
            doc["query"]["selector"] = {
                "method": "lda",
                "top_k": 2,
                "n_topics": 2,
                "iterations": 50,
            }

        rewrite_manifest(path, mutate)
        m = load_manifest(path)
        r1 = emit_report(run_experiment(m), "json")
        r2 = emit_report(run_experiment(m), "json")
        assert r1 == r2


class TestSelectClaims:
    def test_golden_lda_selection(self):
        # 60 sentences, every fifth led by a cue word; pins the seeded
        # 50-sweep chain end to end through split, fit and selection.
        cues = ("propose", "novel", "index", "new")
        text = " ".join(
            "We " + " ".join(([cues[i // 5 % 4]] if i % 5 == 0 else []) + toks) + "."
            for i, toks in enumerate(lcg_token_lists(60, 80, seed=31))
        )
        cfg = SelectorConfig(method="lda", iterations=50)
        selected = select_claims(text, cfg, default_stopwords(), None, 5)
        expected = [
            (15, 1.0), (48, 1.0), (35, 8 / 9), (51, 0.875), (30, 0.75),
            (2, 0.6), (10, 0.6), (14, 0.5), (38, 0.5), (59, 0.5),
        ]
        assert [s.index for s in selected] == [i for i, _ in expected]
        assert [s.score for s in selected] == pytest.approx(
            [score for _, score in expected], abs=1e-12
        )


class TestEmitReport:
    def test_text_layout(self, corpus_manifest):
        report = run_experiment(load_manifest(corpus_manifest))
        text = emit_report(report, "text").decode()
        assert "Doc ID - Distance" in text
        assert "Median" in text and "[IQR]" in text
        assert "Kruskal-Wallis test:" in text
        assert "Wilcoxon rank sum exact test" in text
        assert "Skipped" not in text  # empty skip list -> no section
        med = report.summaries["alpha"].median
        assert f"{med:.4f}" in text

    def test_text_median_matches_recomputation(self, corpus_manifest):
        report = run_experiment(load_manifest(corpus_manifest))
        for g in report.group_order:
            sims = [d.similarity for d in report.rankings[g]]
            assert report.summaries[g].median == median_iqr(sims).median

    def test_csv_format(self, corpus_manifest):
        report = run_experiment(load_manifest(corpus_manifest))
        data = emit_report(report, "csv").decode()
        lines = data.split("\n")
        assert lines[0] == "group,doc_id,similarity"
        assert len(lines) == 1 + 10 + 1  # header + rows + trailing newline
        assert "\r" not in data
        value = lines[1].split(",")[2]
        assert len(value.split(".")[1]) == 6

    def test_json_roundtrip_byte_identical(self, corpus_manifest):
        report = run_experiment(load_manifest(corpus_manifest))
        blob = emit_report(report, "json")
        reparsed = json.loads(blob)
        again = (
            json.dumps(reparsed, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        ).encode()
        assert blob == again

    def test_json_median_matches_documents(self, corpus_manifest):
        report = run_experiment(load_manifest(corpus_manifest))
        doc = json.loads(emit_report(report, "json"))
        for g, payload in doc["groups"].items():
            sims = [d["similarity"] for d in payload["documents"]]
            assert payload["summary"]["median"] == median_iqr(sims).median

    def test_unknown_format_errors(self, corpus_manifest):
        report = run_experiment(load_manifest(corpus_manifest))
        with pytest.raises(ConfigError):
            emit_report(report, "xml")

    def test_skip_section_present_when_nonempty(self, tmp_path):
        path = write_corpus(tmp_path)

        def mutate(doc):
            oov = tmp_path / "docs" / "oov.txt"
            oov.write_text("zzzz")
            doc["documents"].append({"id": "sk", "group": "beta", "path": "docs/oov.txt"})

        rewrite_manifest(path, mutate)
        text = emit_report(run_experiment(load_manifest(path)), "text").decode()
        assert "Skipped documents:" in text
        assert "beta/sk" in text


class TestProtocolSeparation:
    """Three synthetic groups at graded distances from the query must
    reproduce the protocol's signature: ordered medians and significant
    omnibus plus pairwise tests."""

    @staticmethod
    def build(tmp_path):
        import numpy as np

        rng = np.random.default_rng(17)
        n_per_cluster = 60
        base_a, base_b = np.zeros(8), np.zeros(8)
        base_a[0] = 1.0
        base_b[1] = 1.0
        lines = []
        words_a, words_b = [], []
        for i in range(n_per_cluster):
            v = base_a + 0.25 * rng.normal(size=8)
            words_a.append(f"a{i}")
            lines.append(f"a{i} " + " ".join(f"{x:.6f}" for x in v))
        for i in range(n_per_cluster):
            v = base_b + 0.25 * rng.normal(size=8)
            words_b.append(f"b{i}")
            lines.append(f"b{i} " + " ".join(f"{x:.6f}" for x in v))
        (tmp_path / "emb.txt").write_text("\n".join(lines) + "\n")
        (tmp_path / "docs").mkdir()

        def doc(path, share_a):
            n_tokens = 30
            n_a = int(round(share_a * n_tokens))
            toks = list(rng.choice(words_a, size=n_a)) + list(
                rng.choice(words_b, size=n_tokens - n_a)
            )
            rng.shuffle(toks)
            path.write_text(" ".join(toks))

        doc(tmp_path / "docs" / "query.txt", 1.0)
        documents = []
        for group, share in (("near", 0.9), ("mid", 0.5), ("far", 0.1)):
            for i in range(1, 33):
                rel = f"docs/{group}{i}.txt"
                doc(tmp_path / rel, share)
                documents.append({"id": str(i), "group": group, "path": rel})
        manifest = {
            "query": {"id": "q", "path": "docs/query.txt"},
            "documents": documents,
            "embedding": {"path": "emb.txt"},
            "options": {"seed": 5},
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        return path

    def test_ordering_and_significance(self, tmp_path):
        report = run_experiment(load_manifest(self.build(tmp_path)))
        med = {g: report.summaries[g].median for g in report.group_order}
        assert med["near"] > med["mid"] > med["far"]
        assert report.omnibus.p_value < 0.001
        assert len(report.pairwise) == 3
        for test in report.pairwise:
            assert test.p_value < 0.001
            assert test.stars == "**"


class TestBenchScaling:
    def test_csv_contract(self):
        out = bench_scaling([4, 8], pairs_per_size=3, seed=0).decode()
        lines = out.strip().split("\n")
        assert lines[0] == "size,median_wmd_seconds,median_rwmd_seconds"
        assert len(lines) == 1 + 2 + 1  # header + sizes + slope row
        assert lines[-1].startswith("slope,")
        for line in lines[1:-1]:
            size, tw, tr = line.split(",")
            assert float(tw) >= 0.0 and float(tr) >= 0.0

    def test_timings_monotone_across_wide_sizes(self):
        # adjacent sizes sit inside timer noise for the relaxed path, so
        # monotonicity is asserted across a wide size gap
        out = bench_scaling([4, 64], pairs_per_size=3, seed=1).decode()
        rows = [line.split(",") for line in out.strip().split("\n")[1:-1]]
        wmd = [float(r[1]) for r in rows]
        rwmd = [float(r[2]) for r in rows]
        assert wmd == sorted(wmd)
        assert rwmd == sorted(rwmd)

    def test_validation(self):
        with pytest.raises(ConfigError):
            bench_scaling([], 3, 0)
        with pytest.raises(ConfigError):
            bench_scaling([4], 2, 0)
        with pytest.raises(ConfigError):
            bench_scaling([100], 3, 0)
