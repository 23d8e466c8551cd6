import json
import os
import platform
import subprocess
import sys
import unicodedata
from pathlib import Path

import numpy as np
import pytest

from claimdist import native, pipeline
from claimdist.cli import main
from claimdist.textprep import NBow

from conftest import dense_rwmd, make_table, write_corpus
from test_textprep import reference_tokens


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestRunCommand:
    def test_text_output(self, corpus_manifest, capsys):
        rc, out, _ = run_cli(capsys, "run", str(corpus_manifest))
        assert rc == 0
        assert "Doc ID - Distance" in out

    def test_json_output(self, corpus_manifest, capsys):
        rc, out, _ = run_cli(capsys, "run", str(corpus_manifest), "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == {"group_order", "groups", "significance", "skipped", "provenance"}

    def test_out_file(self, corpus_manifest, tmp_path, capsys):
        target = tmp_path / "report.csv"
        rc, out, _ = run_cli(
            capsys, "run", str(corpus_manifest), "--format", "csv", "--out", str(target)
        )
        assert rc == 0
        assert target.read_text().startswith("group,doc_id,similarity")

    def test_missing_manifest_exit_1(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "run", str(tmp_path / "nope.json"))
        assert rc == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"query": {"selector": {"method": "ma", "top_k": "ten"}}}, "query.selector.top_k"),
            ({"options": None}, "options must be an object"),
            ({"documents": ["oops"]}, "documents[0] must be an object"),
            ({"query": {"selector": {"method": "ma", "top_k": 0}}}, "selector top_k"),
            ({"query": {"selector": {"method": "ma", "window": 2}}}, "selector window"),
            ({"query": {"selector": {"method": "lda", "n_topics": 0}}}, "selector n_topics"),
            ({"query": {"selector": {"method": "lda", "iterations": 0}}}, "selector iterations"),
            ({"query": {"selector": {"method": "lda", "alpha": -1}}}, "selector alpha"),
            (
                {"query": {"selector": {"method": "lda", "cue_words": []}}},
                "selector cue_words must be a nonempty list",
            ),
            (
                {"query": {"selector": {"method": "lda", "cue_words": ["state-of-the-art"]}}},
                "selector cue_words must be one word each, got 'state-of-the-art'",
            ),
            (
                {"query": {"selector": {}}},
                "manifest query.selector is missing required key 'method'",
            ),
            (
                {"query": {"selector": {"method": "xyz"}}},
                "selector method must be 'lda' or 'ma', got 'xyz'",
            ),
            ({"embedding": {"expected_dim": 0}}, "embedding.expected_dim must be a positive"),
            ({"documents": []}, "manifest 'documents' must be a nonempty list"),
        ],
        ids=[
            "top_k", "options", "documents",
            "top_k=0", "window=2", "n_topics=0", "iterations=0", "alpha=-1",
            "cue_words=[]", "cue_words=[state-of-the-art]", "empty-selector", "method=xyz",
            "expected_dim=0", "no-documents",
        ],
    )
    def test_mistyped_manifest_exit_1(self, tmp_path, capsys, extra, message):
        path = write_corpus(tmp_path, manifest_extra=extra)
        rc, _, err = run_cli(capsys, "run", str(path))
        assert rc == 1
        assert message in err

    @pytest.mark.parametrize(
        "text, message",
        [("{oops", "is not valid JSON"), ("[]", "manifest top level must be a JSON object")],
        ids=["not-json", "list"],
    )
    def test_manifest_not_a_json_object_exit_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        rc, out, err = run_cli(capsys, "run", str(path))
        assert (rc, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize(
        "cues, provenance",
        [
            (["word7", "word4"], ["word4", "word7"]),
            (["Propose", "propose", " novel"], ["novel", "propose"]),
        ],
        ids=["sorted", "as-tokens"],
    )
    def test_cue_words_reach_the_provenance_sorted(self, tmp_path, capsys, cues, provenance):
        path = write_corpus(tmp_path)
        (tmp_path / "docs" / "query.txt").write_text(
            "Word1 word2 word3. Word4 novel word6. Word7 propose word9."
        )
        selector = {"method": "lda", "iterations": 2, "top_k": 1, "cue_words": cues}
        spec = json.loads(path.read_text())
        spec["query"]["selector"] = selector
        path.write_text(json.dumps(spec))
        rc, out, _ = run_cli(capsys, "run", str(path), "--format", "json")
        assert rc == 0
        assert json.loads(out)["provenance"]["selector"]["cue_words"] == provenance

    def test_group_with_no_embeddable_document_exit_2_names_it(self, tmp_path, capsys):
        # the only group, so no candidate reaches the kernel
        path = write_corpus(tmp_path, groups=("solo",), docs_per_group=2)
        for i in (1, 2):
            (tmp_path / "docs" / f"solo{i}.txt").write_text("zzzz qqqq")
        rc, out, err = run_cli(capsys, "run", str(path))
        assert (rc, out) == (2, "")
        assert "group 'solo' has no scoreable documents" in err
        assert "Traceback" not in err

    def test_data_error_exit_2(self, tmp_path, capsys):
        path = write_corpus(tmp_path)
        (tmp_path / "docs" / "query.txt").write_text("zzzz qqqq")
        rc, _, err = run_cli(capsys, "run", str(path))
        assert rc == 2
        assert "data error" in err

    def test_usage_error_exit_1(self, capsys):
        rc, _, _ = run_cli(capsys, "run")
        assert rc == 1

    def test_unknown_subcommand_exit_1(self, capsys):
        rc, _, _ = run_cli(capsys, "frobnicate")
        assert rc == 1


# Typeset text: curly quotes, dashes, accented names in NFC and NFD, soft
# hyphens from a PDF, and one Devanagari document.
NON_ASCII_CORPUS = {
    ("query", "q"): "“Naïve” models—Müller’s co\u00adoperate claims of novelty.",
    ("alpha", "1"): "Müller’s café study – a co\u00adoperate model…",
    ("alpha", "2"): unicodedata.normalize("NFD", "Naïve “redundancy”; Ångström’s claims."),
    ("alpha", "3"): "हिन्दी भाषा — novelty, “हिन्दी” claims",
    ("beta", "1"): "Ångström’s hype—hype—and re\u00addun\u00addancy.",
    ("beta", "2"): "Café models « novelty » co-operate",
}
NON_ASCII_WORDS = [
    "naïve", "models", "müller", "cooperate", "claims", "novelty", "café", "study",
    "model", "redundancy", "ångström", "हिन्दी", "भाषा", "hype", "operate",
]


def test_non_ascii_corpus_scores_as_the_reference(tmp_path, capsys):
    """Every candidate's similarity equals a dense RWMD over reference-token bags."""
    rng = np.random.default_rng(30)
    matrix = rng.normal(size=(len(NON_ASCII_WORDS), 5))
    rows = zip(NON_ASCII_WORDS, matrix.tolist())
    (tmp_path / "emb.txt").write_text(
        "".join(f"{w} {' '.join(map(repr, row))}\n" for w, row in rows), encoding="utf-8"
    )
    paths = {}
    for (group, doc_id), text in NON_ASCII_CORPUS.items():
        paths[group, doc_id] = f"{group}{doc_id}.txt"
        (tmp_path / paths[group, doc_id]).write_text(text, encoding="utf-8")
    manifest = {
        "query": {"id": "q", "path": paths["query", "q"]},
        "documents": [
            {"id": doc_id, "group": group, "path": path}
            for (group, doc_id), path in paths.items()
            if group != "query"
        ],
        "embedding": {"path": "emb.txt"},
        "options": {"variant": "symmetric-max", "seed": 3},
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    rc, out, err = run_cli(capsys, "run", str(tmp_path / "manifest.json"), "--format", "json")
    assert (rc, err) == (0, "")
    report = json.loads(out)
    assert report["skipped"] == []

    table = make_table(NON_ASCII_WORDS, matrix)

    def bag(text):
        tokens = [t for t in reference_tokens(text) if t in table.vocabulary]
        words = tuple(dict.fromkeys(tokens))
        return NBow(words, np.array([tokens.count(w) / len(tokens) for w in words]))

    query = bag(NON_ASCII_CORPUS["query", "q"])
    assert "cooperate" in query.words
    scored = {
        (group, d["id"]): d["similarity"]
        for group, g in report["groups"].items()
        for d in g["documents"]
    }
    assert set(scored) == {key for key in NON_ASCII_CORPUS if key[0] != "query"}
    for key, similarity in scored.items():
        expected = 1.0 - dense_rwmd(query, bag(NON_ASCII_CORPUS[key]), table)
        assert abs(similarity - expected) <= 1e-12, key


class TestRankCommand:
    def test_rank_text_has_no_significance(self, corpus_manifest, capsys):
        rc, out, _ = run_cli(capsys, "rank", str(corpus_manifest))
        assert rc == 0
        assert "Doc ID - Distance" in out
        assert "Kruskal-Wallis" not in out


class TestDistCommand:
    def test_dist_json(self, tmp_path, capsys):
        write_corpus(tmp_path)
        rc, out, _ = run_cli(
            capsys,
            "dist",
            str(tmp_path / "docs" / "alpha1.txt"),
            str(tmp_path / "docs" / "alpha2.txt"),
            "--embeddings",
            str(tmp_path / "emb.txt"),
        )
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == {"distance", "similarity", "variant"}
        assert abs(doc["distance"] + doc["similarity"] - 1.0) <= 1e-12
        assert doc["variant"] == "symmetric-max"

    def test_dist_self_is_one(self, tmp_path, capsys):
        write_corpus(tmp_path)
        doc_path = str(tmp_path / "docs" / "alpha1.txt")
        rc, out, _ = run_cli(
            capsys, "dist", doc_path, doc_path, "--embeddings", str(tmp_path / "emb.txt")
        )
        assert rc == 0
        assert json.loads(out)["similarity"] == pytest.approx(1.0, abs=1e-12)

    def test_decomposed_text_scores_as_composed(self, tmp_path, capsys):
        (tmp_path / "emb.txt").write_text("café 1 0\nnaïve 0 1\nthé 1 1\n", encoding="utf-8")
        distances = []
        for form in ("NFC", "NFD"):
            for name, text in (("q.txt", "Café naïve"), ("c.txt", "café thé")):
                (tmp_path / name).write_text(unicodedata.normalize(form, text), encoding="utf-8")
            rc, out, _ = run_cli(
                capsys, "dist", str(tmp_path / "q.txt"), str(tmp_path / "c.txt"),
                "--embeddings", str(tmp_path / "emb.txt"),
            )
            assert rc == 0
            distances.append(json.loads(out)["distance"])
        assert distances[0] == distances[1] == pytest.approx(0.1464466)

    def test_a_word_with_combining_marks_scores_whole(self, tmp_path, capsys):
        # Split at its vowel signs and virama, "हिन्दी" would be the rows
        # "ह", "न" and "द", and the query would match the candidate at 0.
        (tmp_path / "emb.txt").write_text(
            "हिन्दी 1 0 0\nह 0 1 0\nन 0 0 1\nद 0 1 1\nभाषा 1 1 0\n", encoding="utf-8"
        )
        (tmp_path / "q.txt").write_text("हिन्दी", encoding="utf-8")
        (tmp_path / "c.txt").write_text("हिन्दी भाषा", encoding="utf-8")
        rc, out, _ = run_cli(
            capsys, "dist", str(tmp_path / "q.txt"), str(tmp_path / "c.txt"),
            "--embeddings", str(tmp_path / "emb.txt"),
        )
        assert rc == 0
        assert json.loads(out)["distance"] == pytest.approx(0.1464466)

    def test_a_soft_hyphenated_word_scores_whole(self, tmp_path, capsys):
        # Split at its soft hyphen, the query would be the row "operate".
        (tmp_path / "emb.txt").write_text("cooperate 1 0\noperate 0 1\n")
        (tmp_path / "q.txt").write_text("co\u00adoperate", encoding="utf-8")
        (tmp_path / "c.txt").write_text("cooperate")
        rc, out, _ = run_cli(
            capsys, "dist", str(tmp_path / "q.txt"), str(tmp_path / "c.txt"),
            "--embeddings", str(tmp_path / "emb.txt"),
        )
        assert rc == 0
        assert json.loads(out)["distance"] == 0.0

    def test_bad_embedding_file_exit_2(self, tmp_path, capsys):
        write_corpus(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("a 1 2\nb 1 oops\n")
        doc_path = str(tmp_path / "docs" / "alpha1.txt")
        rc, _, err = run_cli(capsys, "dist", doc_path, doc_path, "--embeddings", str(bad))
        assert rc == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "table, line",
        [
            (b"a nan 1\nb 1 0\nc 0 1\n", "line 1"),
            (b"a 1 0\nb\xff 0 1\nc 0 1\n", "line 2"),
            # the row-wise sum of squares of 'big' overflows to inf
            (
                b"a 1 0 0\nbig 6.364309314649443e+153 9.646678184682957e+153 "
                b"6.79753487926762e+153\nc 0 0 1\n",
                "line 2",
            ),
        ],
        ids=["nan", "not-utf8", "overflowing-norm"],
    )
    def test_unusable_vector_rows_exit_2(self, tmp_path, capsys, table, line):
        (tmp_path / "emb.txt").write_bytes(table)
        (tmp_path / "q.txt").write_text("a c")
        (tmp_path / "c.txt").write_text("c")
        rc, out, err = run_cli(
            capsys, "dist", str(tmp_path / "q.txt"), str(tmp_path / "c.txt"),
            "--embeddings", str(tmp_path / "emb.txt"),
        )
        assert (rc, out) == (2, "")
        assert line in err and "Traceback" not in err


class TestExtractCommand:
    def test_lda_extract(self, tmp_path, capsys):
        f = tmp_path / "doc.txt"
        f.write_text(
            "We propose a novel index for ranking. "
            "Existing metrics count citations only. "
            "Our index weights recent work higher. "
            "Data were collected from two databases."
        )
        rc, out, _ = run_cli(
            capsys, "extract", str(f), "--selector", "lda", "--top-k", "2",
            "--k", "2", "--iters", "30", "--seed", "1",
        )
        assert rc == 0
        selected = json.loads(out)
        assert len(selected) == 2
        assert {"index", "score", "text"} <= set(selected[0])

    @pytest.mark.parametrize(
        "cues, tokens", [("Propose", "propose"), ("index, novel", "index,novel")]
    )
    def test_cues_select_as_their_tokens(self, tmp_path, capsys, cues, tokens):
        f = tmp_path / "doc.txt"
        f.write_text(
            "We propose a novel metric here. "
            "Existing metrics count citations only. "
            "Data were collected from two databases."
        )
        flags = ["--selector", "lda", "--top-k", "1", "--k", "2", "--iters", "100", "--seed", "4"]
        selected = []
        for words in (cues, tokens):
            rc, out, err = run_cli(capsys, "extract", str(f), *flags, "--cues", words)
            assert (rc, err) == (0, "")
            selected.append(json.loads(out))
        assert selected[0] == selected[1]
        assert [s["index"] for s in selected[0]] == [0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["extract", "{query}", "--selector", "lda", "--cues", "we"],
            ["extract", "{query}", "--selector", "lda", "--cues", "we,propose"],
            ["run", "{manifest}"],
        ],
        ids=["extract-we", "extract-we,propose", "manifest-we"],
    )
    def test_stopword_cue_exit_1_names_it(self, tmp_path, capsys, argv):
        # the bundled list drops "we" from every sentence before cues are matched
        selector = {"method": "lda", "iterations": 2, "cue_words": ["we"]}
        manifest = write_corpus(tmp_path, manifest_extra={"query": {"selector": selector}})
        query = tmp_path / "docs" / "query.txt"
        query.write_text("We propose a novel index here. Existing metrics count citations.")
        rc, out, err = run_cli(capsys, *(a.format(query=query, manifest=manifest) for a in argv))
        assert (rc, out) == (1, "")
        assert "cue_words ['we'] are stopwords of snowball_en.txt" in err

    def test_ma_extract_requires_embeddings(self, tmp_path, capsys):
        f = tmp_path / "doc.txt"
        f.write_text("One sentence here. Another sentence there.")
        rc, _, err = run_cli(capsys, "extract", str(f), "--selector", "ma")
        assert rc == 1
        assert "--embeddings" in err

    def test_ma_extract(self, tmp_path, capsys):
        write_corpus(tmp_path)
        f = tmp_path / "doc.txt"
        f.write_text("First word0 word1 here. Then word2 word3 there. Last word4 word5 now.")
        rc, out, _ = run_cli(
            capsys, "extract", str(f), "--selector", "ma", "--window", "1",
            "--top-k", "2", "--embeddings", str(tmp_path / "emb.txt"),
        )
        assert rc == 0
        assert len(json.loads(out)) == 2

    GOLDEN_DOC = (
        "We propose a novel index word0 word1 word2. "
        "Existing metrics count word3 word4 citations. "
        "Our new index weights word5 word6 recent work. "
        "Data were collected from word7 word8 databases. "
        "Results show word9 word10 gains. "
        "We introduce word11 word12 for ranking. "
        "Limitations include word13 word14 bias."
    )

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (
                ["--selector", "lda", "--seed", "1", "--iters", "30"],
                [
                    (2, 1.0, "Our new index weights word5 word6 recent work."),
                    (0, 0.5, "We propose a novel index word0 word1 word2."),
                    (1, 0.0, "Existing metrics count word3 word4 citations."),
                    (3, 0.0, "Data were collected from word7 word8 databases."),
                    (4, 0.0, "Results show word9 word10 gains."),
                ],
            ),
            (
                ["--selector", "ma", "--window", "3", "--seed", "0"],
                [
                    (4, 0.5237211900609067, "Results show word9 word10 gains."),
                    (0, 0.520117650968758, "We propose a novel index word0 word1 word2."),
                    (6, 0.5198758602799644, "Limitations include word13 word14 bias."),
                    (5, 0.48585583820687983, "We introduce word11 word12 for ranking."),
                    (2, 0.3863649307747063, "Our new index weights word5 word6 recent work."),
                ],
            ),
        ],
        ids=["lda", "ma"],
    )
    def test_golden_selection(self, tmp_path, capsys, flags, expected):
        # Pinned output of --top-k 5 on a fixed document and the conftest
        # table; guards the selector dispatch, order and scores.
        write_corpus(tmp_path)
        f = tmp_path / "doc.txt"
        f.write_text(self.GOLDEN_DOC)
        rc, out, _ = run_cli(
            capsys, "extract", str(f), "--top-k", "5", *flags,
            "--embeddings", str(tmp_path / "emb.txt"),
        )
        assert rc == 0
        got = [(s["index"], s["score"], s["text"]) for s in json.loads(out)]
        assert [(i, t) for i, _, t in got] == [(i, t) for i, _, t in expected]
        assert [s for _, s, _ in got] == pytest.approx([s for _, s, _ in expected], abs=1e-12)

    def test_lda_defaults_select_what_run_scores(self, tmp_path, capsys, monkeypatch):
        manifest = write_corpus(
            tmp_path, manifest_extra={"query": {"selector": {"method": "lda"}}}
        )
        query = tmp_path / "docs" / "query.txt"
        query.write_text(self.GOLDEN_DOC * 3)
        selected = []
        select_claims = pipeline.select_claims
        monkeypatch.setattr(
            pipeline, "select_claims",
            lambda *args: selected.append(select_claims(*args)) or selected[-1],
        )
        pipeline.run_experiment(pipeline.load_manifest(manifest))
        rc, out, _ = run_cli(capsys, "extract", str(query), "--selector", "lda")
        assert rc == 0
        (run_selected,) = selected
        assert len(run_selected) == pipeline.SelectorConfig("lda").top_k
        assert [(s["index"], s["score"]) for s in json.loads(out)] == [
            (s.index, s.score) for s in run_selected
        ]


class TestPreprocessCommand:
    def test_tokens_only(self, tmp_path, capsys):
        f = tmp_path / "doc.txt"
        f.write_text("The H-Index!")
        rc, out, _ = run_cli(capsys, "preprocess", str(f))
        assert rc == 0
        doc = json.loads(out)
        assert doc["tokens"] == ["the", "h", "index"]
        assert doc["filtered_tokens"] == ["h", "index"]
        assert doc["nbow"] is None

    def test_with_embeddings(self, tmp_path, capsys):
        write_corpus(tmp_path)
        f = tmp_path / "doc.txt"
        f.write_text("word0 word0 word1 unknowntoken")
        rc, out, _ = run_cli(
            capsys, "preprocess", str(f), "--embeddings", str(tmp_path / "emb.txt")
        )
        assert rc == 0
        nbow = json.loads(out)["nbow"]
        assert nbow["words"] == ["word0", "word1"]
        np.testing.assert_allclose(nbow["weights"], [2 / 3, 1 / 3])
        assert nbow["oov_dropped"] == 1


class TestEmbeddingsInfoCommand:
    def test_info(self, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        emb.write_text("a 1 0\na 2 0\nb 0 1\nz 0 0\n")
        rc, out, _ = run_cli(capsys, "embeddings", "info", str(emb))
        assert rc == 0
        assert "dimension: 2" in out
        assert "vocabulary_size: 2" in out
        assert "zero_rows_dropped: 1" in out
        assert "duplicate_tokens_ignored: 1" in out


class TestBenchCommand:
    def test_bench_csv(self, capsys):
        rc, out, _ = run_cli(capsys, "bench", "--sizes", "4,8", "--pairs", "3", "--seed", "0")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "size,median_wmd_seconds,median_rwmd_seconds"
        assert lines[-1].startswith("slope,")


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["extract", "{doc}", "--selector", "lda", "--top-k", "0"], 1, "top_k"),
        (["extract", "{doc}", "--selector", "lda", "--k", "0"], 1, "n_topics"),
        (["extract", "{doc}", "--selector", "lda", "--iters", "0"], 1, "iterations"),
        (["extract", "{doc}", "--selector", "ma", "--window", "2"], 1, "window"),
        (["extract", "{doc}", "--selector", "lda", "--alpha", "-1"], 1, "alpha"),
        (["extract", "{doc}", "--selector", "lda", "--alpha", "nan"], 1, "alpha"),
        (["extract", "{doc}", "--selector", "lda", "--beta", "0"], 1, "beta"),
        (["extract", "{doc}", "--selector", "lda", "--cues", ","], 1,
         "selector cue_words must be one word each, got ''"),
        (["extract", "{doc}", "--selector", "lda", "--cues", ""], 1,
         "selector cue_words must be one word each, got ''"),
        (["preprocess", "{doc}", "--stopwords", "{bad}"], 2, "stopword file"),
        (["run", "{manifest}"], 2, "stopword file"),
        (["bench", "--sizes", "x"], 1, "--sizes"),
        (["dist", "{doc}", "{doc}", "--embeddings", "{emb}", "--expected-dim", "0"], 1,
         "--expected-dim"),
    ],
    ids=[
        "top-k", "k", "iters", "window", "alpha", "alpha-nan", "beta", "cues-empty",
        "cues-empty-string",
        "stopwords-not-utf8", "manifest-stopwords-not-utf8", "sizes", "expected-dim",
    ],
)
def test_bad_input_exit_code_names_it(tmp_path, capsys, argv, code, message):
    # the manifest's stopword file is the non-UTF-8 one; only "run" reads it
    manifest = write_corpus(tmp_path, manifest_extra={"options": {"stopwords": "bad.txt"}})
    (tmp_path / "bad.txt").write_bytes(b"word0 \xff word1.")
    paths = {
        "doc": tmp_path / "docs" / "alpha1.txt",
        "bad": tmp_path / "bad.txt",
        "emb": tmp_path / "emb.txt",
        "manifest": manifest,
    }
    rc, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert (rc, out) == (code, "")
    assert message in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["dist", "{q}", "{oov}", "--embeddings", "{emb}"], "candidate file {oov}"),
        (["dist", "{oov}", "{q}", "--embeddings", "{emb}"], "query file {oov}"),
        (["preprocess", "{oov}", "--embeddings", "{emb}"], "input file {oov}"),
        (["extract", "{oov}", "--selector", "ma", "--embeddings", "{emb}"], "input file {oov}"),
        (["extract", "{stop}", "--selector", "lda"], "input file {stop}"),
        (["extract", "{nocue}", "--selector", "lda", "--iters", "2"], "input file {nocue}"),
        (["run", "{ma_manifest}"], "query 'q': {oov}"),
        (["run", "{lda_manifest}"], "query 'q': {nocue}"),
    ],
    ids=[
        "dist-candidate", "dist-query", "preprocess", "extract-ma", "extract-lda-empty",
        "extract-lda-no-cue", "run-ma", "run-lda-no-cue",
    ],
)
def test_unusable_document_exit_2_names_it(tmp_path, capsys, argv, named):
    files = {
        "emb": ("v.txt", "alpha 1 0\nbeta 0 1\n"),
        "q": ("q.txt", "alpha beta"),
        "oov": ("oov.txt", "gamma delta"),
        "stop": ("stop.txt", "The and of. It is the."),
        "nocue": ("nocue.txt", "Alpha beta here. Beta alpha there."),
    }
    paths = {}
    for key, (name, text) in files.items():
        paths[key] = tmp_path / name
        paths[key].write_text(text)
    for method, query in (("ma", "oov.txt"), ("lda", "nocue.txt")):
        manifest = {
            "query": {"id": "q", "path": query, "selector": {"method": method, "iterations": 2}},
            "documents": [{"id": "1", "group": "a", "path": "q.txt"}],
            "embedding": {"path": "v.txt"},
        }
        paths[f"{method}_manifest"] = tmp_path / f"{method}.json"
        paths[f"{method}_manifest"].write_text(json.dumps(manifest))
    rc, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert (rc, out) == (2, "")
    assert named.format(**paths) + ": " in err
    assert "Traceback" not in err


# Every command that reads a document, with the document in each role it
# can take. "{bad}" is the bad document; the manifests put it in the query
# or in the first candidate's place.
DOCUMENT_COMMANDS = {
    "dist-query": ["dist", "{bad}", "{doc}", "--embeddings", "{emb}"],
    "dist-candidate": ["dist", "{doc}", "{bad}", "--embeddings", "{emb}"],
    "extract-lda": ["extract", "{bad}", "--selector", "lda", "--iters", "2"],
    "extract-ma": ["extract", "{bad}", "--selector", "ma", "--embeddings", "{emb}"],
    "preprocess": ["preprocess", "{bad}", "--embeddings", "{emb}"],
    "run-query": ["run", "{query_manifest}", "--format", "json"],
    "run-candidate": ["run", "{candidate_manifest}", "--format", "json"],
    "rank-query": ["rank", "{query_manifest}", "--format", "json"],
    "rank-candidate": ["rank", "{candidate_manifest}", "--format", "json"],
}
# Each bad document: its name in the test directory and its bytes (None:
# nothing is written there).
BAD_DOCUMENTS = {
    "missing": ("nowhere.txt", None),
    "directory": ("docs", None),
    "not-utf8": ("bad.txt", b"word0 \xff word1."),
    "empty": ("empty.txt", b""),
    "all-oov": ("oov.txt", b"Novel zzz here. Yyy qqq there."),
}


@pytest.mark.parametrize(
    "command, bad",
    [
        pytest.param(command, bad, id=f"{bad}-{command}")
        for bad in BAD_DOCUMENTS
        for command in DOCUMENT_COMMANDS
        # the topic selector reads no table, so no token is out of vocabulary
        if (command, bad) != ("extract-lda", "all-oov")
    ],
)
def test_bad_document_exit_code_names_it(tmp_path, capsys, command, bad):
    manifest = write_corpus(tmp_path)
    name, data = BAD_DOCUMENTS[bad]
    path = tmp_path / name
    if data is not None:
        path.write_bytes(data)
    args = {"bad": path, "doc": tmp_path / "docs" / "alpha1.txt", "emb": tmp_path / "emb.txt"}
    for role in ("query", "candidate"):
        spec = json.loads(manifest.read_text())
        entry = spec["query"] if role == "query" else spec["documents"][0]
        entry["path"] = str(path)
        args[f"{role}_manifest"] = tmp_path / f"{role}.json"
        args[f"{role}_manifest"].write_text(json.dumps(spec))
    rc, out, err = run_cli(capsys, *(a.format(**args) for a in DOCUMENT_COMMANDS[command]))
    assert "Traceback" not in err
    manifest_role = command.split("-")[1] if command.startswith(("run", "rank")) else None
    if bad in ("missing", "directory"):  # an unreadable path is a config error
        assert (rc, out) == (1, "")
        assert str(path) in err
    elif bad == "not-utf8" or manifest_role is None:
        assert (rc, out) == (2, "")
        assert str(path) in err
    elif manifest_role == "query":  # named by its manifest key and its path
        assert (rc, out) == (2, "")
        assert f"query 'q': {path}: " in err
    else:  # an unscoreable candidate is a skip entry in the report
        assert (rc, err) == (0, "")
        skipped = json.loads(out)["skipped"]
        assert [(s["group"], s["id"]) for s in skipped] == [("alpha", "1")]


# Every subcommand that loads a table, and each way a table can fail to
# load, with what stderr must say about it.
TABLE_COMMANDS = {
    "dist": ["dist", "{doc}", "{doc}", "--embeddings", "{emb}"],
    "run": ["run", "{manifest}"],
    "embeddings-info": ["embeddings", "info", "{emb}"],
    "extract-ma": ["extract", "{doc}", "--selector", "ma", "--embeddings", "{emb}"],
    "preprocess": ["preprocess", "{doc}", "--embeddings", "{emb}"],
}
BAD_TABLES = {
    "empty": (b"", "no usable vector rows in {emb}"),
    "header-only": (b"2 2\n", "no usable vector rows in {emb}"),
    "non-numeric": (b"a 1 2\nb 1 two\n", "{emb}: line 2: non-numeric field in row for 'b'"),
    "not-utf8": (b"a 1 0\nb\xff 0 1\n", "{emb}: line 2: not valid UTF-8"),
    "non-finite": (b"a 1 0\nb nan 1\n", "{emb}: line 2: non-finite value or norm in row for 'b'"),
    "dimension-change": (b"a 1 0\nb 1 2 3\n", "{emb}: line 2: row has dimension 3, table has 2"),
}
EXPECTED_DIM_MISMATCH = (b"a 1 0\nb 0 1\n", "{emb}: line 1: dimension 2 does not match expected 3")


@pytest.mark.parametrize(
    "table, argv",
    [
        pytest.param(table, argv, id=f"{table_id}-{command}")
        for table_id, table in BAD_TABLES.items()
        for command, argv in TABLE_COMMANDS.items()
    ]
    + [  # the commands that take an expected dimension
        pytest.param(
            EXPECTED_DIM_MISMATCH, TABLE_COMMANDS["dist"] + ["--expected-dim", "3"],
            id="expected-dim-dist",
        ),
        pytest.param(EXPECTED_DIM_MISMATCH, ["run", "{dim3_manifest}"], id="expected-dim-run"),
    ],
)
def test_table_without_usable_rows_exit_2_names_it(tmp_path, capsys, argv, table):
    data, named = table
    manifest = write_corpus(tmp_path)
    dim3_manifest = tmp_path / "dim3.json"
    spec = json.loads(manifest.read_text())
    spec["embedding"]["expected_dim"] = 3
    dim3_manifest.write_text(json.dumps(spec))
    emb = tmp_path / "emb.txt"
    emb.write_bytes(data)
    paths = {
        "doc": tmp_path / "docs" / "alpha1.txt", "emb": emb, "manifest": manifest,
        "dim3_manifest": dim3_manifest,
    }
    rc, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert (rc, out) == (2, "")
    assert named.format(emb=emb) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "{doc}", "{doc}", "--embeddings", "{path}"],
        ["dist", "{doc}", "{doc}", "--embeddings", "{emb}", "--stopwords", "{path}"],
        ["extract", "{doc}", "--selector", "ma", "--embeddings", "{path}"],
        ["extract", "{doc}", "--selector", "lda", "--stopwords", "{path}"],
        ["preprocess", "{doc}", "--embeddings", "{path}"],
        ["preprocess", "{doc}", "--stopwords", "{path}"],
        ["embeddings", "info", "{path}"],
        ["run", "{manifest}", "--out", "{path}"],
    ],
    ids=[
        "dist-embeddings", "dist-stopwords", "extract-embeddings", "extract-stopwords",
        "preprocess-embeddings", "preprocess-stopwords", "embeddings-info", "run-out",
    ],
)
@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_unusable_path_exit_1_names_it(tmp_path, capsys, argv, kind):
    manifest = write_corpus(tmp_path)
    path = tmp_path / "docs" if kind == "directory" else tmp_path / "nowhere" / "x.txt"
    paths = {
        "doc": tmp_path / "docs" / "alpha1.txt",
        "emb": tmp_path / "emb.txt",
        "manifest": manifest,
        "path": path,
    }
    rc, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert (rc, out) == (1, "")
    assert str(path) in err
    assert "Traceback" not in err


@pytest.fixture
def pipe_path(tmp_path):
    """Return a function that puts bytes into a new pipe and gives the pipe's /dev/fd path."""
    fds = []

    def make(data: bytes) -> Path:
        if not Path("/dev/fd").is_dir():
            pytest.skip("no /dev/fd on this platform")
        read_end, write_end = os.pipe()
        fds.append(read_end)
        with os.fdopen(write_end, "wb") as fh:
            fh.write(data)
        return Path(f"/dev/fd/{read_end}")

    yield make
    for fd in fds:
        os.close(fd)


def not_regular_file(kind, tmp_path, pipe_path) -> Path:
    """A path that exists but is not a regular file; a pipe holds the test's table."""
    if kind == "directory":
        return tmp_path / "docs"
    if kind == "device":
        return Path(os.devnull)
    return pipe_path((tmp_path / "emb.txt").read_bytes())


@pytest.mark.parametrize("command", TABLE_COMMANDS)
@pytest.mark.parametrize("kind", ["directory", "device", "pipe"])
def test_table_not_a_regular_file_exit_1_names_it(tmp_path, capsys, pipe_path, command, kind):
    # the table is read twice, to hash it and to parse it, so a pipe would
    # parse as empty and a device such as /dev/zero would never end
    manifest = write_corpus(tmp_path)
    emb = not_regular_file(kind, tmp_path, pipe_path)
    spec = json.loads(manifest.read_text())
    spec["embedding"]["path"] = str(emb)
    manifest.write_text(json.dumps(spec))
    paths = {"doc": tmp_path / "docs" / "alpha1.txt", "emb": emb, "manifest": manifest}
    rc, out, err = run_cli(capsys, *(a.format(**paths) for a in TABLE_COMMANDS[command]))
    assert (rc, out) == (1, "")
    assert f"cannot read embedding file {emb}: not a regular file" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("role", ["manifest", "query", "document", "stopwords"])
@pytest.mark.parametrize("kind", ["directory", "device"])
def test_manifest_path_not_a_regular_file_exit_1_names_it(tmp_path, capsys, role, kind):
    manifest = write_corpus(tmp_path)
    path = not_regular_file(kind, tmp_path, None)
    spec = json.loads(manifest.read_text())
    if role == "stopwords":
        spec["options"]["stopwords"] = str(path)
    elif role != "manifest":
        (spec["query"] if role == "query" else spec["documents"][0])["path"] = str(path)
    manifest.write_text(json.dumps(spec))
    rc, out, err = run_cli(capsys, "run", str(path if role == "manifest" else manifest))
    assert (rc, out) == (1, "")
    assert f"not a regular file: {path}" in err
    assert "Traceback" not in err


def test_dist_reads_documents_from_pipes(tmp_path, capsys, pipe_path):
    # only tables must be regular files; a document is read once
    write_corpus(tmp_path)
    text = (tmp_path / "docs" / "alpha1.txt").read_bytes()
    rc, out, err = run_cli(
        capsys, "dist", str(pipe_path(text)), str(pipe_path(text)),
        "--embeddings", str(tmp_path / "emb.txt"),
    )
    assert (rc, err) == (0, "")
    assert json.loads(out)["distance"] <= 1e-12


@pytest.mark.parametrize(
    "argv, message",
    [
        (["extract", "{doc}", "--selector", "lda", "--seed", "-1"], "--seed"),
        (["bench", "--sizes", "4,8", "--pairs", "3", "--seed", "-1"], "--seed"),
        (["run", "{seed_manifest}"], "options.seed"),
        (["bench", "--sizes", "4,4", "--pairs", "3"], "two distinct sizes"),
        (["bench", "--sizes", "4", "--pairs", "3"], "two distinct sizes"),
    ],
    ids=["extract-seed", "bench-seed", "manifest-seed", "sizes-4,4", "sizes-4"],
)
def test_unusable_setting_exit_1_names_it(tmp_path, capsys, argv, message):
    seed_manifest = write_corpus(tmp_path, manifest_extra={"options": {"seed": -1}})
    paths = {"doc": tmp_path / "docs" / "alpha1.txt", "seed_manifest": seed_manifest}
    rc, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert (rc, out) == (1, "")
    assert message in err
    assert "Traceback" not in err


class TestCheapChecksFirst:
    """Inputs that are cheap to read fail before the table is parsed.

    The table here is not a valid table, so a run that parsed it first
    would fail on it instead.
    """

    def test_run_fails_on_the_document(self, tmp_path, capsys):
        manifest = write_corpus(tmp_path)
        (tmp_path / "emb.txt").write_text("a 1 2\nb 1 oops\n")
        (tmp_path / "docs" / "beta2.txt").write_bytes(b"word0 \xff word1.")
        rc, out, err = run_cli(capsys, "run", str(manifest))
        assert (rc, out) == (2, "")
        assert "document '2'" in err and "beta2.txt" in err

    def test_dist_fails_on_the_stopwords(self, tmp_path, capsys):
        write_corpus(tmp_path)
        (tmp_path / "emb.txt").write_text("a 1 2\nb 1 oops\n")
        doc = str(tmp_path / "docs" / "alpha1.txt")
        rc, out, err = run_cli(
            capsys, "dist", doc, doc, "--embeddings", str(tmp_path / "emb.txt"),
            "--stopwords", str(tmp_path / "docs"),
        )
        assert (rc, out) == (1, "")
        assert str(tmp_path / "docs") in err


@pytest.mark.parametrize("how", ["not-a-directory", "permission-denied"])
def test_unwritable_cache_warns_once_and_scores(tmp_path, capsys, caplog, monkeypatch, how):
    manifest = write_corpus(tmp_path)
    rc, expected, _ = run_cli(capsys, "run", str(manifest), "--format", "json")
    assert rc == 0
    caplog.clear()
    if how == "not-a-directory":
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
    else:
        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other-cache"))
        monkeypatch.setattr("tempfile.mkdtemp", denied)
    rc, out, err = run_cli(capsys, "run", str(manifest), "--format", "json")
    assert (rc, out) == (0, expected)
    assert len(caplog.records) == 1
    assert caplog.records[0].levelname == "WARNING"
    assert "cannot write embedding cache" in caplog.messages[0]



def test_lda_runs_leave_one_sweep_library_and_no_fit_entry(
    tmp_path, capsys, private_cache_home, rebuilt_library
):
    manifest = write_corpus(
        tmp_path,
        manifest_extra={
            "query": {"selector": {"method": "lda", "iterations": 20, "n_topics": 3, "top_k": 2}}
        },
    )
    (tmp_path / "docs" / "query.txt").write_text(
        "We propose word0 word1 word2 here. Data word3 word4 were collected. "
        "A novel word5 word6 word7 method. Results show word8 word9 gains."
    )
    first = run_cli(capsys, "run", str(manifest))
    second = run_cli(capsys, "run", str(manifest))
    assert first[0] == 0 and second == first
    cache = private_cache_home / "claimdist"
    libraries = list(cache.glob("native-*.so"))
    assert len(libraries) == (platform.machine() in native._MACHINES)
    assert list(cache.glob("lda-*")) == [] and list(cache.glob(".native-*")) == []


def test_unwritable_cache_and_temporary_directory_exit_1(tmp_path, capsys, monkeypatch):
    manifest = write_corpus(tmp_path)
    (tmp_path / "blocker").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "blocker" / "cache"))
    missing = tmp_path / "no-such-tmp"
    monkeypatch.setattr("tempfile.tempdir", str(missing))
    rc, out, err = run_cli(capsys, "run", str(manifest))
    assert (rc, out) == (1, "")
    assert "cannot create a temporary file" in err and str(missing) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["preprocess", "{doc}", "--embeddings", "{emb}"],
        ["run", "{manifest}", "--format", "json"],
        ["dist", "{doc}", "{doc}", "--embeddings", "{emb}"],
        ["embeddings", "info", "{emb}"],
    ],
    ids=["preprocess", "run-json", "dist", "embeddings-info"],
)
def test_closed_stdout_exits_1_with_one_line(tmp_path, argv):
    manifest = write_corpus(tmp_path)
    paths = {"doc": tmp_path / "docs" / "alpha1.txt", "emb": tmp_path / "emb.txt",
             "manifest": manifest}
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the child's stdout fails with EPIPE
    env = {**os.environ, "PYTHONPATH": str(Path(native.__file__).parents[1])}
    for unbuffered in ("1", ""):  # a failed buffered write is retried at shutdown
        done = subprocess.run(
            [sys.executable, "-m", "claimdist.cli", *(a.format(**paths) for a in argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**env, "PYTHONUNBUFFERED": unbuffered},
        )
        assert (done.returncode, done.stderr) == (
            1, "error: cannot write standard output: [Errno 32] Broken pipe\n"
        )
    os.close(write_end)


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_reader_that_exits_mid_output_gives_exit_1(tmp_path, unbuffered):
    # As in `claimdist preprocess doc.txt | head`: the output is several
    # times a pipe's 64 KiB, so the reader closes it mid-write. Unbuffered,
    # that write returns part of its length instead of raising.
    doc = tmp_path / "doc.txt"
    doc.write_text(" ".join(f"word{i}" for i in range(20_000)))
    child = subprocess.Popen(
        [sys.executable, "-m", "claimdist.cli", "preprocess", str(doc)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(native.__file__).parents[1]),
             "PYTHONUNBUFFERED": unbuffered},
    )
    child.stdout.read(1)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (
        1, "error: cannot write standard output: [Errno 32] Broken pipe\n"
    )


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        rc = main(["--version"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "claimdist" in out
