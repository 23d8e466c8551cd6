import json

import numpy as np
import pytest

from claimdist.cli import main

from conftest import write_corpus


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
                {"query": {"selector": {}}},
                "manifest query.selector is missing required key 'method'",
            ),
        ],
        ids=[
            "top_k", "options", "documents",
            "top_k=0", "window=2", "n_topics=0", "iterations=0", "alpha=-1",
            "empty-selector",
        ],
    )
    def test_mistyped_manifest_exit_1(self, tmp_path, capsys, extra, message):
        path = write_corpus(tmp_path, manifest_extra=extra)
        rc, _, err = run_cli(capsys, "run", str(path))
        assert rc == 1
        assert message in err

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
        [(b"a nan 1\nb 1 0\nc 0 1\n", "line 1"), (b"a 1 0\nb\xff 0 1\nc 0 1\n", "line 2")],
        ids=["nan", "not-utf8"],
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
        assert line in err


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
                ["--selector", "ma", "--window", "3"],
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
        # Pinned output of the default --top-k 5 on a fixed document and the
        # conftest table; guards the selector dispatch, order and scores.
        write_corpus(tmp_path)
        f = tmp_path / "doc.txt"
        f.write_text(self.GOLDEN_DOC)
        rc, out, _ = run_cli(
            capsys, "extract", str(f), *flags, "--embeddings", str(tmp_path / "emb.txt")
        )
        assert rc == 0
        got = [(s["index"], s["score"], s["text"]) for s in json.loads(out)]
        assert [(i, t) for i, _, t in got] == [(i, t) for i, _, t in expected]
        assert [s for _, s, _ in got] == pytest.approx([s for _, s, _ in expected], abs=1e-12)


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
        (["dist", "{bad}", "{doc}", "--embeddings", "{emb}"], 2, "bad.txt"),
        (["extract", "{bad}", "--selector", "lda"], 2, "bad.txt"),
        (["preprocess", "{bad}"], 2, "bad.txt"),
        (["preprocess", "{doc}", "--stopwords", "{bad}"], 2, "stopword file"),
        (["run", "{manifest}"], 2, "stopword file"),
        (["bench", "--sizes", "x"], 1, "--sizes"),
        (["dist", "{doc}", "{doc}", "--embeddings", "{emb}", "--expected-dim", "0"], 1,
         "--expected-dim"),
    ],
    ids=[
        "top-k", "k", "iters", "window", "alpha", "alpha-nan", "beta",
        "dist-not-utf8", "extract-not-utf8", "preprocess-not-utf8",
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



def test_unwritable_cache_and_temporary_directory_exit_1(tmp_path, capsys, monkeypatch):
    manifest = write_corpus(tmp_path)
    (tmp_path / "blocker").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "blocker" / "cache"))
    missing = tmp_path / "no-such-tmp"
    monkeypatch.setattr("tempfile.tempdir", str(missing))
    rc, out, err = run_cli(capsys, "run", str(manifest))
    assert (rc, out) == (1, "")
    assert "cannot create a temporary file" in err and str(missing) in err


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        rc = main(["--version"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "claimdist" in out
