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
        ],
        ids=["top_k", "options", "documents"],
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


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        rc = main(["--version"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "claimdist" in out
