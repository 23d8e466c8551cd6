import io
import logging

import numpy as np
import pytest

from claimdist import (
    EmbeddingParseError,
    OutOfVocabularyError,
    cosine_similarity,
    load_embeddings,
    similarity_matrix,
    vector_of,
)
from claimdist import embeddings

from conftest import make_table, random_unit_table


def load_from_text(text: str, **kwargs):
    return load_embeddings(io.BytesIO(text.encode("utf-8")), **kwargs)


class TestLoadEmbeddings:
    def test_minimal_two_rows(self):
        table = load_from_text("a 1 0\nb 0 1\n")
        assert table.dimension == 2
        assert len(table) == 2
        np.testing.assert_array_equal(vector_of(table, "a"), [1.0, 0.0])

    def test_header_line_skipped(self):
        rows = "\n".join(f"tok{i} " + " ".join(["0.5"] * 300) for i in range(2))
        table = load_from_text("400000 300\n" + rows + "\n")
        assert table.dimension == 300
        assert len(table) == 2

    def test_non_numeric_field_names_line(self):
        with pytest.raises(EmbeddingParseError, match="line 2"):
            load_from_text("a 1 2\nc 1 two\n")

    def test_inconsistent_dimension_names_line(self):
        with pytest.raises(EmbeddingParseError, match="line 3"):
            load_from_text("a 1 2\nb 3 4\nc 1 2 3\n")

    @pytest.mark.parametrize(
        "text, line",
        [("a nan 1\nb 1 0\nc 0 1\n", "line 1"), ("a 1 0\nb inf 1\n", "line 2")],
        ids=["nan", "inf"],
    )
    def test_non_finite_row_names_line(self, text, line):
        with pytest.raises(EmbeddingParseError, match=line):
            load_from_text(text)

    def test_non_utf8_byte_names_line(self):
        with pytest.raises(EmbeddingParseError, match="line 2.*UTF-8"):
            load_embeddings(io.BytesIO(b"a 1 0\nb\xff 0 1\n"))

    def test_empty_input_is_error(self):
        with pytest.raises(EmbeddingParseError):
            load_from_text("")

    def test_expected_dim_mismatch(self):
        with pytest.raises(EmbeddingParseError, match="expected 3"):
            load_from_text("a 1 2\n", expected_dim=3)

    def test_duplicates_keep_first(self, caplog):
        with caplog.at_level(logging.WARNING):
            table = load_from_text("a 1 2\na 9 9\nb 3 4\n")
        assert len(table) == 2
        assert table.n_duplicates == 1
        np.testing.assert_array_equal(vector_of(table, "a"), [1.0, 2.0])
        assert any("duplicate" in r.message for r in caplog.records)

    def test_zero_vector_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            table = load_from_text("a 0 0\nb 1 1\n")
        assert len(table) == 1
        assert table.n_zero_dropped == 1
        assert "a" not in table

    def test_crlf_and_blank_lines(self):
        table = load_from_text("a 1 0\r\n\r\nb 0 1\r\n")
        assert len(table) == 2

    def test_roundtrip_every_row_exactly(self, tmp_path):
        rng = np.random.default_rng(11)
        words = [f"t{i}" for i in range(25)]
        vecs = rng.normal(size=(25, 7))
        lines = [w + " " + " ".join(repr(float(x)) for x in v) for w, v in zip(words, vecs)]
        path = tmp_path / "emb.txt"
        path.write_text("\n".join(lines) + "\n")
        table = load_embeddings(path)
        for w, v in zip(words, vecs):
            np.testing.assert_array_equal(vector_of(table, w), v)

    def test_small_chunks_equivalent(self, monkeypatch):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(10, 4))
        lines = [f"t{i} " + " ".join(repr(float(x)) for x in v) for i, v in enumerate(vecs)]
        lines[3] = "t1 1 2 3 4"  # duplicate, ignored
        lines[6] = "z 0 0 0 0"  # all-zero, dropped
        text = "\n".join(lines) + "\n"
        kept = [i for i in range(10) if i not in (3, 6)]
        full = load_from_text(text)
        np.testing.assert_array_equal(full.matrix, vecs[kept])
        for rows in (1, 3):
            monkeypatch.setattr(embeddings, "_CHUNK_BYTES", rows * 8 * 4)
            tiny = load_from_text(text)
            assert tiny.vocabulary == full.vocabulary
            np.testing.assert_array_equal(tiny.matrix, full.matrix)
            np.testing.assert_array_equal(tiny.row_norms, full.row_norms)

    def test_table_is_immutable(self):
        table = load_from_text("a 1 0\nb 0 1\n")
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 5.0


class TestVectorOf:
    def test_present(self):
        table = load_from_text("a 1 2\n")
        np.testing.assert_array_equal(vector_of(table, "a"), [1.0, 2.0])

    def test_absent_returns_none(self):
        table = load_from_text("a 1 2\n")
        assert vector_of(table, "zzz") is None

    def test_exact_match_no_case_folding(self):
        table = load_from_text("the 1 2\n")
        assert vector_of(table, "The") is None


class TestCosineSimilarity:
    def test_identity(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert abs(cosine_similarity([1.0, 1.0], [1.0, 0.0]) - 0.707107) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_norm(self):
        with pytest.raises(ValueError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.normal(size=rng.integers(1, 12))
            if np.linalg.norm(v) == 0:
                continue
            assert abs(cosine_similarity(v, v) - 1.0) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            assert abs(cosine_similarity(u, v) - cosine_similarity(v, u)) <= 1e-15

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            u = rng.normal(size=5)
            v = rng.normal(size=5)
            alpha = float(rng.random() * 10 + 0.01)
            assert abs(cosine_similarity(alpha * u, v) - cosine_similarity(u, v)) <= 1e-12

    def test_clamped_range(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            u = rng.normal(size=3)
            v = rng.normal(size=3)
            c = cosine_similarity(u, v)
            assert -1.0 <= c <= 1.0


class TestSimilarityMatrix:
    def test_single_word(self, ortho_table):
        s = similarity_matrix(ortho_table, ["w0"], ["w0"])
        np.testing.assert_allclose(s, [[1.0]], atol=1e-12)

    def test_orthonormal_is_identity(self, ortho_table):
        words = ["w0", "w1", "w2", "w3"]
        s = similarity_matrix(ortho_table, words, words)
        np.testing.assert_allclose(s, np.eye(4), atol=1e-12)

    def test_matches_elementwise_calls(self):
        rng = np.random.default_rng(8)
        table = random_unit_table(rng, 6, 5)
        a = ["w0", "w2"]
        b = ["w1", "w3", "w5"]
        s = similarity_matrix(table, a, b)
        for i, wa in enumerate(a):
            for j, wb in enumerate(b):
                expected = cosine_similarity(vector_of(table, wa), vector_of(table, wb))
                assert abs(s[i, j] - expected) <= 1e-12

    def test_elementwise_on_random_fixtures(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            table = make_table(
                [f"x{i}" for i in range(8)], rng.normal(size=(8, 4)) + 0.01
            )
            a = [f"x{i}" for i in rng.choice(8, size=3, replace=False)]
            b = [f"x{i}" for i in rng.choice(8, size=4, replace=False)]
            s = similarity_matrix(table, a, b)
            for i, wa in enumerate(a):
                for j, wb in enumerate(b):
                    ref = cosine_similarity(vector_of(table, wa), vector_of(table, wb))
                    assert abs(s[i, j] - ref) <= 1e-12

    def test_oov_word_is_error(self, ortho_table):
        with pytest.raises(OutOfVocabularyError, match="zzz"):
            similarity_matrix(ortho_table, ["w0", "zzz"], ["w1"])
