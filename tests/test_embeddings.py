import io
import logging

import numpy as np
import pytest

from claimdist.embeddings import load_embeddings, similarity_matrix
from claimdist.errors import EmbeddingParseError, OutOfVocabularyError
from claimdist import embeddings

from conftest import cosine_similarity, make_table, random_unit_table


def load_from_text(text: str, **kwargs):
    return load_embeddings(io.BytesIO(text.encode("utf-8")), **kwargs)


def row(table, word):
    return table.matrix[table.vocabulary[word]]


class TestLoadEmbeddings:
    def test_minimal_two_rows(self):
        table = load_from_text("a 1 0\nb 0 1\n")
        assert table.dimension == 2
        assert len(table) == 2
        np.testing.assert_array_equal(row(table, "a"), [1.0, 0.0])

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
        np.testing.assert_array_equal(row(table, "a"), [1.0, 2.0])
        assert caplog.messages == ["<stream>: duplicate tokens ignored: 1 (line 2)"]

    def test_zero_vector_dropped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            table = load_from_text("a 0 0\nb 1 1\n")
        assert len(table) == 1
        assert table.n_zero_dropped == 1
        assert "a" not in table
        assert caplog.messages == ["<stream>: all-zero vectors dropped: 1 (line 1)"]

    def test_one_summary_line_per_load(self, caplog):
        text = "a 1 2\n" + "a 3 4\n" * 7 + "z 0 0\ny 0 0\nb 0 1\n"
        with caplog.at_level(logging.WARNING):
            table = load_from_text(text)
        assert (table.n_duplicates, table.n_zero_dropped) == (7, 2)
        assert caplog.messages == [
            "<stream>: duplicate tokens ignored: 7 (lines 2, 3, 4, 5, 6, ...); "
            "all-zero vectors dropped: 2 (lines 9, 10)"
        ]

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
            np.testing.assert_array_equal(row(table, w), v)

    def test_small_chunks_equivalent(self, monkeypatch):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(10, 4))
        lines = [f"t{i} " + " ".join(repr(float(x)) for x in v) for i, v in enumerate(vecs)]
        lines[3] = "t1 1 2 3 4"  # duplicate, ignored
        lines[6] = "z 0 0 0 0"  # all-zero, dropped
        text = "\n".join(lines) + "\n"
        kept = [i for i in range(10) if i not in (3, 6)]
        full = load_from_text(text)
        np.testing.assert_array_equal(full.matrix[:], vecs[kept])
        for rows in (1, 3):
            monkeypatch.setattr(embeddings, "_BATCH_BYTES", rows * 8 * 4)
            tiny = load_from_text(text)
            assert tiny.vocabulary == full.vocabulary
            np.testing.assert_array_equal(tiny.matrix[:], full.matrix[:])
            np.testing.assert_array_equal(tiny.row_norms, full.row_norms)

    def test_table_is_immutable(self):
        table = load_from_text("a 1 0\nb 0 1\n")
        with pytest.raises(TypeError):
            table.matrix[0] = 5.0
        rows = table.matrix[:]
        rows[0, 0] = 5.0
        np.testing.assert_array_equal(table.matrix[:], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            table.row_norms[0] = 5.0


# Parser edge cases. Each input maps to the exact table (words, matrix
# bytes, duplicate and zero-row counts) or the exact error text it gave
# before the loader was vectorized; ``line`` is the line number the error
# names, so it can be shifted when filler rows are put in front.
ROWS_B = ("b", [0.0, 1.0])
PARSE_CASES = {
    "underscore": (b"a 1_0 2\nb 0 1\n", [("a", [10.0, 2.0]), ROWS_B], 0, 0),
    "nbsp": ("a\xa01\xa02\nb 0 1\n".encode(), [("a", [1.0, 2.0]), ROWS_B], 0, 0),
    "tabs": (b"a\t1\t2\nb\t0 1\n", [("a", [1.0, 2.0]), ROWS_B], 0, 0),
    "crlf": (b"a 1 2\r\nb 0 1\r\n", [("a", [1.0, 2.0]), ROWS_B], 0, 0),
    "subnormal": (b"a 5e-324 0\nb 0 1\n", [ROWS_B], 0, 1),
    "underflow": (b"a 1e-400 0\nb 0 1\n", [ROWS_B], 0, 1),
    "signs": (b"a -0 +1\nb .5 1\n", [("a", [-0.0, 1.0]), ("b", [0.5, 1.0])], 0, 0),
    "17-digit": (
        b"a 0.12345678901234568 -1.2345678901234567e-05\nb 0 1\n",
        [("a", [0.12345678901234568, -1.2345678901234567e-05]), ROWS_B], 0, 0,
    ),
    "nan": (b"a nan 1\nb 0 1\n", 1, "non-finite value or norm in row for 'a'"),
    "infinity": (b"b 0 1\na Infinity 1\n", 2, "non-finite value or norm in row for 'a'"),
    "overflowing-norm": (b"b 0 1\na 1e200 1e200\n", 2, "non-finite value or norm in row for 'a'"),
    "comment-sign": (b"b 0 1\na #0 1\n", 2, "non-numeric field in row for 'a'"),
    "hex-float": (b"a 0x1p1 1\n", 1, "non-numeric field in row for 'a'"),
    "short-row": (b"a 1 2\nb\n", 2, "row has a token but no values"),
    "dimension-change": (b"a 1 2\nb 1 2 3\n", 2, "row has dimension 3, table has 2"),
    "header": (b"2 2\na 1 2\nb 0 1\n", [("a", [1.0, 2.0]), ROWS_B], 0, 0),
    "blank-lines": (b"\na 1 2\n   \n\t\r\nb 0 1\n\n", [("a", [1.0, 2.0]), ROWS_B], 0, 0),
    "duplicate-and-zero": (
        b"a 1 2\na 3 4\nz 0 0\nb 0 1\na 0 0\n", [("a", [1.0, 2.0]), ROWS_B], 2, 1
    ),
    "duplicate-not-checked": (b"a 1 2\na nan 1\nb 0 1\n", [("a", [1.0, 2.0]), ROWS_B], 1, 0),
    "not-utf8": (
        b"a 1 2\nb\xff 0 1\n", 2,
        "not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 1: "
        "invalid start byte",
    ),
}
FILLER = 5  # rows put in front of a case so its odd row lands in a later batch


def _with_filler(case):
    """The case with FILLER rows in front (after a header line) and what it then gives."""
    data, *expected = PARSE_CASES[case]
    head = b"2 2\n" if case == "header" else b""
    filler = [(f"f{i}", [float(i + 1), 1.0]) for i in range(FILLER)]
    text = b"".join(f"{w} {x:g} {y:g}\n".encode() for w, (x, y) in filler)
    data = head + text + data[len(head):]
    if isinstance(expected[0], int):
        return data, expected[0] + FILLER, expected[1]
    return data, filler + expected[0], *expected[1:]


def _check_parse(load, data, *expected):
    if isinstance(expected[0], int):
        line, message = expected
        with pytest.raises(EmbeddingParseError) as info:
            load(data)
        assert str(info.value) == f"line {line}: {message}"
        assert info.value.line_number == line
        return
    rows, n_dup, n_zero = expected
    table = load(data)
    assert list(table.vocabulary) == [w for w, _ in rows]
    assert list(table.vocabulary.values()) == list(range(len(rows)))
    want = np.array([v for _, v in rows], dtype=np.float64)
    matrix = table.matrix[:]
    assert table.matrix.dtype == matrix.dtype == np.float64
    assert table.matrix.shape == matrix.shape == want.shape
    assert matrix.tobytes() == want.tobytes()
    assert table.row_norms.tobytes() == np.linalg.norm(want, axis=1).tobytes()
    assert (table.n_duplicates, table.n_zero_dropped) == (n_dup, n_zero)


class TestParseEdgeCases:
    @pytest.mark.parametrize("case", list(PARSE_CASES))
    def test_stream(self, case):
        _check_parse(lambda data: load_embeddings(io.BytesIO(data)), *PARSE_CASES[case])

    @pytest.mark.parametrize("batch_bytes", [1, 20])
    @pytest.mark.parametrize("case", list(PARSE_CASES))
    def test_in_a_later_batch(self, monkeypatch, case, batch_bytes):
        # one line per batch, or the odd row after filler rows in its batch
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", batch_bytes)
        _check_parse(lambda data: load_embeddings(io.BytesIO(data)), *_with_filler(case))

    @pytest.mark.parametrize("case", list(PARSE_CASES))
    def test_file_twice(self, tmp_path, case):
        # the second load of the same file may come from the embedding cache
        path = tmp_path / "emb.txt"

        def load(data):
            path.write_bytes(data)
            return load_embeddings(path)

        for _ in range(2):
            _check_parse(load, *_with_filler(case))


def _table_file(path, n_words=2000, dim=50, seed=2):
    """A table of about 1.8 MB with a duplicate and an all-zero row."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n_words, dim))
    lines = [f"t{i} " + " ".join(repr(float(x)) for x in v) for i, v in enumerate(vecs)]
    lines[7] = "t3 " + " ".join(["1"] * dim)
    lines[11] = "zero " + " ".join(["0"] * dim)
    path.write_text("\n".join(lines) + "\n")
    return path


def _entry(cache_home):
    (entry,) = (cache_home / "claimdist").iterdir()
    return entry


def _assert_same_table(a, b):
    assert list(a.vocabulary.items()) == list(b.vocabulary.items())
    assert np.array_equal(a.matrix[:], b.matrix[:])
    assert np.array_equal(a.row_norms, b.row_norms)
    assert (a.dimension, a.n_duplicates, a.n_zero_dropped, a.source_name) == (
        b.dimension, b.n_duplicates, b.n_zero_dropped, b.source_name,
    )


def _no_parse(*args, **kwargs):
    raise AssertionError("the text was parsed again")


class TestEmbeddingCache:
    def test_hit_equals_cold(self, tmp_path, private_cache_home, monkeypatch, caplog):
        path = _table_file(tmp_path / "emb.txt")
        with caplog.at_level(logging.WARNING):
            cold = load_embeddings(path)
            assert _entry(private_cache_home).name == f"v2-{embeddings.file_sha256(path)}"
            monkeypatch.setattr(embeddings, "_parse", _no_parse)
            hit = load_embeddings(path)
        _assert_same_table(hit, cold)
        assert hit.source_name == str(path)
        with pytest.raises(TypeError):
            hit.matrix[0] = 0.0
        # the batch-wise norms equal the whole-matrix norm exactly
        assert np.array_equal(cold.row_norms, np.linalg.norm(cold.matrix[:], axis=1))
        summary = (
            f"{path}: duplicate tokens ignored: 1 (line 8); all-zero vectors dropped: 1 (line 12)"
        )
        assert caplog.messages == [summary, summary]

    def test_clean_rows_take_the_batch_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.txt"
        path.write_text("".join(f"w{i} {i + 1} 0.5 -2e-3\n" for i in range(5000)))
        monkeypatch.setattr(embeddings._Rows, "add_lines", _no_parse)
        assert len(load_embeddings(path)) == 5000

    def test_digest_passed_in_keys_the_same_entry(self, tmp_path, private_cache_home):
        path = _table_file(tmp_path / "emb.txt", n_words=20)
        cold = load_embeddings(path)
        hit = load_embeddings(path, sha256=embeddings.file_sha256(path))
        _assert_same_table(hit, cold)
        assert len(list((private_cache_home / "claimdist").iterdir())) == 1

    def test_streams_skip_the_cache(self, private_cache_home):
        load_from_text("a 1 0\nb 0 1\n")
        assert not private_cache_home.exists()

    def test_truncated_matrix_is_a_miss_and_rewritten(
        self, tmp_path, private_cache_home, monkeypatch
    ):
        path = _table_file(tmp_path / "emb.txt")
        with open(path, "rb") as stream:
            parsed = load_embeddings(stream)  # outside the cache
        cold = load_embeddings(path)
        matrix_file = _entry(private_cache_home) / "matrix.f64"
        size = matrix_file.stat().st_size
        with open(matrix_file, "r+b") as fh:
            fh.truncate(size // 2)
        # the cold table reads its rows from that file: a short read fails
        with pytest.raises(OSError, match="ends before row"):
            cold.matrix[:]
        _assert_same_table(load_embeddings(path), parsed)
        assert matrix_file.stat().st_size == size
        monkeypatch.setattr(embeddings, "_parse", _no_parse)
        _assert_same_table(load_embeddings(path), parsed)

    def test_entry_written_meanwhile_is_left_in_place(
        self, tmp_path, private_cache_home, monkeypatch
    ):
        path = _table_file(tmp_path / "emb.txt", n_words=20)
        cold = load_embeddings(path)
        entry = _entry(private_cache_home)
        before = {f.name: (f.stat().st_ino, f.stat().st_mtime_ns) for f in entry.iterdir()}
        # as if another process wrote the entry while this one parsed
        monkeypatch.setattr(embeddings, "_read_entry", lambda *args: None)
        _assert_same_table(load_embeddings(path), cold)
        assert {f.name: (f.stat().st_ino, f.stat().st_mtime_ns) for f in entry.iterdir()} == before
        assert list((private_cache_home / "claimdist").iterdir()) == [entry]

    def test_expected_dim_mismatch_on_a_hit_gives_the_parse_error(self, tmp_path):
        path = _table_file(tmp_path / "emb.txt", n_words=20)
        load_embeddings(path)
        with pytest.raises(EmbeddingParseError) as info:
            load_embeddings(path, expected_dim=3)
        assert str(info.value) == "line 1: dimension 50 does not match expected 3"

    def test_writing_an_entry_removes_the_previous_format(self, tmp_path, private_cache_home):
        path = _table_file(tmp_path / "emb.txt", n_words=20)
        root = private_cache_home / "claimdist"
        old = root / f"v1-{embeddings.file_sha256(path)}"
        other = root / f"v1-{'0' * 64}"
        for entry in (old, other):
            entry.mkdir(parents=True)
            (entry / "matrix.npy").write_bytes(b"\0" * 64)
        load_embeddings(path)
        assert sorted(e.name for e in root.iterdir()) == sorted(
            [other.name, f"v2-{embeddings.file_sha256(path)}"]
        )


def _kept_rows(path):
    """The rows a load keeps, parsed independently: first occurrences, nonzero."""
    rows = {}
    for line in path.read_text().splitlines():
        token, *values = line.split()
        vec = [float(v) for v in values]
        if token not in rows and any(vec):
            rows[token] = vec
    return np.array(list(rows.values()))


def _load_as(kind, path, monkeypatch, tmp_path):
    if kind == "stream":
        with open(path, "rb") as stream:
            return load_embeddings(stream)
    if kind == "unwritable":
        (tmp_path / "blocker").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "blocker" / "cache"))
    if kind == "hit":
        load_embeddings(path)
        monkeypatch.setattr(embeddings, "_parse", _no_parse)
    return load_embeddings(path)


READER_KINDS = ["cold", "hit", "stream", "unwritable"]


class TestRowReader:
    @pytest.mark.parametrize("kind", READER_KINDS)
    def test_rows_equal_the_parsed_rows(self, tmp_path, monkeypatch, kind):
        path = _table_file(tmp_path / "emb.txt")
        want = _kept_rows(path)
        table = _load_as(kind, path, monkeypatch, tmp_path)
        assert table.matrix.shape == want.shape and len(table.matrix) == len(want)
        assert table.matrix.dtype == np.float64
        unsorted = np.array([17, 3, 17, len(want) - 1, 0, 4, 3, -1])
        for key in (5, -2, unsorted, [2, 1], np.array([], dtype=np.intp), slice(10, 400, 7),
                    slice(None, None, -3), slice(None)):
            got = table.matrix[key]
            assert got.dtype == np.float64 and got.shape == want[key].shape
            assert got.tobytes() == want[key].tobytes()

    @pytest.mark.parametrize("kind", READER_KINDS)
    def test_bad_index_raises(self, tmp_path, monkeypatch, kind):
        path = _table_file(tmp_path / "emb.txt", n_words=20)
        table = _load_as(kind, path, monkeypatch, tmp_path)
        n = len(table)
        for key in (n, -n - 1, [0, n], np.array([-n - 1, 0])):
            with pytest.raises(IndexError):
                table.matrix[key]
        with pytest.raises(TypeError):
            table.matrix[0, 1]  # one element of an ndarray; rows only here

    @pytest.mark.parametrize("kind", READER_KINDS)
    def test_reads_only_the_requested_rows(self, tmp_path, monkeypatch, kind):
        path = _table_file(tmp_path / "emb.txt")
        table = _load_as(kind, path, monkeypatch, tmp_path)
        row_bytes = 8 * table.dimension
        read_rows = []
        real_preadv = embeddings.os.preadv

        def counting_preadv(fd, buffers, offset):
            n = real_preadv(fd, buffers, offset)
            assert offset % row_bytes == 0 and n % row_bytes == 0
            read_rows.extend(range(offset // row_bytes, (offset + n) // row_bytes))
            return n

        monkeypatch.setattr(embeddings.os, "preadv", counting_preadv)
        index = [1500, 7, 8, 9, 7, 1200, 3]
        table.matrix[index]
        assert sorted(read_rows) == sorted(index)

    @pytest.mark.parametrize("source", ["file", "stream"])
    def test_parse_error_leaves_no_directory_and_no_open_file(
        self, tmp_path, private_cache_home, monkeypatch, source
    ):
        path = _table_file(tmp_path / "emb.txt", n_words=200)
        path.write_text(path.read_text() + "late 1 oops\n" + "after 1 2\n" * 5)
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", 4096)
        sinks = []
        rows_init = embeddings._Rows.__init__

        def recording_init(self, expected_dim, sink, sink_dir):
            sinks.append(sink)
            rows_init(self, expected_dim, sink, sink_dir)

        monkeypatch.setattr(embeddings._Rows, "__init__", recording_init)
        with pytest.raises(EmbeddingParseError, match="line 201"):
            if source == "file":
                load_embeddings(path)
            else:
                with open(path, "rb") as stream:
                    load_embeddings(stream)
        assert len(sinks) == 1 and sinks[0].closed
        root = private_cache_home / "claimdist"
        assert not root.exists() or list(root.iterdir()) == []


class TestVocabulary:
    def test_present(self):
        table = load_from_text("a 1 2\n")
        assert "a" in table
        np.testing.assert_array_equal(row(table, "a"), [1.0, 2.0])

    def test_absent(self):
        table = load_from_text("a 1 2\n")
        assert "zzz" not in table

    def test_exact_match_no_case_folding(self):
        table = load_from_text("the 1 2\n")
        assert "The" not in table


class TestCosineSimilarity:
    def test_identity(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        assert abs(cosine_similarity([1.0, 1.0], [1.0, 0.0]) - 0.707107) < 1e-6

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
                expected = cosine_similarity(row(table, wa), row(table, wb))
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
                    ref = cosine_similarity(row(table, wa), row(table, wb))
                    assert abs(s[i, j] - ref) <= 1e-12

    def test_oov_word_is_error(self, ortho_table):
        with pytest.raises(OutOfVocabularyError, match="zzz"):
            similarity_matrix(ortho_table, ["w0", "zzz"], ["w1"])
