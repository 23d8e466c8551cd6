import errno
import hashlib
import json
import logging
import os
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from claimdist.embeddings import load_embeddings, similarity_matrix
from claimdist.errors import DataError, EmbeddingParseError, OutOfVocabularyError
from claimdist import cli, embeddings, native

from conftest import (
    DECLINED_FIELDS,
    FAST_FIELDS,
    ReferenceTable,
    cosine_similarity,
    make_table,
    random_unit_table,
    reference_table,
    require_library,
    write_corpus,
)


@pytest.fixture
def load_from_text(tmp_path):
    """Write ``text`` (str or bytes) to ``emb.txt`` under the test's directory and load it."""

    def load(text, **kwargs):
        path = tmp_path / "emb.txt"
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        return load_embeddings(path, **kwargs)

    return load


def row(table, word):
    return table.matrix[[table.vocabulary[word]]][0]


def all_rows(table):
    return table.matrix[list(range(len(table)))]


class TestLoadEmbeddings:
    def test_minimal_two_rows(self, load_from_text):
        table = load_from_text("a 1 0\nb 0 1\n")
        assert table.dimension == 2
        assert len(table) == 2
        np.testing.assert_array_equal(row(table, "a"), [1.0, 0.0])

    def test_header_line_skipped(self, load_from_text):
        rows = "\n".join(f"tok{i} " + " ".join(["0.5"] * 300) for i in range(2))
        table = load_from_text("400000 300\n" + rows + "\n")
        assert table.dimension == 300
        assert len(table) == 2

    def test_non_numeric_field_names_line(self, load_from_text):
        with pytest.raises(EmbeddingParseError, match="line 2"):
            load_from_text("a 1 2\nc 1 two\n")

    def test_inconsistent_dimension_names_line(self, load_from_text):
        with pytest.raises(EmbeddingParseError, match="line 3"):
            load_from_text("a 1 2\nb 3 4\nc 1 2 3\n")

    @pytest.mark.parametrize(
        "text, line",
        [("a nan 1\nb 1 0\nc 0 1\n", "line 1"), ("a 1 0\nb inf 1\n", "line 2")],
        ids=["nan", "inf"],
    )
    def test_non_finite_row_names_line(self, load_from_text, text, line):
        with pytest.raises(EmbeddingParseError, match=line):
            load_from_text(text)

    def test_non_utf8_byte_names_line(self, load_from_text):
        with pytest.raises(EmbeddingParseError, match="line 2.*UTF-8"):
            load_from_text(b"a 1 0\nb\xff 0 1\n")

    def test_empty_input_is_error(self, load_from_text):
        with pytest.raises(EmbeddingParseError):
            load_from_text("")

    @pytest.mark.parametrize("text", [b"", b"2 2\n"], ids=["empty", "header-only"])
    def test_no_usable_rows_names_the_table(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_bytes(text)
        named = f"no usable vector rows in {re.escape(str(path))}$"
        with pytest.raises(EmbeddingParseError, match=named):
            load_embeddings(path)  # a cache miss

    def test_expected_dim_mismatch(self, load_from_text, tmp_path):
        with pytest.raises(EmbeddingParseError) as info:
            load_from_text("a 1 2\n", expected_dim=3)
        path = tmp_path / "emb.txt"
        assert str(info.value) == f"{path}: line 1: dimension 2 does not match expected 3"
        assert info.value.line_number == 1

    def test_duplicates_keep_first(self, load_from_text, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            table = load_from_text("a 1 2\na 9 9\nb 3 4\n")
        assert len(table) == 2
        assert table.n_duplicates == 1
        np.testing.assert_array_equal(row(table, "a"), [1.0, 2.0])
        assert caplog.messages == [f"{tmp_path / 'emb.txt'}: duplicate tokens ignored: 1 (line 2)"]

    def test_zero_vector_dropped_with_warning(self, load_from_text, tmp_path, caplog):
        with caplog.at_level(logging.WARNING):
            table = load_from_text("a 0 0\nb 1 1\n")
        assert len(table) == 1
        assert table.n_zero_dropped == 1
        assert "a" not in table
        assert caplog.messages == [f"{tmp_path / 'emb.txt'}: all-zero vectors dropped: 1 (line 1)"]

    def test_one_summary_line_per_load(self, load_from_text, tmp_path, caplog):
        text = "a 1 2\n" + "a 3 4\n" * 7 + "z 0 0\ny 0 0\nb 0 1\n"
        with caplog.at_level(logging.WARNING):
            table = load_from_text(text)
        assert (table.n_duplicates, table.n_zero_dropped) == (7, 2)
        assert caplog.messages == [
            f"{tmp_path / 'emb.txt'}: duplicate tokens ignored: 7 (lines 2, 3, 4, 5, 6, ...); "
            "all-zero vectors dropped: 2 (lines 9, 10)"
        ]

    def test_crlf_and_blank_lines(self, load_from_text):
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

    def test_small_chunks_equivalent(self, load_from_text, monkeypatch):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(10, 4))
        lines = [f"t{i} " + " ".join(repr(float(x)) for x in v) for i, v in enumerate(vecs)]
        lines[3] = "t1 1 2 3 4"  # duplicate, ignored
        lines[6] = "z 0 0 0 0"  # all-zero, dropped
        text = "\n".join(lines) + "\n"
        kept = [i for i in range(10) if i not in (3, 6)]
        full = load_from_text(text)
        np.testing.assert_array_equal(all_rows(full), vecs[kept])
        monkeypatch.setattr(embeddings, "_read_entry", lambda *args: None)  # parse every load
        for rows in (1, 3):
            monkeypatch.setattr(embeddings, "_BATCH_BYTES", rows * 8 * 4)
            tiny = load_from_text(text)
            assert tiny.vocabulary == full.vocabulary
            np.testing.assert_array_equal(all_rows(tiny), all_rows(full))
            np.testing.assert_array_equal(tiny.row_norms, full.row_norms)

    def test_table_is_immutable(self, load_from_text):
        table = load_from_text("a 1 0\nb 0 1\n")
        with pytest.raises(TypeError):
            table.matrix[0] = 5.0
        rows = all_rows(table)
        rows[0, 0] = 5.0
        np.testing.assert_array_equal(all_rows(table), [[1.0, 0.0], [0.0, 1.0]])
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
    # whitespace that str.split splits on, but the compiled parser keeps in a token
    "nbsp-before-token": ("\xa0a 1 2\nb 0 1\n".encode(), [("a", [1.0, 2.0]), ROWS_B], 0, 0),
    "separator-in-token": (b"b 0 1\na\x1cc 1 2\n", 2, "non-numeric field in row for 'a'"),
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
    # the rounded squares sum past the largest float, so the row-wise norm
    # is inf, though a BLAS dot product of the row with itself is finite
    "norm-overflows-in-one-order": (
        b"b 0 1\nbig 8.256162486418872e+153 1.0564331236953966e+154\n", 2,
        "non-finite value or norm in row for 'big'",
    ),
    "comment-sign": (b"b 0 1\na #0 1\n", 2, "non-numeric field in row for 'a'"),
    "hex-float": (b"a 0x1p1 1\n", 1, "non-numeric field in row for 'a'"),
    "short-row": (b"a 1 2\nb\n", 2, "row has a token but no values"),
    "dimension-change": (b"a 1 2\nb 1 2 3\n", 2, "row has dimension 3, table has 2"),
    "header": (b"2 2\na 1 2\nb 0 1\n", [("a", [1.0, 2.0]), ROWS_B], 0, 0),
    # only line 1 can be a header; two integers later are a row
    "header-like-row": (b"b 0 1\n2 2\n", 2, "row has dimension 1, table has 2"),
    "blank-lines": (b"\na 1 2\n   \n\t\r\nb 0 1\n\n", [("a", [1.0, 2.0]), ROWS_B], 0, 0),
    "blank-lines-then-error": (b"a 1 2\n\n \nb 1 x\n", 4, "non-numeric field in row for 'b'"),
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


def _check_parse(path, data, *expected):
    """Write ``data`` to ``path``, load it, and check the table or the error it gives."""
    path.write_bytes(data)
    if isinstance(expected[0], int):
        line, message = expected
        with pytest.raises(EmbeddingParseError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{path}: line {line}: {message}"
        assert info.value.line_number == line
        return
    rows, n_dup, n_zero = expected
    table = load_embeddings(path)
    assert list(table.vocabulary) == [w for w, _ in rows]
    assert list(table.vocabulary.values()) == list(range(len(rows)))
    want = np.array([v for _, v in rows], dtype=np.float64)
    matrix = all_rows(table)
    assert matrix.dtype == np.float64 and matrix.shape == want.shape
    assert matrix.tobytes() == want.tobytes()
    assert table.row_norms.tobytes() == np.linalg.norm(want, axis=1).tobytes()
    assert (table.n_duplicates, table.n_zero_dropped) == (n_dup, n_zero)


class TestParseEdgeCases:
    @pytest.mark.parametrize("case", list(PARSE_CASES))
    def test_stream(self, tmp_path, case):
        # the case as the whole file, so its odd row is in the first batch
        _check_parse(tmp_path / "emb.txt", *PARSE_CASES[case])

    @pytest.mark.parametrize("batch_bytes", [1, 20])
    @pytest.mark.parametrize("case", list(PARSE_CASES))
    def test_in_a_later_batch(self, tmp_path, monkeypatch, case, batch_bytes):
        # one line per batch, or the odd row after filler rows in its batch
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", batch_bytes)
        _check_parse(tmp_path / "emb.txt", *_with_filler(case))

    @pytest.mark.parametrize("case", list(PARSE_CASES))
    def test_file_twice(self, tmp_path, case):
        # the second load of the same file may come from the embedding cache
        for _ in range(2):
            _check_parse(tmp_path / "emb.txt", *_with_filler(case))


def _table_file(path, n_words=2000, dim=50, seed=2):
    """A table of about 1.8 MB with a duplicate and an all-zero row."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n_words, dim))
    lines = [f"t{i} " + " ".join(repr(float(x)) for x in v) for i, v in enumerate(vecs)]
    lines[7] = "t3 " + " ".join(["1"] * dim)
    lines[11] = "zero " + " ".join(["0"] * dim)
    path.write_text("\n".join(lines) + "\n")
    return path


def _entry_name(digest):
    """The name of the cache entry of the table with SHA-256 ``digest``."""
    return f"{embeddings._CACHE_FORMAT}-{digest}"


def _entries(cache_home):
    """The table entries in the cache, beside the compiled library that a parse may build."""
    return list((cache_home / "claimdist").glob(_entry_name("*")))


def _entry(cache_home):
    (entry,) = _entries(cache_home)
    return entry


def _assert_same_table(a, b):
    assert list(a.vocabulary.items()) == list(b.vocabulary.items())
    assert np.array_equal(all_rows(a), all_rows(b))
    assert np.array_equal(a.row_norms, b.row_norms)
    assert (a.dimension, a.n_duplicates, a.n_zero_dropped, a.source_name) == (
        b.dimension, b.n_duplicates, b.n_zero_dropped, b.source_name,
    )


def _no_parse(*args, **kwargs):
    raise AssertionError("the text was parsed again")


def _rewrite_in_place(path, data):
    """Write ``data``, as long as the file, over ``path``, then set its mtime back.

    The write comes a clock tick or more after the file's last change, so
    that it gets another ctime.
    """
    st = path.stat()
    assert len(data) == st.st_size
    time.sleep(max(0.0, (st.st_ctime_ns + 20_000_000 - time.time_ns()) / 1e9))
    with open(path, "r+b") as fh:
        fh.write(data)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    now = path.stat()
    assert (now.st_size, now.st_mtime_ns) == (st.st_size, st.st_mtime_ns)
    assert now.st_ctime_ns != st.st_ctime_ns


class TestEmbeddingCache:
    def test_hit_equals_cold(self, tmp_path, private_cache_home, monkeypatch, caplog):
        path = _table_file(tmp_path / "emb.txt")
        with caplog.at_level(logging.WARNING):
            cold = load_embeddings(path)
            assert _entry(private_cache_home).name == _entry_name(embeddings.file_sha256(path))
            monkeypatch.setattr(embeddings, "_Rows", _no_parse)
            hit = load_embeddings(path)
        _assert_same_table(hit, cold)
        assert hit.source_name == str(path)
        with pytest.raises(TypeError):
            hit.matrix[0] = 0.0
        # the batch-wise norms equal the whole-matrix norm exactly
        assert np.array_equal(cold.row_norms, np.linalg.norm(all_rows(cold), axis=1))
        summary = (
            f"{path}: duplicate tokens ignored: 1 (line 8); all-zero vectors dropped: 1 (line 12)"
        )
        assert caplog.messages == [summary, summary]

    def test_clean_rows_take_the_batch_parser(self, tmp_path, monkeypatch, compiled_batches):
        path = tmp_path / "emb.txt"
        path.write_text("".join(f"w{i} {i + 1} 0.5 -2e-3\n" for i in range(5000)))
        # with the library, the per-line number conversion is only the
        # fallback for odd rows
        monkeypatch.setattr(embeddings, "_row_values", _no_parse)
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", 16 << 10)
        assert len(load_embeddings(path)) == 5000
        assert len(compiled_batches) > 1 and all(compiled_batches)

    def test_digest_passed_in_keys_the_same_entry(self, tmp_path, private_cache_home):
        path = _table_file(tmp_path / "emb.txt", n_words=20)
        cold = load_embeddings(path)
        hit = load_embeddings(path, sha256=embeddings.file_sha256(path))
        _assert_same_table(hit, cold)
        assert len(_entries(private_cache_home)) == 1

    def test_truncated_matrix_is_a_miss_and_rewritten(
        self, tmp_path, private_cache_home, monkeypatch
    ):
        path = _table_file(tmp_path / "emb.txt")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other-cache"))
        parsed = load_embeddings(path)  # outside the cache under test
        monkeypatch.setenv("XDG_CACHE_HOME", str(private_cache_home))
        cold = load_embeddings(path)
        matrix_file = _entry(private_cache_home) / "matrix.f64"
        size = matrix_file.stat().st_size
        with open(matrix_file, "r+b") as fh:
            fh.truncate(size // 2)
        # the cold table reads its rows from that file: a short read fails
        with pytest.raises(OSError, match="ends before row"):
            all_rows(cold)
        _assert_same_table(load_embeddings(path), parsed)
        assert matrix_file.stat().st_size == size
        monkeypatch.setattr(embeddings, "_Rows", _no_parse)
        _assert_same_table(load_embeddings(path), parsed)

    @pytest.mark.parametrize("bad_norm", [np.inf, np.nan, 0.0])
    def test_bad_stored_norm_is_a_miss_and_rewritten(
        self, tmp_path, private_cache_home, monkeypatch, bad_norm
    ):
        path = _table_file(tmp_path / "emb.txt")
        cold = load_embeddings(path)
        norms_file = _entry(private_cache_home) / "norms.npy"
        norms = np.load(norms_file)
        norms[5] = bad_norm
        np.save(norms_file, norms)
        parses = []
        real_rows = embeddings._Rows
        monkeypatch.setattr(
            embeddings, "_Rows", lambda *args: parses.append(1) or real_rows(*args)
        )
        _assert_same_table(load_embeddings(path), cold)
        assert parses == [1]
        assert np.array_equal(np.load(norms_file), cold.row_norms)

    def test_editing_a_table_leaves_one_entry_for_it(self, tmp_path, private_cache_home):
        path = tmp_path / "emb.txt"
        kept = _table_file(tmp_path / "kept.txt", n_words=20, seed=3)
        load_embeddings(kept)
        for seed in (4, 5):
            load_embeddings(_table_file(path, n_words=20, seed=seed))
        digests = {embeddings.file_sha256(kept), embeddings.file_sha256(path)}
        assert {e.name for e in _entries(private_cache_home)} == {_entry_name(d) for d in digests}

    def test_entry_of_a_deleted_table_is_removed(self, tmp_path, private_cache_home):
        a = _table_file(tmp_path / "a.txt", n_words=20, seed=3)
        load_embeddings(a)
        a.unlink()
        b = _table_file(tmp_path / "b.txt", n_words=20, seed=4)
        load_embeddings(b)
        assert _entry(private_cache_home).name == _entry_name(embeddings.file_sha256(b))

    @pytest.mark.parametrize("change", ["mtime", "size", "rewritten", "no-source", "no-meta"])
    def test_entry_that_cannot_be_hit_is_removed(
        self, tmp_path, private_cache_home, change
    ):
        a = _table_file(tmp_path / "a.txt", n_words=20, seed=3)
        load_embeddings(a)
        meta_file = _entry(private_cache_home) / "meta.json"
        if change == "mtime":
            st = a.stat()
            os.utime(a, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
        elif change == "size":
            meta = json.loads(meta_file.read_text())
            meta["source_stat"][2] += 1
            meta_file.write_text(json.dumps(meta))
        elif change == "rewritten":  # other bytes, same size, mtime set back: a new ctime
            _rewrite_in_place(a, b"u" + a.read_bytes()[1:])
        elif change == "no-source":
            meta = json.loads(meta_file.read_text())
            del meta["source"]
            meta_file.write_text(json.dumps(meta))
        else:
            meta_file.unlink()
        b = _table_file(tmp_path / "b.txt", n_words=20, seed=4)
        load_embeddings(b)
        assert _entry(private_cache_home).name == _entry_name(embeddings.file_sha256(b))

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
        assert _entries(private_cache_home) == [entry]

    def test_expected_dim_mismatch_on_a_hit_gives_the_parse_error(self, tmp_path):
        path = _table_file(tmp_path / "emb.txt", n_words=20)
        load_embeddings(path)
        with pytest.raises(EmbeddingParseError) as info:
            load_embeddings(path, expected_dim=3)
        assert str(info.value) == f"{path}: line 1: dimension 50 does not match expected 3"


def _kept_rows(path):
    """The rows a load keeps, parsed independently: first occurrences, nonzero."""
    rows = {}
    for line in path.read_text().splitlines():
        token, *values = line.split()
        vec = [float(v) for v in values]
        if token not in rows and any(vec):
            rows[token] = vec
    return np.array(list(rows.values()))


def _block_cache(tmp_path, monkeypatch):
    """Point the cache below a plain file, so that it cannot be written."""
    (tmp_path / "blocker").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "blocker" / "cache"))


@pytest.fixture
def sinks(monkeypatch):
    """Every file that a load's parsed rows go to, in order."""
    sinks = []
    rows_init = embeddings._Rows.__init__

    def recording_init(self, expected_dim, sink, sink_dir):
        sinks.append(sink)
        rows_init(self, expected_dim, sink, sink_dir)

    monkeypatch.setattr(embeddings._Rows, "__init__", recording_init)
    return sinks


def _load_as(kind, path, monkeypatch, tmp_path):
    if kind == "unwritable":
        _block_cache(tmp_path, monkeypatch)
    if kind == "hit":
        load_embeddings(path)
        monkeypatch.setattr(embeddings, "_Rows", _no_parse)
    return load_embeddings(path)


READER_KINDS = ["cold", "hit", "unwritable"]


class TestRowReader:
    @pytest.mark.parametrize("kind", READER_KINDS)
    def test_rows_equal_the_parsed_rows(self, tmp_path, monkeypatch, kind):
        path = _table_file(tmp_path / "emb.txt")
        want = _kept_rows(path)
        table = _load_as(kind, path, monkeypatch, tmp_path)
        assert len(table) == len(want)
        last = len(want) - 1
        every = list(range(len(want)))
        for key in (np.array([17, 3, 17, last, 0, 4, 3, last]), [2, 1], [5], [],
                    np.array([], dtype=np.intp), every[10:400:7], every[::-3], every):
            got = table.matrix[key]
            assert got.dtype == np.float64 and got.shape == want[key].shape
            assert got.tobytes() == want[key].tobytes()

    @pytest.mark.parametrize("kind", READER_KINDS)
    def test_bad_index_raises(self, tmp_path, monkeypatch, kind):
        path = _table_file(tmp_path / "emb.txt", n_words=20)
        table = _load_as(kind, path, monkeypatch, tmp_path)
        n = len(table)
        for key in ([n], [-1], [0, n], np.array([-n - 1, 0])):
            with pytest.raises(IndexError):
                table.matrix[key]
        # an element, a row, a slice, a 2-D block or a mask of an ndarray, or
        # a float an ndarray rejects; 1-D row numbers only here
        mask = np.zeros(n, dtype=bool)
        mask[1] = True
        for key in ((0, 1), 0, np.intp(1), slice(None), [[0, 1]], np.zeros((2, 2), np.intp),
                    mask, [False, True], [1.7], np.array([1.0])):
            with pytest.raises(TypeError):
                table.matrix[key]

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

    @pytest.mark.parametrize("kind", ["file", "unwritable"])
    def test_parse_error_leaves_no_directory_and_no_open_file(
        self, tmp_path, private_cache_home, monkeypatch, sinks, kind
    ):
        path = _table_file(tmp_path / "emb.txt", n_words=200)
        path.write_text(path.read_text() + "late 1 oops\n" + "after 1 2\n" * 5)
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", 4096)
        if kind == "unwritable":  # the rows go to a temporary file, not the cache
            _block_cache(tmp_path, monkeypatch)
        with pytest.raises(EmbeddingParseError, match="line 201"):
            load_embeddings(path)
        assert len(sinks) == 1 and sinks[0].closed
        root = private_cache_home / "claimdist"
        # the table's digest memo stays: its hash was right
        assert not root.exists() or [
            p.name[:7] for p in root.iterdir() if not p.name.startswith("memo-")
        ] in ([], ["native-"])


def _declined(self, half, lineno):
    return None


# The ways a load can read a table: batches read by the compiled parser
# where it takes them, every batch declined by it (and read line by line),
# and no compiled library at all (no helper thread either).
PARSERS = ["compiled", "declined", "no-library"]


def _use_parser(monkeypatch, parser: str):
    if parser == "declined":
        monkeypatch.setattr(embeddings._CompiledBatch, "result", _declined)
    elif parser == "no-library":
        monkeypatch.setattr(native, "library", lambda: None)


@pytest.fixture
def compiled_batches(request, monkeypatch):
    """Record, in the order they are kept, whether each batch's head and tail were read by the compiled parser.

    It needs the library, unless the test's ``parser`` is ``no-library``.
    """
    callspec = getattr(request.node, "callspec", None)
    if callspec is None or callspec.params.get("parser") != "no-library":
        require_library()
    taken = []
    real = embeddings._CompiledBatch.result

    def recording(self, half, lineno):
        got = real(self, half, lineno)
        taken.append(got is not None)
        return got

    monkeypatch.setattr(embeddings._CompiledBatch, "result", recording)
    return taken


# Fields of the odd tables, besides random short decimals: numbers the
# compiled parser takes and numbers it leaves to the line parser (from
# conftest), values that make a row's norm zero or not finite, and
# non-numbers.
_ZERO_FIELDS = ["0", "-0.0", "0e5", "000", ".0", "5e-324", "1e-400"]
_NON_FINITE_FIELDS = ["inf", "-Infinity", "nan", "1e400"]
_BAD_FIELDS = ["two", "1.2.3", "--1", "1e", "e5", ".", "#0", "0x1p1", "1,5", "0x10"]
_ODD_NUMBERS = [f for f in DECLINED_FIELDS if f not in _BAD_FIELDS + _NON_FINITE_FIELDS]


def odd_table(seed: int) -> bytes:
    """A small table of 1-3 columns with odd fields, separators and rows, from ``seed``."""
    rng = random.Random(seed)
    dim = rng.randint(1, 3)

    def field() -> str:
        r = rng.random()
        if r < 0.85:
            return rng.choice(["{:.{}f}", "{:.{}e}", "{:.{}g}"]).format(
                rng.uniform(-2, 2), rng.randint(0, 6)
            )
        return rng.choice(
            [FAST_FIELDS, _ODD_NUMBERS, _ZERO_FIELDS, _NON_FINITE_FIELDS, _BAD_FIELDS][
                (r < 0.91) + (r < 0.95) + (r < 0.97) + (r < 0.99)
            ]
        )

    lines = [f"{rng.randint(1, 30)} {dim}".encode()] if rng.random() < 0.15 else []
    for _ in range(rng.randint(1, 10)):
        r = rng.random()
        sep = " " if rng.random() < 0.8 else rng.choice(["  ", "\t", "\xa0", " \t", "\x0c"])
        token = rng.choice("abcdef")
        if rng.random() < 0.05:  # whitespace that only str.split splits on
            token = rng.choice(["\xa0a", "a\x1cb", "b\u2003", "\x1fc"])
        if r < 0.05:
            line = rng.choice(["", "  ", "\t", "\r"])
        elif r < 0.07:
            line = token  # a token but no values
        elif r < 0.12:
            line = sep.join([token] + [rng.choice(_ZERO_FIELDS[:4])] * dim)
        elif r < 0.14:
            line = sep.join([token] + [field() for _ in range(dim + rng.choice([-1, 1]))])
        else:
            line = sep.join([token] + [field() for _ in range(dim)])
        line += rng.choice(["", "", "", "", " ", "\r"])
        raw = line.encode()
        if rng.random() < 0.02:
            raw = raw[: rng.randint(0, len(raw))] + b"\xff" + raw[len(raw) // 2 :]
        lines.append(raw)
    return b"\n".join(lines) + rng.choice([b"\n", b""])


def _load_as_reference(path) -> ReferenceTable:
    """Load ``path`` and describe the table, or the error's line, as the reference does."""
    try:
        table = load_embeddings(path)
    except EmbeddingParseError as exc:
        return ReferenceTable(error_line=exc.line_number or 0)
    assert list(table.vocabulary.values()) == list(range(len(table)))
    return ReferenceTable(
        words=tuple(table.vocabulary),
        matrix=all_rows(table),
        norms=table.row_norms,
        n_duplicates=table.n_duplicates,
        n_zero_dropped=table.n_zero_dropped,
    )


def _assert_same_as_reference(got: ReferenceTable, want: ReferenceTable, what: str):
    assert got.error_line == want.error_line, what
    if want.error_line is None:
        assert got.words == want.words, what
        assert (got.n_duplicates, got.n_zero_dropped) == (want.n_duplicates, want.n_zero_dropped)
        for a, b in ((got.matrix, want.matrix), (got.norms, want.norms)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), what
            assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), what


class TestParsersAgainstReference:
    """The compiled parser and the line-by-line fallback against ``reference_table``."""

    @staticmethod
    def _check_chunk(tmp_path, monkeypatch, chunk, parsers):
        """Load 40 odd tables in each of ``parsers``' ways, as cache misses, as the reference does."""
        monkeypatch.setattr(embeddings, "_read_entry", lambda *args: None)  # parse every load
        path = tmp_path / "emb.txt"
        outcomes = set()
        for seed in range(chunk * 40, chunk * 40 + 40):
            data = odd_table(seed)
            path.write_bytes(data)
            want = reference_table(data)
            outcomes.add(want.error_line is None)
            for parser in parsers:
                with monkeypatch.context() as m:
                    _use_parser(m, parser)
                    # a whole table in one batch split between the threads,
                    # and one or two lines per batch
                    for batch_bytes in (1 << 20, 8):
                        m.setattr(embeddings, "_BATCH_BYTES", batch_bytes)
                        got = _load_as_reference(path)
                        what = f"seed {seed}, {parser}, {batch_bytes}-byte batches: {data!r}"
                        _assert_same_as_reference(got, want, what)
        # the chunk has tables that load and tables that fail
        assert outcomes == {True, False}

    @pytest.mark.parametrize("chunk", range(8))
    def test_odd_tables(self, tmp_path, monkeypatch, compiled_batches, chunk):
        # every half the compiled parser takes gives the rows the line
        # parser gives for the same bytes
        result, compared = embeddings._CompiledBatch.result, []

        def compared_with_the_line_parser(self, half, lineno):
            got = result(self, half, lineno)
            if got is not None:
                first, last, *_ = self._parts[half]
                want = embeddings._line_rows(self._batch[first:last], lineno)
                assert (got[0], got[3], got[4]) == (want[0], want[3], want[4])
                assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
                compared.append(len(got[0]))
            return got

        monkeypatch.setattr(embeddings._CompiledBatch, "result", compared_with_the_line_parser)
        # 8 chunks of 40 tables, each loaded four ways
        self._check_chunk(tmp_path, monkeypatch, chunk, ["compiled", "declined"])
        # with halves that the compiled parser read and declined, and
        # compared halves with rows and without
        assert set(compiled_batches) == {True, False}
        assert min(compared) == 0 and max(compared) > 0

    @pytest.mark.parametrize("chunk", range(8), ids=lambda chunk: f"no-library-{chunk}")
    def test_odd_tables_without_the_library(self, tmp_path, monkeypatch, chunk):
        # the only parser of a host without a compiler
        self._check_chunk(tmp_path, monkeypatch, chunk, ["no-library"])

    def test_generator_covers_the_edges(self):
        text = b"".join(odd_table(seed) for seed in range(200))
        for needle in [b"\t", b"\r", b"\xa0", b"\x1c", b"\xff", b"1_0", b"inf", b"0x", b"2 1\n"]:
            assert needle in text, needle
        assert sum(f.encode() in text for f in FAST_FIELDS) > len(FAST_FIELDS) // 2
        assert b"9007199254740993e-22" in text


def _numbered_table(path, n_rows, bad_row, bad_line):
    """``n_rows`` rows ``w<i>`` of four columns; line ``bad_row`` (1-based) is ``bad_line``."""
    rng = np.random.default_rng(40)
    values = rng.uniform(-1, 1, size=(n_rows, 4)).round(4)
    lines = [f"w{i} " + " ".join(map(str, row)) for i, row in enumerate(values.tolist())]
    lines[bad_row - 1] = bad_line
    path.write_text("\n".join(lines) + "\n")


# A bad row 40,000 of a table, and its error
LATE_BAD_ROWS = [
    ("w39999 0.5 oops 0.25 1", "non-numeric field in row for 'w39999'"),
    ("w39999", "row has a token but no values"),
]


class TestLateBatches:
    @pytest.mark.parametrize("bad_line, message", LATE_BAD_ROWS, ids=["non-numeric", "short-row"])
    def test_error_in_row_40000_names_its_line(
        self, tmp_path, monkeypatch, compiled_batches, bad_line, message
    ):
        self._check(tmp_path, monkeypatch, bad_line, message, ["compiled", "declined"])
        # every half batch before the bad one was read by the compiled parser
        assert len(compiled_batches) > 100 and all(compiled_batches[:-1])

    @pytest.mark.parametrize(
        "bad_line, message", LATE_BAD_ROWS, ids=["no-library-non-numeric", "no-library-short-row"]
    )
    def test_error_in_row_40000_names_its_line_without_the_library(
        self, tmp_path, monkeypatch, bad_line, message
    ):
        self._check(tmp_path, monkeypatch, bad_line, message, ["no-library"])

    @staticmethod
    def _check(tmp_path, monkeypatch, bad_line, message, parsers):
        path = tmp_path / "emb.txt"
        _numbered_table(path, 40_010, 40_000, bad_line)
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", 16 << 10)
        for parser in parsers:
            with monkeypatch.context() as m:
                _use_parser(m, parser)
                with pytest.raises(EmbeddingParseError) as info:
                    load_embeddings(path)
            assert str(info.value) == f"{path}: line 40000: {message}"
            assert info.value.line_number == 40_000

    def test_warm_load_starts_no_compiler_and_loads_no_library(self, tmp_path):
        path = _table_file(tmp_path / "emb.txt", n_words=20)
        cold = load_embeddings(path)
        check = (
            "import sys, threading; from claimdist import embeddings, native; "
            "threads = threading.active_count(); "
            f"table = embeddings.load_embeddings({str(path)!r}); "
            "assert native.library.cache_info().currsize == 0, 'the library was loaded'; "
            "assert 'subprocess' not in sys.modules, 'subprocess was imported'; "
            "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures was imported'; "
            "assert threading.active_count() == threads, 'a thread was started'; "
            "print(len(table))"
        )
        src = str(Path(embeddings.__file__).parents[1])
        env = {**os.environ, "PATH": "", "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{len(cold)}\n"


class TestBatchOrder:
    """Batches read on the helper thread are kept in file order, with their own line numbers."""

    @pytest.fixture(autouse=True)
    def no_thread_left(self):
        # switching threads often makes more orders of the two threads' steps
        threads, interval = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads

    def _load(self, path, data, monkeypatch, batch_bytes):
        """Load ``data`` in batches of ``batch_bytes`` (one line each for 1) as the reference does."""
        path.write_bytes(data)
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", batch_bytes)
        got = _load_as_reference(path)
        _assert_same_as_reference(got, reference_table(data), repr(data))
        return got

    def test_duplicate_in_the_next_batch_keeps_its_first_row(
        self, tmp_path, monkeypatch, compiled_batches, caplog
    ):
        data = b"a 1 2\na 3 4\nb 5 6\nc 0 1\nb 7 8\n"
        with caplog.at_level(logging.WARNING):
            got = self._load(tmp_path / "emb.txt", data, monkeypatch, 1)
        assert got.words == ("a", "b", "c") and got.matrix[0].tolist() == [1.0, 2.0]
        assert caplog.messages == [f"{tmp_path / 'emb.txt'}: duplicate tokens ignored: 2 (lines 2, 5)"]
        assert compiled_batches == [True] * 10  # the head and the empty tail of each line

    def test_declined_batch_between_compiled_batches(self, tmp_path, monkeypatch, compiled_batches):
        data = b"a 1 2\nb 3 4\nc 1_0 2\nd 5 6\ne 7 8\n"
        got = self._load(tmp_path / "emb.txt", data, monkeypatch, 1)
        assert got.matrix[2].tolist() == [10.0, 2.0]
        assert compiled_batches == [True, True] * 2 + [False, True] + [True, True] * 2

    def test_bad_row_after_a_compiled_batch_names_the_first_bad_line(
        self, tmp_path, monkeypatch, compiled_batches
    ):
        # the helper has read line 4, also bad, when line 3 fails
        path = tmp_path / "emb.txt"
        path.write_bytes(b"a 1 2\nb 3 4\nc 5 oops\nd\ne 7 8\n")
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", 1)
        with pytest.raises(EmbeddingParseError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{path}: line 3: non-numeric field in row for 'c'"
        assert compiled_batches == [True, True] * 2 + [False]

    @pytest.mark.parametrize("parser", PARSERS)
    @pytest.mark.parametrize("batch_bytes", [1 << 20, 1, 12])
    def test_header_and_blank_lines_keep_line_numbers(
        self, tmp_path, monkeypatch, compiled_batches, caplog, batch_bytes, parser
    ):
        _use_parser(monkeypatch, parser)
        data = b"3 2\n\na 1 2\n \t\r\nz 0 0\n\na 5 5\r\nb 0 1\n\n"
        with caplog.at_level(logging.WARNING):
            self._load(tmp_path / "emb.txt", data, monkeypatch, batch_bytes)
        assert caplog.messages == [
            f"{tmp_path / 'emb.txt'}: duplicate tokens ignored: 1 (line 7); "
            "all-zero vectors dropped: 1 (line 5)"
        ]
        if parser == "compiled":
            assert compiled_batches and all(compiled_batches)
        # a later batch of longer rows names its first line
        data += b"\nc 1 2 3\nd 4 5 6\n"
        self._load(tmp_path / "emb.txt", data, monkeypatch, batch_bytes)
        with pytest.raises(EmbeddingParseError, match="line 11: row has dimension 3, table has 2"):
            load_embeddings(tmp_path / "emb.txt")


    # A header, blank lines with and without blanks, CRLF lines, duplicates
    # (lines 7 and 10) and all-zero rows (lines 6 and 11)
    SPLIT_TABLE = b"3 2\na 1 2\n\nb 3 4\r\n \t\nz 0 0\na 5 5\r\n\nc 0 1\nb 7 7\ny 0 0\n"

    @pytest.mark.parametrize("parser", ["compiled", "declined"])
    def test_split_batches_keep_file_order_and_line_numbers(
        self, tmp_path, monkeypatch, compiled_batches, caplog, parser
    ):
        _use_parser(monkeypatch, parser)
        halves = []
        start = embeddings._CompiledBatch.start

        def recording(self, batch):
            start(self, batch)
            halves.append([batch[first:last] for first, last, *_ in self._parts])

        monkeypatch.setattr(embeddings._CompiledBatch, "start", recording)
        monkeypatch.setattr(embeddings, "_read_entry", lambda *args: None)  # parse every load
        path = tmp_path / "emb.txt"
        for batch_bytes in (1, 8, 16, 20, 1 << 20):
            caplog.clear()
            compiled_batches.clear()
            with caplog.at_level(logging.WARNING):
                self._load(path, self.SPLIT_TABLE, monkeypatch, batch_bytes)
            assert caplog.messages == [
                f"{path}: duplicate tokens ignored: 2 (lines 7, 10); "
                "all-zero vectors dropped: 2 (lines 6, 11)"
            ], batch_bytes
            if parser == "compiled":
                assert compiled_batches and all(compiled_batches)
            # a row of another length on line 12
            self._load(path, self.SPLIT_TABLE + b"d 1 2 3\n", monkeypatch, batch_bytes)
        assert b"".join(halves[0]) == self.SPLIT_TABLE[4:10]  # the batch after the header
        # among the splits: a batch of one line, all head; a head ending in
        # a CRLF line before a tail of a blank line; a tail that is a row
        assert [b"a 1 2\n", b""] in halves
        assert [b"a 1 2\n\nb 3 4\r\n", b" \t\n"] in halves
        assert [b" \t\nz 0 0\na 5 5\r\n", b"\n"] in halves
        assert any(tail.startswith(b"y 0 0") for _, tail in halves)

    def test_a_load_allocates_two_buffer_sets(self, tmp_path, monkeypatch, compiled_batches):
        allocated = []
        allocate = embeddings._CompiledBatch._allocate

        def recording(self, capacity):
            allocated.append(capacity)
            allocate(self, capacity)

        monkeypatch.setattr(embeddings._CompiledBatch, "_allocate", recording)
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", 2 << 10)
        path = tmp_path / "emb.txt"
        path.write_text("".join(f"w{i} {i + 1} 0.5 -2e-3\n" for i in range(5000)))
        assert len(load_embeddings(path)) == 5000
        # some fifty batches, each head and tail in its region of one of two sets
        assert len(compiled_batches) > 50 and all(compiled_batches)
        assert len(allocated) == 2

    def test_an_error_in_a_head_read_ends_the_load(
        self, tmp_path, private_cache_home, monkeypatch
    ):
        require_library()
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", 16 << 10)
        heads, sinks = [], []
        parse, cache_sink = embeddings._CompiledBatch.parse, embeddings._cache_sink

        def failing(self, half):
            if half == 0:
                heads.append(threading.current_thread())
                if len(heads) == 3:
                    raise _Failure("head of batch 3")
            parse(self, half)

        def recording(entry, name):
            sinks.append(cache_sink(entry, name))
            return sinks[-1]

        monkeypatch.setattr(embeddings._CompiledBatch, "parse", failing)
        monkeypatch.setattr(embeddings, "_cache_sink", recording)
        threads = threading.active_count()
        with pytest.raises(_Failure, match="head of batch 3"):
            load_embeddings(_table_file(tmp_path / "emb.txt"))
        assert len(heads) == 3 and threading.main_thread() not in heads
        assert threading.active_count() == threads
        assert len(sinks) == 1 and sinks[0][0].closed
        assert list((private_cache_home / "claimdist").glob("." + _entry_name("*"))) == []

    def test_an_error_in_a_tail_read_waits_for_its_head(self, tmp_path, monkeypatch):
        require_library()
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", 16 << 10)
        reads, tail_failed, head_done = [0, 0], threading.Event(), threading.Event()
        parse = embeddings._CompiledBatch.parse

        def failing(self, half):
            reads[half] += 1
            if reads[half] == 3 and half == 1:
                tail_failed.set()
                raise _Failure("tail of batch 3")
            if reads[half] == 3:  # the head of batch 3 ends after its tail failed
                tail_failed.wait(timeout=10)
                time.sleep(0.05)
                head_done.set()
            parse(self, half)

        monkeypatch.setattr(embeddings._CompiledBatch, "parse", failing)
        with pytest.raises(_Failure, match="tail of batch 3"):
            load_embeddings(_table_file(tmp_path / "emb.txt"))
        assert head_done.is_set()


BOM = b"\xef\xbb\xbf"  # a UTF-8 byte-order mark


class TestByteOrderMark:
    """A byte-order mark that starts a table is dropped; one that starts a later token is kept."""

    # a duplicate of line 1 on line 4
    ROWS = b"novel 1 0\ncat 0 1\ndog 1 1\nnovel 2 2\n"

    @pytest.mark.parametrize("parser", PARSERS)
    @pytest.mark.parametrize("header", [b"", b"3 2\n"], ids=["no-header", "header"])
    @pytest.mark.parametrize("batch_bytes", [1, 1 << 20])
    def test_a_leading_mark_is_dropped_and_counts_no_line(
        self, tmp_path, monkeypatch, compiled_batches, caplog, parser, header, batch_bytes
    ):
        _use_parser(monkeypatch, parser)
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", batch_bytes)
        monkeypatch.setattr(embeddings, "_read_entry", lambda *args: None)  # parse every load
        path = tmp_path / "emb.txt"
        path.write_bytes(header + self.ROWS)
        with caplog.at_level(logging.WARNING):
            plain = load_embeddings(path)
            path.write_bytes(BOM + header + self.ROWS)
            marked = load_embeddings(path)
        assert list(marked.vocabulary) == ["novel", "cat", "dog"]
        _assert_same_table(marked, plain)
        line = 4 + bool(header)
        assert caplog.messages == [f"{path}: duplicate tokens ignored: 1 (line {line})"] * 2
        if parser == "compiled":
            assert compiled_batches and all(compiled_batches)
        path.write_bytes(BOM + header + self.ROWS + b"cow 1 2 3\n")
        with pytest.raises(EmbeddingParseError) as info:
            load_embeddings(path)
        assert str(info.value) == f"{path}: line {line + 1}: row has dimension 3, table has 2"

    @pytest.mark.parametrize("parser", PARSERS)
    @pytest.mark.parametrize("batch_bytes", [1, 1 << 20])
    def test_a_later_token_keeps_its_mark(
        self, tmp_path, monkeypatch, compiled_batches, parser, batch_bytes
    ):
        _use_parser(monkeypatch, parser)
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", batch_bytes)
        path = tmp_path / "emb.txt"
        # with one-line batches, the mark starts the second batch
        path.write_bytes(self.ROWS.replace(b"cat", BOM + b"cat"))
        table = load_embeddings(path)
        assert list(table.vocabulary) == ["novel", "\ufeffcat", "dog"]
        if parser == "compiled":
            assert compiled_batches and all(compiled_batches)

    @pytest.mark.parametrize("parser", PARSERS)
    def test_dist_scores_as_without_the_mark(self, tmp_path, monkeypatch, capsys, parser):
        _use_parser(monkeypatch, parser)
        monkeypatch.setattr(native, "start_build", lambda: None)  # no build in the background
        (tmp_path / "query.txt").write_text("novel cat")
        (tmp_path / "candidate.txt").write_text("novel dog")
        argv = ["dist", str(tmp_path / "query.txt"), str(tmp_path / "candidate.txt"),
                "--embeddings", str(tmp_path / "emb.txt")]
        distances = []
        for mark in (b"", BOM):
            (tmp_path / "emb.txt").write_bytes(mark + self.ROWS)
            assert cli.main(argv) == 0
            distances.append(json.loads(capsys.readouterr().out)["distance"])
        assert distances[0] == distances[1] == pytest.approx(0.1464466)

    @pytest.mark.parametrize("parser", PARSERS)
    def test_an_entry_of_the_older_format_is_not_read_and_is_removed(
        self, tmp_path, private_cache_home, monkeypatch, parser
    ):
        _use_parser(monkeypatch, parser)
        path = tmp_path / "emb.txt"
        path.write_bytes(BOM + self.ROWS)
        load_embeddings(path)
        # the entry an older version wrote for this table, its first token
        # with the mark
        entry = _entry(private_cache_home)
        old = entry.with_name(f"v2-{embeddings.file_sha256(path)}")
        entry.rename(old)
        (old / "vocab.txt").write_text("\ufeffnovel\ncat\ndog", encoding="utf-8")
        assert embeddings._read_entry(old, embeddings.file_sha256(path), str(path)) is not None
        table = load_embeddings(path)
        assert list(table.vocabulary) == ["novel", "cat", "dog"]
        assert not old.exists()
        assert _entry(private_cache_home).name == _entry_name(embeddings.file_sha256(path))


class TestChangedWhileRead:
    """A table whose bytes differ from the digest it was looked up by is not parsed into the cache."""

    ROWS = b"novel 1 0\ncat 0 1\ndog 1 1\n"
    SWAPPED = b"novel 0 1\ncat 1 0\ndog 1 1\n"  # as long as ROWS

    @pytest.mark.parametrize("parser", PARSERS)
    def test_a_table_changed_after_its_hash_exits_2_and_leaves_no_entry(
        self, tmp_path, private_cache_home, monkeypatch, capsys, compiled_batches, parser
    ):
        _use_parser(monkeypatch, parser)
        monkeypatch.setattr(native, "start_build", lambda: None)  # no build in the background
        path = tmp_path / "emb.txt"
        path.write_bytes(self.ROWS)
        (tmp_path / "query.txt").write_text("novel cat")
        (tmp_path / "candidate.txt").write_text("novel dog")
        file_sha256 = embeddings.file_sha256

        def hash_then_change(source):
            digest = file_sha256(source)
            path.write_bytes(self.SWAPPED)  # another writer, between the hash and the parse
            return digest

        monkeypatch.setattr(embeddings, "file_sha256", hash_then_change)
        argv = ["dist", str(tmp_path / "query.txt"), str(tmp_path / "candidate.txt"),
                "--embeddings", str(path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"data error: embedding file {path} changed while it was read\n"
        root = private_cache_home / "claimdist"
        assert not root.exists() or [p.name[:7] for p in root.iterdir()] in ([], ["native-"])
        if parser == "compiled":
            assert compiled_batches and all(compiled_batches)
        # the original bytes, loaded again, read their own rows
        monkeypatch.setattr(embeddings, "file_sha256", file_sha256)
        path.write_bytes(self.ROWS)
        table = load_embeddings(path)
        assert row(table, "novel").tolist() == [1.0, 0.0]
        assert _entry(private_cache_home).name == _entry_name(file_sha256(path))


def _memo_file(path):
    """The digest memo of the table at ``path`` in the test's cache."""
    return embeddings._memo_path(os.path.realpath(path))


def _forge_memo(path, **fields):
    """Write the memo of the table at ``path`` as its hash would, with ``fields`` changed."""
    st = os.stat(path)
    record = {
        "source": os.path.realpath(path),
        "source_stat": embeddings._stat_key(st),
        "fs_time_ns": (max(st.st_mtime_ns, st.st_ctime_ns) // 10**9 + 1) * 10**9,
        "digest": hashlib.sha256(path.read_bytes()).hexdigest(),
        **fields,
    }
    _memo_file(path).parent.mkdir(parents=True, exist_ok=True)
    _memo_file(path).write_text(json.dumps(record))


@pytest.fixture
def hashed(monkeypatch):
    """Every buffer given to a SHA-256 hash while the test runs, in order."""
    fed = []
    sha256 = hashlib.sha256

    class Recording:
        def __init__(self, data=b""):
            fed.append(bytes(data))
            self._hash = sha256(data)

        def update(self, data):
            fed.append(bytes(data))
            self._hash.update(data)

        def __getattr__(self, name):
            return getattr(self._hash, name)

    monkeypatch.setattr(hashlib, "sha256", Recording)
    return fed


def _table_bytes_hashed(fed, path):
    """How many bytes of the table at ``path`` were hashed, by the buffers in ``fed``."""
    data = path.read_bytes()
    return sum(len(b) for b in fed if len(b) >= 16 and b in data)


# Tables of TestDigestMemo, one per test that changes its table.
SETTLED = ("guard.txt", "in-place.txt", "replaced.txt")


@pytest.fixture(scope="class")
def settled(tmp_path_factory):
    """A directory of the tables in SETTLED, last changed in an earlier whole second than now.

    A memo taken from them is trusted. The fixture waits once, for the
    next whole second after the last write, and a little more: the
    filesystem's clock may lag ``time.time`` by a clock tick.
    """
    root = tmp_path_factory.mktemp("settled")
    for name in SETTLED:
        (root / name).write_bytes(TestChangedWhileRead.ROWS)
    last = max(max(p.stat().st_mtime_ns, p.stat().st_ctime_ns) for p in root.iterdir())
    time.sleep(max(0.0, (last // 10**9 + 1) - time.time()) + 0.05)
    return root


class TestDigestMemo:
    """A table's digest comes from its memo only while the memo proves the table unchanged."""

    ROWS = TestChangedWhileRead.ROWS
    SWAPPED = TestChangedWhileRead.SWAPPED
    ROWS_SHA256 = hashlib.sha256(ROWS).hexdigest()
    SWAPPED_SHA256 = hashlib.sha256(SWAPPED).hexdigest()

    @pytest.fixture(autouse=True)
    def no_background_build(self, monkeypatch):
        monkeypatch.setattr(native, "start_build", lambda: None)

    @pytest.mark.parametrize("how", ["load", "dist"])
    def test_a_warm_run_does_not_hash_the_table(self, tmp_path, settled, capsys, hashed, how):
        path = settled / "guard.txt"
        (tmp_path / "query.txt").write_text("novel cat")
        (tmp_path / "candidate.txt").write_text("novel dog")
        argv = ["dist", str(tmp_path / "query.txt"), str(tmp_path / "candidate.txt"),
                "--embeddings", str(path)]
        table_bytes = []
        for _ in range(2):
            hashed.clear()
            if how == "load":
                assert row(load_embeddings(path), "novel").tolist() == [1.0, 0.0]
            else:
                assert cli.main(argv) == 0
                assert json.loads(capsys.readouterr().out)["distance"] == pytest.approx(0.1464466)
            table_bytes.append(_table_bytes_hashed(hashed, path))
        # the cold run hashes the table twice, before and while parsing it;
        # the warm one reads only the memo
        assert table_bytes == [2 * len(self.ROWS), 0]

    def test_an_in_place_rewrite_with_its_mtime_set_back_is_hashed_again(self, settled, hashed):
        path = settled / "in-place.txt"
        assert row(load_embeddings(path), "novel").tolist() == [1.0, 0.0]
        hashed.clear()
        assert embeddings.file_sha256(path) == self.ROWS_SHA256
        assert _table_bytes_hashed(hashed, path) == 0  # the memo was trusted
        _rewrite_in_place(path, self.SWAPPED)
        assert embeddings.file_sha256(path) == self.SWAPPED_SHA256
        assert row(load_embeddings(path), "novel").tolist() == [0.0, 1.0]

    def test_a_table_replaced_by_rename_is_hashed_again(self, tmp_path, settled, hashed):
        path = settled / "replaced.txt"
        assert row(load_embeddings(path), "novel").tolist() == [1.0, 0.0]
        hashed.clear()
        assert embeddings.file_sha256(path) == self.ROWS_SHA256
        assert _table_bytes_hashed(hashed, path) == 0  # the memo was trusted
        new = tmp_path / "new.txt"
        new.write_bytes(self.SWAPPED)
        st = path.stat()
        os.utime(new, ns=(st.st_atime_ns, st.st_mtime_ns))
        os.replace(new, path)
        assert embeddings.file_sha256(path) == self.SWAPPED_SHA256
        assert row(load_embeddings(path), "novel").tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("change", ["same-second", "other-source"])
    def test_a_memo_that_does_not_prove_the_table_unchanged_is_not_trusted(
        self, tmp_path, change
    ):
        path, other = tmp_path / "emb.txt", tmp_path / "other.txt"
        path.write_bytes(self.ROWS)
        other.write_bytes(self.ROWS)
        forged = "0" * 64
        _forge_memo(path, digest=forged)  # taken in the second after the table's last change
        assert embeddings.file_sha256(path) == forged
        st = path.stat()
        if change == "same-second":  # the last nanosecond of the table's last change's second
            fields = {"fs_time_ns": max(st.st_mtime_ns, st.st_ctime_ns) // 10**9 * 10**9 + 10**9 - 1}
        else:
            fields = {"source": os.path.realpath(other)}
        _forge_memo(path, digest=forged, **fields)
        assert embeddings.file_sha256(path) == self.ROWS_SHA256
        # and the memo is written afresh
        assert json.loads(_memo_file(path).read_text())["digest"] != forged

    @pytest.mark.parametrize("how", ["not-a-directory", "rename-fails"])
    def test_a_memo_that_cannot_be_written_is_skipped_without_a_warning(
        self, tmp_path, private_cache_home, monkeypatch, capsys, caplog, hashed, how
    ):
        path = tmp_path / "emb.txt"
        path.write_bytes(self.ROWS)
        (tmp_path / "query.txt").write_text("novel cat")
        (tmp_path / "candidate.txt").write_text("novel dog")
        native.library()  # loaded before, so that a blocked cache does not stop its build
        if how == "not-a-directory":
            _block_cache(tmp_path, monkeypatch)
        else:
            replace = os.replace

            def failing_replace(src, dst):
                if Path(dst).name.startswith("memo-"):
                    raise OSError(errno.EACCES, "Permission denied")
                return replace(src, dst)

            monkeypatch.setattr(embeddings.os, "replace", failing_replace)
        argv = ["dist", str(tmp_path / "query.txt"), str(tmp_path / "candidate.txt"),
                "--embeddings", str(path)]
        with caplog.at_level(logging.WARNING):
            assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["distance"] == pytest.approx(0.1464466)
        # an entry that cannot be written warns, as before; the memo adds nothing
        assert len(caplog.messages) == (how == "not-a-directory")
        assert all("cannot write embedding cache" in m for m in caplog.messages)
        assert _table_bytes_hashed(hashed, path) == 2 * len(self.ROWS)
        root = private_cache_home / "claimdist"
        assert not root.exists() or not [p for p in root.iterdir() if "memo-" in p.name]

    def test_a_memo_the_parse_contradicts_is_removed(self, tmp_path, private_cache_home):
        path = tmp_path / "emb.txt"
        path.write_bytes(self.ROWS)
        # a trusted memo with another digest, as after a write the stat key missed
        _forge_memo(path, digest=self.SWAPPED_SHA256)
        with pytest.raises(DataError, match="changed while it was read"):
            load_embeddings(path)
        assert not _memo_file(path).exists() and _entries(private_cache_home) == []
        assert row(load_embeddings(path), "novel").tolist() == [1.0, 0.0]

    def test_memos_of_tables_gone_or_changed_are_removed_with_the_next_entry(self, tmp_path):
        gone, changed, kept, parsed = (tmp_path / f"{n}.txt" for n in "abcd")
        for path in (gone, changed, kept, parsed):
            path.write_bytes(self.ROWS)
            embeddings.file_sha256(path)
        gone.unlink()
        _rewrite_in_place(changed, self.SWAPPED)
        assert all(_memo_file(p).exists() for p in (gone, changed, kept))
        load_embeddings(parsed)
        assert [_memo_file(p).exists() for p in (gone, changed, kept, parsed)] == [
            False, False, True, True,
        ]


class _Unwritable:
    """A file whose writes fail as on a full disk; everything else is the file's."""

    def __init__(self, file):
        self.file = file

    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.file, name)


class _FailingReads:
    """A stream whose reads after the first fail, as on a failing disk."""

    def __init__(self, stream):
        self.stream = stream
        self.reads = 0

    def read(self, size):
        self.reads += 1
        if self.reads > 1:
            raise OSError(errno.EIO, "Input/output error")
        return self.stream.read(size)

    def readline(self):
        return self.stream.readline()


class TestCacheErrors:
    """A cache that cannot be written, or a table that cannot be read, in the middle of a run.

    Each run leaves no cache entry and no partial one, and the file of
    its parsed rows is closed once the run is over.
    """

    @pytest.fixture(autouse=True)
    def no_background_build(self, monkeypatch):
        monkeypatch.setattr(native, "start_build", lambda: None)

    @staticmethod
    def _run(manifest, capsys):
        rc = cli.main(["run", str(manifest), "--format", "json"])
        out, err = capsys.readouterr()
        return rc, out, err

    @staticmethod
    def _entries_and_partial_ones(cache_home):
        root = cache_home / "claimdist"
        names = [p.name for p in root.iterdir()] if root.exists() else []
        return [name for name in names if _entry_name("") in name]

    def test_a_failed_write_of_parsed_rows_exits_1_naming_the_directory(
        self, tmp_path, private_cache_home, monkeypatch, capsys, sinks
    ):
        manifest = write_corpus(tmp_path)
        cache_sink = embeddings._cache_sink

        def unwritable_sink(entry, name):
            sink, sink_dir, tmp = cache_sink(entry, name)
            return _Unwritable(sink), sink_dir, tmp

        monkeypatch.setattr(embeddings, "_cache_sink", unwritable_sink)
        rc, out, err = self._run(manifest, capsys)
        digest = embeddings.file_sha256(tmp_path / "emb.txt")
        partial = private_cache_home / "claimdist" / f".{_entry_name(digest)}."
        assert (rc, out) == (1, "")
        assert f"error: cannot write parsed embedding rows to {partial}" in err
        assert len(sinks) == 1 and sinks[0].closed
        assert self._entries_and_partial_ones(private_cache_home) == []

    def test_a_failed_read_in_the_parse_exits_1_naming_the_table(
        self, tmp_path, private_cache_home, monkeypatch, capsys, sinks
    ):
        manifest = write_corpus(tmp_path)
        monkeypatch.setattr(embeddings, "_BATCH_BYTES", 256)  # the table is about 2.4 kB
        add_batches = embeddings._add_batches
        monkeypatch.setattr(
            embeddings, "_add_batches",
            lambda stream, rows, lib: add_batches(_FailingReads(stream), rows, lib),
        )
        rc, out, err = self._run(manifest, capsys)
        assert (rc, out) == (1, "")
        assert err == (
            f"error: cannot read embedding file {tmp_path / 'emb.txt'}: "
            "[Errno 5] Input/output error\n"
        )
        assert len(sinks) == 1 and sinks[0].closed
        assert self._entries_and_partial_ones(private_cache_home) == []

    @pytest.mark.parametrize("step", ["open-rows-file", "rename-entry"])
    def test_a_cache_that_cannot_be_written_warns_once_and_is_parsed_into_again(
        self, tmp_path, private_cache_home, monkeypatch, capsys, sinks, step
    ):
        manifest = write_corpus(tmp_path)
        # warnings kept as text: a log record would keep the exception, its
        # traceback's frames and so the table and its rows file alive
        warnings = []
        with monkeypatch.context() as m:
            m.setattr(embeddings.log, "warning", lambda msg, *args: warnings.append(msg % args))
            if step == "open-rows-file":  # in the directory that mkdtemp made

                def failing_open(file, mode="r", *args, **kwargs):
                    if Path(file).name == "matrix.f64" and "w" in mode:
                        raise OSError(errno.EACCES, "Permission denied")
                    return open(file, mode, *args, **kwargs)

                m.setattr(embeddings, "open", failing_open, raising=False)
            else:  # the finished entry, into place
                replace = os.replace

                def failing_replace(src, dst):
                    if Path(dst).name.startswith(_entry_name("")):
                        raise OSError(errno.EACCES, "Permission denied")
                    return replace(src, dst)

                m.setattr(embeddings.os, "replace", failing_replace)
            rc, report, _ = self._run(manifest, capsys)
        assert rc == 0
        assert len(warnings) == 1 and "cannot write embedding cache" in warnings[0]
        assert self._entries_and_partial_ones(private_cache_home) == []
        assert len(sinks) == 1 and sinks[0].closed
        # the next run parses the table again, into the cache, for the same report
        assert self._run(manifest, capsys)[:2] == (0, report)
        assert len(sinks) == 2
        digest = embeddings.file_sha256(tmp_path / "emb.txt")
        assert self._entries_and_partial_ones(private_cache_home) == [_entry_name(digest)]


class _Failure(Exception):
    pass


def lookup_table(seed: int) -> tuple[bytes, dict[str, int]]:
    """A seeded table with odd tokens and dropped rows, and each token's first kept row.

    Its tokens are non-ASCII, one starts with a byte-order mark, some are
    longer than a vocabulary key, and some hold or end in NUL. Later rows
    of a kept token (some all-zero, some not finite) are duplicates, and
    an all-zero row can come before a token's first kept row.
    """
    rng = random.Random(seed)
    long = "x" * (embeddings._KEY_BYTES + 1)
    pool = [f"w{i}" for i in range(30)] + [
        "é", "naïve", "日本語", "\ufeffmark", long, long + "é", "é" * embeddings._KEY_BYTES,
        "nul\0mid", "end\0", "\0", "z\0\0", "w1\0",
    ]
    lines, kept = ["first 1 1"], {"first": 0}
    for _ in range(rng.randint(40, 120)):
        token, r = rng.choice(pool), rng.random()
        if r < 0.15:
            values = "0 0"
        elif r < 0.25 and token in kept:
            values = rng.choice(["nan 1", "inf 0", "1e400 1"])
        else:
            values = f"{rng.uniform(-1, 1):.4f} {rng.uniform(0.1, 1):.4f}"
        if token not in kept and values != "0 0":
            kept[token] = len(kept)
        lines.append(f"{token} {values}")
    return ("\n".join(lines) + "\n").encode(), kept


class TestVocabulary:
    @pytest.mark.parametrize("load", ["cold", "warm"])
    @pytest.mark.parametrize("parser", ["compiled", "no-library"])
    def test_every_token_finds_its_first_kept_row(
        self, tmp_path, monkeypatch, compiled_batches, parser, load
    ):
        _use_parser(monkeypatch, parser)
        rng = random.Random(7)
        path = tmp_path / "emb.txt"
        for seed in range(12):
            data, want = lookup_table(seed)
            path.write_bytes(data)
            table = load_embeddings(path)
            if load == "warm":
                with monkeypatch.context() as m:
                    m.setattr(embeddings, "_Rows", _no_parse)
                    table = load_embeddings(path)
            assert len(table) == len(want) and list(table.vocabulary) == list(want)
            words = list(want)
            assert table.row_indices(words).tolist() == list(want.values())
            assert [table.vocabulary[w] for w in words] == list(want.values())
            # strings near the tokens, and random ones, are not in the table
            near = [w + "\0" for w in words] + [w[:-1] for w in words] + ["mark", "W1", "", "x"]
            near += ["".join(rng.choice("aéx\0w1") for _ in range(rng.randint(1, 40))) for _ in range(200)]
            absent = [w for w in near if w not in want]
            assert (table.vocabulary.find(absent) == -1).all()
            assert not any(w in table for w in absent)
            mixed = words[:3] + absent[5:7] + words[3:]
            with pytest.raises(OutOfVocabularyError) as info:
                table.row_indices(mixed)
            assert str(info.value) == f"word not in embedding table: {absent[5]!r}"

    @pytest.mark.parametrize("parser", ["compiled", "no-library"])
    def test_a_table_keeps_no_object_per_token(self, tmp_path, monkeypatch, compiled_batches, parser):
        # the parent's dict of 50k tokens held about 110 bytes per token
        import tracemalloc

        _use_parser(monkeypatch, parser)
        (tmp_path / "small.txt").write_text("a 1 2\n")
        load_embeddings(tmp_path / "small.txt")  # the imports and the library a first load makes
        path = tmp_path / "emb.txt"
        path.write_text("".join(f"w{i} {i % 7 + 1} 0.5\n" for i in range(50_000)))
        tracemalloc.start()
        try:
            for _ in ("cold", "warm"):
                before = tracemalloc.get_traced_memory()[0]
                table = load_embeddings(path)
                held = tracemalloc.get_traced_memory()[0] - before
                assert len(table) == 50_000
                # keys, rows and norms take about 22 bytes per row
                assert held < 40 * len(table), held
                del table
        finally:
            tracemalloc.stop()

    def test_present(self, load_from_text):
        table = load_from_text("a 1 2\n")
        assert "a" in table
        np.testing.assert_array_equal(row(table, "a"), [1.0, 2.0])

    def test_absent(self, load_from_text):
        table = load_from_text("a 1 2\n")
        assert "zzz" not in table

    def test_exact_match_no_case_folding(self, load_from_text):
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
