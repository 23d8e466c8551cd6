"""Pretrained word-vector tables and cosine-similarity kernels.

Vectors are loaded from the plain-text format popularized by GloVe
(``token v_1 ... v_d`` per line, whitespace separated). A leading UTF-8
byte-order mark and a two-integer header line, as written by
word2vec-style text exports, are skipped. The loaded table is immutable
and every query operation is pure, so concurrent readers are safe.

The text is parsed in batches of whole lines by one parser. The
compiled parser of :mod:`claimdist.native` reads a batch in one pass,
tokens, numbers and line numbers, when every row is a token and plain
decimals it rounds exactly. Each batch is split in two: one helper
thread (a one-worker ``concurrent.futures`` pool, imported only by a
load that parses) reads the head while the main thread keeps the rows
of the batch before, then reads the tail, and the rows are kept in file
order. A half the compiled parser declines, and every batch without the
library, is read line by line with ``float`` rules, up to its first bad
row, so that the error names that row's line. Both give the same bits
for a number they both read. One row norm,
``np.linalg.norm(values, axis=1)``, both rejects a row (not finite) or
drops it (zero) and is the norm stored for it.

A loaded matrix stays on disk. The parser streams the kept rows, as raw
little-endian float64, into a file, and the table's ``matrix`` reads
just the rows it is indexed with (``os.preadv``, so POSIX only). A
run's memory therefore follows the rows it uses, not the table size.

A parsed table is kept in an on-disk cache keyed by the SHA-256 of its
file, under ``$XDG_CACHE_HOME/claimdist`` (``~/.cache/claimdist`` when
that is unset). An entry ``v3-<sha256>`` holds ``matrix.f64`` (the
rows), ``norms.npy``, ``vocab.txt`` and ``meta.json``; the parse writes
``matrix.f64`` straight into it. A later load of the same file opens the
stored rows instead of parsing the text again. Writing an entry removes
every other entry, of any format, parsed from the same file or from one
gone or changed since. Deleting the cache is always safe: a missing or
damaged entry is parsed and written again.
When the cache cannot be written, the rows go to an anonymous
temporary file under ``TMPDIR``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import shutil
import stat
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from . import native
from .errors import ConfigError, EmbeddingParseError, OutOfVocabularyError

log = logging.getLogger(__name__)

# Bytes of text parsed per batch in load_embeddings. Each of the two
# buffer sets of the compiled parser takes about 7.7 bytes per batch byte
# (values 4, line numbers about 2.7, tokens 1), shared by the batch's head
# and tail, and they set the peak memory of a cold load; about 1 MiB
# keeps that small next to the matrix.
_BATCH_BYTES = 1 << 20

# Share of each batch's bytes that the helper thread parses. The main
# thread parses the rest, after keeping the rows of the batch before, so
# that both threads take about as long on a batch.
_HEAD_SHARE = 0.8

# Directory name prefix of a cache entry; change it when its contents do.
_CACHE_FORMAT = "v3"

# Byte order and type of the stored rows.
_ROW_DTYPE = np.dtype("<f8")

# Most buffers one os.preadv call takes.
_IOV_MAX = os.sysconf("SC_IOV_MAX")

# Line numbers shown per kind of dropped row in the load summary.
_SHOWN_LINES = 5


@dataclass(frozen=True)
class EmbeddingTable:
    """Vocabulary -> row map plus a |V| x d matrix of word vectors.

    ``matrix`` is a read-only ndarray for a table built in memory, and a
    :class:`_RowFile` for a loaded one; both give a |rows| x d array when
    indexed with a 1-D sequence or array of row numbers. ``row_norms``
    caches the Euclidean norm of every row; rows with zero norm are
    rejected at load time, so all cached norms are positive.
    """

    dimension: int
    vocabulary: dict[str, int]
    matrix: np.ndarray | _RowFile
    row_norms: np.ndarray
    n_zero_dropped: int = 0
    n_duplicates: int = 0
    source_name: str = ""

    def __post_init__(self):
        if isinstance(self.matrix, np.ndarray):
            self.matrix.setflags(write=False)
        self.row_norms.setflags(write=False)

    def __len__(self) -> int:
        return len(self.vocabulary)

    def __contains__(self, word: str) -> bool:
        return word in self.vocabulary

    def row_indices(self, words: Sequence[str]) -> np.ndarray:
        """Row indices for ``words``; raises OutOfVocabularyError on a miss."""
        try:
            return np.fromiter(
                map(self.vocabulary.__getitem__, words), dtype=np.intp, count=len(words)
            )
        except KeyError as exc:
            raise OutOfVocabularyError(f"word not in embedding table: {exc.args[0]!r}") from None


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of an embedding file; an unreadable file raises ConfigError.

    So does a path that is not a regular file: a table is read twice, to
    hash it and to parse it, and a pipe or a device cannot be.
    """
    digest = hashlib.sha256()
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise ConfigError(f"cannot read embedding file {path}: not a regular file")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise ConfigError(f"cannot read embedding file {path}: {exc}") from None
    return digest.hexdigest()


class _RowFile:
    """Read-only rows of a float64 matrix stored raw in a file, read on demand.

    Indexing with a 1-D sequence or array of row numbers returns a new
    |rows| x d array of those rows and reads only their bytes. The
    reader holds the file open for its lifetime and closes it when it is
    collected.
    """

    def __init__(self, file: BinaryIO, rows: int, dim: int):
        self._rows = rows
        self._dim = dim
        self._fd = file.fileno()
        self._row_bytes = dim * _ROW_DTYPE.itemsize
        weakref.finalize(self, file.close)

    def __getitem__(self, key) -> np.ndarray:
        # an ndarray reads a tuple as one index per axis, not as rows, and
        # a boolean key as a mask; an empty list comes in as float64
        index = None if isinstance(key, tuple) else np.asarray(key)
        if index is None or index.ndim != 1 or (index.size and index.dtype.kind not in "iu"):
            raise TypeError("embedding rows are indexed by a 1-D sequence of row numbers")
        if index.size and (index.min() < 0 or index.max() >= self._rows):
            raise IndexError(f"row index out of range for a table of {self._rows} rows")
        index = index.astype(np.intp, copy=False)
        out = np.empty((index.size, self._dim), dtype=_ROW_DTYPE)
        # In file order, each run of consecutive rows is one read that
        # scatters them into their places in ``out``.
        order = np.argsort(index, kind="stable")
        run: list[np.ndarray] = []
        first = 0
        for pos, row in zip(order.tolist(), index[order].tolist()):
            if run and (row != first + len(run) or len(run) == _IOV_MAX):
                self._read(run, first)
                run = []
            if not run:
                first = row
            run.append(out[pos])
        if run:
            self._read(run, first)
        return out

    def _read(self, buffers: list[np.ndarray], first: int):
        want = len(buffers) * self._row_bytes
        if os.preadv(self._fd, buffers, first * self._row_bytes) != want:
            raise OSError(f"embedding row file ends before row {first + len(buffers)}")


class _CompiledBatch:
    """A batch of table lines as the compiled parser read it, in two halves, into reused buffers.

    :meth:`start` splits the batch at the first line end after
    ``_HEAD_SHARE`` of its bytes and lays out one region of each buffer
    for the head and one for the tail, by their bytes. :meth:`parse`
    reads one half with ``claimdist_parse_batch``, given pointers into
    the one batch (the ctypes call releases the GIL): the helper thread
    reads the head, the main thread the tail. A load swaps two of these
    after each batch, so that the helper reads the next batch's head
    while the rows of the batch before are kept; the buffers of a batch
    are reused only after that.
    """

    def __init__(self, lib):
        self._lib = lib
        self._capacity = 0
        self._sizes = np.zeros((2, 3), dtype=np.int64)
        self._parts = []  # no batch yet: nothing to keep

    def _allocate(self, capacity: int):
        # a field takes at least 2 bytes of the batch, a row 3, and each
        # half may round its share up by one
        self._values = np.empty(capacity // 2 + 2, dtype=np.float64)
        self._lines = np.empty(capacity // 3 + 2, dtype=np.int64)
        self._tokens = np.empty(capacity, dtype=np.uint8)
        self._capacity = capacity

    def start(self, batch: bytes):
        """Split ``batch`` into its head and tail, to be read by :meth:`parse`."""
        if len(batch) > self._capacity:
            self._allocate(len(batch) + _BATCH_BYTES // 4)
        split = batch.find(b"\n", int(len(batch) * _HEAD_SHARE)) + 1 or len(batch)
        # room for the head's numbers and rows; the tail has the rest
        v, r = split // 2 + 1, split // 3 + 1
        self._parts = [
            (0, split, self._values[:v], self._tokens[:split], self._lines[:r]),
            (split, len(batch), self._values[v:], self._tokens[split:], self._lines[r:]),
        ]
        self._batch = batch  # the parsers read it
        self._begin = np.frombuffer(batch, dtype=np.uint8).ctypes.data
        self._rows = [-1, -1]  # declined, until read

    def parse(self, half: int):
        """Read the head (0) or the tail (1) of the batch."""
        first, last, values, tokens, lines = self._parts[half]
        self._rows[half] = self._lib.claimdist_parse_batch(
            self._begin + first, self._begin + last,
            values.ctypes.data, values.size,
            tokens.ctypes.data, tokens.size,
            lines.ctypes.data, lines.size,
            self._sizes[half].ctypes.data,
        )

    def result(self, half: int) -> tuple[list[str], np.ndarray, np.ndarray, int] | None:
        """The tokens, numbers, line indices and newline count of a half, or None where declined.

        The compiled parser declines a half unless every line is blank or
        a token and plain decimals it rounds exactly as ``float`` does
        (``claimdist_parse_batch`` in :mod:`claimdist.native`). A half is
        declined here too when its tokens are not UTF-8 or one holds
        whitespace that ``str.split`` splits on. The numbers are a view of
        the buffer, valid until this object reads its next batch.
        """
        rows = self._rows[half]
        if rows < 0:
            return None
        _, _, values, tokens, lines = self._parts[half]
        dim, token_bytes, newlines = self._sizes[half].tolist()
        try:
            blob = str(tokens[:token_bytes], "utf-8")
        except UnicodeDecodeError:
            return None
        words = blob.split("\n") if rows else []
        if words != blob.split():
            return None
        return words, values[: rows * dim].reshape(rows, dim), lines[:rows], newlines

    def add_to(self, rows: _Rows, lineno: int) -> int:
        """Keep the head's rows, then the tail's, the first on line ``lineno``; returns the next line."""
        for half, (first, last, *_) in enumerate(self._parts):
            compiled = self.result(half)
            # a half is sliced out of the batch only to be read line by line
            part = self._batch[first:last] if compiled is None else b""
            lineno += rows.add(part, lineno, compiled)
        return lineno


def _header_bytes(batch: bytes) -> int:
    """The length of ``batch``'s first line and its newline if that line is a header, else 0.

    A word2vec-style header is two integers, the row count and the dimension.
    """
    end = batch.find(b"\n")
    line = batch if end < 0 else batch[:end]
    try:  # UnicodeDecodeError is a ValueError
        fields = line.decode("utf-8").split()
        if len(fields) != 2:
            return 0
        int(fields[0]), int(fields[1])
    except ValueError:
        return 0
    return len(line) + (end >= 0)


def _line_rows(
    batch: bytes, first_lineno: int
) -> tuple[list[str], np.ndarray | None, np.ndarray | None, int, EmbeddingParseError | None]:
    """The rows of ``batch`` read line by line with ``float`` rules, up to its first bad line.

    Returns their tokens, numbers, line numbers, the batch's newline count
    and the error of the first bad line, which ends the rows (None when
    every line is good). When no row comes before that line, the error is
    raised.
    """
    tokens, values, linenos = [], [], []
    error = None
    lines = batch.split(b"\n")
    for lineno, raw in enumerate(lines, start=first_lineno):
        try:
            parts = raw.decode("utf-8").split(None, 1)
        except UnicodeDecodeError as exc:
            error = EmbeddingParseError(f"not valid UTF-8: {exc}", lineno)
            break
        if not parts:
            continue
        if len(parts) == 1:
            error = EmbeddingParseError("row has a token but no values", lineno)
            break
        try:
            row = _row_values(parts[1])
        except ValueError:
            error = EmbeddingParseError(f"non-numeric field in row for {parts[0]!r}", lineno)
            break
        if values and row.size != values[0].size:
            error = EmbeddingParseError(
                f"row has dimension {row.size}, table has {values[0].size}", lineno
            )
            break
        tokens.append(parts[0])
        values.append(row)
        linenos.append(lineno)
    if not values:
        if error is not None:
            raise error
        return [], None, None, len(lines) - 1, None
    return tokens, np.array(values), np.array(linenos), len(lines) - 1, error


def _row_values(rest: str) -> np.ndarray:
    """The numbers after one row's token, as ``float`` reads them; raises ValueError."""
    return np.array(rest.split(), dtype=np.float64)


class _Rows:
    """The rows of a table being parsed.

    Kept rows are appended to ``sink`` as raw float64, each batch with
    its row norms kept in memory; ``sink_dir`` names where the sink is
    in a write error.
    """

    def __init__(self, expected_dim: int | None, sink: BinaryIO, sink_dir: str):
        self.expected_dim = expected_dim
        self.sink = sink
        self.sink_dir = sink_dir
        self.dim: int | None = None
        self.index: dict[str, int] = {}
        self.norms: list[np.ndarray] = []
        self.duplicate_lines: list[int] = []
        self.zero_lines: list[int] = []

    def _write(self, kept: np.ndarray | None):
        """Append ``kept`` to the sink, or flush it when None."""
        try:
            if kept is None:
                self.sink.flush()
            else:
                self.sink.write(kept.astype(_ROW_DTYPE, copy=False))
        except OSError as exc:
            raise ConfigError(
                f"cannot write parsed embedding rows to {self.sink_dir}: {exc}"
            ) from None

    def add(
        self,
        batch: bytes,
        first_lineno: int,
        compiled: tuple[list[str], np.ndarray, np.ndarray, int] | None = None,
    ) -> int:
        """Keep the rows of the whole lines in ``batch``, the first of them numbered ``first_lineno``.

        ``compiled`` is the batch as :meth:`_CompiledBatch.result` gives
        it; without it, :func:`_line_rows` reads the batch line by line.
        Returns the number of newlines in ``batch``, which the next batch's
        first line number adds. A line that is not UTF-8, has a token but
        no values, has a non-numeric field or changes the row length ends
        the batch; the rows before it are checked before its error is
        raised, so every error names the first bad line. One row norm both
        rejects a row (not finite) or drops it (zero) and is the norm
        stored for it. A duplicate token is skipped unchecked.
        """
        if compiled is None:
            tokens, values, linenos, newlines, error = _line_rows(batch, first_lineno)
        else:
            tokens, values, lines, newlines = compiled
            linenos, error = lines + first_lineno, None
        if not tokens:
            return newlines
        dim = values.shape[1]
        if self.dim is None and self.expected_dim not in (None, dim):
            raise EmbeddingParseError(
                f"dimension {dim} does not match expected {self.expected_dim}", int(linenos[0])
            )
        if self.dim not in (None, dim):
            raise EmbeddingParseError(
                f"row has dimension {dim}, table has {self.dim}", int(linenos[0])
            )
        self.dim = dim
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(values, axis=1)
        new: dict[str, int] = {}
        for i, (token, lineno, norm) in enumerate(zip(tokens, linenos.tolist(), norms.tolist())):
            if token in self.index or token in new:
                self.duplicate_lines.append(lineno)
            elif not math.isfinite(norm):
                raise EmbeddingParseError(
                    f"non-finite value or norm in row for {token!r}", lineno
                )
            elif norm == 0.0:
                self.zero_lines.append(lineno)
            else:
                new[token] = i
        if len(new) < len(values):
            kept = list(new.values())
            values, norms = values[kept], norms[kept]
        self._write(values)
        self.norms.append(norms)
        start = len(self.index)
        self.index.update(zip(new, range(start, start + len(new))))
        if error is not None:
            raise error
        return newlines

    def table(self, name: str) -> EmbeddingTable:
        """The parsed table; its matrix reads the rows back from the sink."""
        if not self.index:
            raise EmbeddingParseError(f"no usable vector rows in {name}")
        self._write(None)
        return EmbeddingTable(
            dimension=self.dim,
            vocabulary=self.index,
            matrix=_RowFile(self.sink, len(self.index), self.dim),
            row_norms=np.concatenate(self.norms),
            n_zero_dropped=len(self.zero_lines),
            n_duplicates=len(self.duplicate_lines),
            source_name=name,
        )


def _log_dropped(table: EmbeddingTable, duplicate_lines: list[int], zero_lines: list[int]):
    """One WARNING per load for the duplicate and all-zero rows it skipped.

    Only the first line numbers are needed, so a cache entry stores those.
    """
    parts = []
    for what, n, lines in (
        ("duplicate tokens ignored", table.n_duplicates, duplicate_lines),
        ("all-zero vectors dropped", table.n_zero_dropped, zero_lines),
    ):
        if n:
            shown = ", ".join(map(str, lines[:_SHOWN_LINES]))
            shown += ", ..." if n > _SHOWN_LINES else ""
            parts.append(f"{what}: {n} (line{'s' if n > 1 else ''} {shown})")
    if parts:
        log.warning("%s: %s", table.source_name, "; ".join(parts))


def _read_entry(
    entry: Path, digest: str, name: str
) -> tuple[EmbeddingTable, list[int], list[int]] | None:
    """The table stored in ``entry``, reading its rows on demand, and its dropped-row lines.

    A missing entry gives None. So does an unreadable, truncated or
    inconsistent one, such as one with a row norm that is not finite and
    positive, which is removed so that it is written again.
    """
    if not entry.is_dir():
        return None
    file = None
    try:
        meta = json.loads((entry / "meta.json").read_text(encoding="utf-8"))
        words = (entry / "vocab.txt").read_text(encoding="utf-8").split("\n")
        vocabulary = {w: i for i, w in enumerate(words)}
        norms = np.load(entry / "norms.npy")
        rows, dim = meta["rows"], meta["dimension"]
        file = open(entry / "matrix.f64", "rb")
        if not (
            meta["key"] == digest
            and norms.dtype == np.float64
            and rows == len(words) == len(vocabulary)
            and norms.shape == (rows,)
            and np.all((norms > 0.0) & (norms < np.inf))
            and os.fstat(file.fileno()).st_size == _ROW_DTYPE.itemsize * rows * dim
        ):
            raise ValueError("entry does not match its key or its own shape")
        table = EmbeddingTable(
            dimension=dim,
            vocabulary=vocabulary,
            matrix=_RowFile(file, rows, dim),
            row_norms=norms,
            n_zero_dropped=int(meta["zero_rows"]),
            n_duplicates=int(meta["duplicates"]),
            source_name=name,
        )
        dropped = [[int(n) for n in meta[key]] for key in ("duplicate_lines", "zero_lines")]
    except (OSError, ValueError, EOFError, KeyError, TypeError):
        if file is not None:
            file.close()
        shutil.rmtree(entry, ignore_errors=True)
        return None
    return table, *dropped


def _cache_sink(entry: Path, name: str) -> tuple[BinaryIO, str, Path | None]:
    """A file for parsed rows, its directory, and the unfinished entry holding it.

    The file is ``matrix.f64`` in a new directory beside ``entry``. When
    the cache cannot be written, one WARNING is logged and the file is a
    temporary one outside the cache, with no entry.
    """
    tmp = None
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f".{entry.name}.", dir=entry.parent))
        return open(tmp / "matrix.f64", "w+b"), str(tmp), tmp
    except OSError as exc:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        log.warning("%s: cannot write embedding cache %s: %s", name, entry, exc)
    try:
        return tempfile.TemporaryFile(), tempfile.gettempdir(), None
    except OSError as exc:
        raise ConfigError(
            f"cannot create a temporary file for embedding rows in {tempfile.gettempdir()}: {exc}"
        ) from None


def _stale(entry: Path, source: str) -> bool:
    """Whether ``entry``, parsed from another file than ``source``, can no longer be hit.

    It can be hit only if its table file still holds the bytes it was
    parsed from, so it is stale when it names no file, when its file is
    ``source`` (which now holds other bytes), or when its file is gone or
    no longer has the size and mtime recorded with it.
    """
    try:
        meta = json.loads((entry / "meta.json").read_text(encoding="utf-8"))
        st = os.stat(meta["source"])
        recorded = (meta["source_size"], meta["source_mtime_ns"])
    except (OSError, ValueError, KeyError, TypeError):
        return True
    return meta["source"] == source or (st.st_size, st.st_mtime_ns) != recorded


def _write_entry(entry: Path, tmp: Path, digest: str, rows: _Rows, table: EmbeddingTable):
    """Complete the entry whose rows were parsed into ``tmp``; rename it into place.

    Then remove every other entry that can no longer be hit (``_stale``).
    """
    source = os.path.realpath(table.source_name)
    try:
        st = os.stat(source)
        meta = {
            "key": digest,
            "source": source,
            "source_size": st.st_size,
            "source_mtime_ns": st.st_mtime_ns,
            "rows": len(table),
            "dimension": table.dimension,
            "duplicates": table.n_duplicates,
            "duplicate_lines": rows.duplicate_lines[:_SHOWN_LINES],
            "zero_rows": table.n_zero_dropped,
            "zero_lines": rows.zero_lines[:_SHOWN_LINES],
        }
        np.save(tmp / "norms.npy", table.row_norms)
        # a token never contains whitespace, so newlines separate them
        (tmp / "vocab.txt").write_text("\n".join(table.vocabulary), encoding="utf-8")
        (tmp / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        os.replace(tmp, entry)
    except OSError as exc:
        # An entry another process finished first stays. Either way the
        # table keeps reading its rows from the open, now unlinked, file.
        if not entry.is_dir():
            log.warning("%s: cannot write embedding cache %s: %s", table.source_name, entry, exc)
        shutil.rmtree(tmp, ignore_errors=True)
        return
    for other in entry.parent.glob("v[0-9]*-*"):  # entries of every format
        if other != entry and _stale(other, source):
            shutil.rmtree(other, ignore_errors=True)


def _add_batches(stream: BinaryIO, rows: _Rows, lib):
    """Add every batch of whole lines in ``stream`` to ``rows``, in order.

    With the compiled library ``lib``, each batch is split in two
    (:class:`_CompiledBatch`). The one worker of a thread pool, for the
    whole load, reads the head of a batch while the main thread keeps
    the rows of the batch before and then reads the tail; waiting for
    the head raises what its read raised. A batch's head is kept before
    its tail, and the worker has ended before this returns or raises,
    so no head is still being read into a buffer. Without the library,
    :func:`_line_rows` reads every batch here. A byte-order mark and a
    header line are cut off the first batch before either parser sees it.
    """

    def read() -> bytes:
        batch = stream.read(_BATCH_BYTES)
        return batch + stream.readline() if batch else batch

    lineno = 1
    batch = read().removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark
    skip = _header_bytes(batch)
    if skip:
        lineno += batch.count(b"\n", 0, skip)
        batch = batch[skip:] or read()  # a batch may hold only the header
    if lib is None:
        while batch:
            lineno += rows.add(batch, lineno)
            batch = read()
        return
    from concurrent.futures import ThreadPoolExecutor  # only a cold load with the library

    current, previous = _CompiledBatch(lib), _CompiledBatch(lib)
    with ThreadPoolExecutor(1, thread_name_prefix="claimdist-parse") as helper:
        while batch:
            current.start(batch)
            head = helper.submit(current.parse, 0)
            lineno = previous.add_to(rows, lineno)
            current.parse(1)
            batch = read()
            head.result()
            current, previous = previous, current
        previous.add_to(rows, lineno)


def load_embeddings(
    source: str | Path,
    expected_dim: int | None = None,
    sha256: str | None = None,
) -> EmbeddingTable:
    """Parse a text-format word-vector file into an :class:`EmbeddingTable`.

    Duplicate tokens keep their first occurrence; all-zero vectors are
    dropped. Both are counted on the returned table and summarized in
    one logged warning. Inconsistent dimensions, non-numeric or
    non-finite fields and bytes that are not UTF-8 raise
    :class:`EmbeddingParseError` naming the file and carrying the
    offending line number. A file that cannot be opened or read, or is
    not a regular file, raises :class:`ConfigError` naming it, and so
    does a file for the parsed rows that cannot be created or written.

    The load goes through the on-disk cache, keyed by ``sha256``, the
    file's digest when the caller already has it (computed here
    otherwise).
    """
    name = str(source)
    digest = sha256 or file_sha256(source)
    entry = native.cache_dir() / f"{_CACHE_FORMAT}-{digest}"
    cached = _read_entry(entry, digest, name)
    # on a dimension mismatch the parse below raises the error, line included
    if cached is not None and expected_dim in (None, cached[0].dimension):
        _log_dropped(*cached)
        return cached[0]
    sink, sink_dir, tmp = _cache_sink(entry, name)
    try:
        rows = _Rows(expected_dim, sink, sink_dir)
        with open(source, "rb") as stream:
            _add_batches(stream, rows, native.library())
        table = rows.table(name)
    except BaseException as exc:
        # the table owns the sink only once it is returned
        sink.close()
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot read embedding file {name}: {exc}") from None
        if isinstance(exc, EmbeddingParseError) and exc.line_number is not None:
            exc.args = (f"{name}: {exc}",)  # the parser knows the line, not the file
        raise
    _log_dropped(table, rows.duplicate_lines, rows.zero_lines)
    if tmp is not None:
        _write_entry(entry, tmp, digest, rows, table)
    return table


def normalized_rows(table: EmbeddingTable, indices: np.ndarray) -> np.ndarray:
    """The rows at ``indices``, each divided by its norm, as a new array."""
    rows = table.matrix[indices]
    rows /= table.row_norms[indices, None]
    return rows


def similarity_matrix(
    table: EmbeddingTable,
    words_a: Sequence[str],
    words_b: Sequence[str],
) -> np.ndarray:
    """|A| x |B| matrix of pairwise cosine similarities.

    All words must be in vocabulary; callers filter first. Each entry is
    the cosine of the two rows, clamped to [-1, 1] against round-off.
    """
    a = normalized_rows(table, table.row_indices(words_a))
    b = normalized_rows(table, table.row_indices(words_b))
    return np.clip(a @ b.T, -1.0, 1.0)
