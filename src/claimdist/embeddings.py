"""Pretrained word-vector tables and cosine-similarity kernels.

Vectors are loaded from the plain-text format popularized by GloVe
(``token v_1 ... v_d`` per line, whitespace separated). A two-integer
header line, as written by word2vec-style text exports, is detected and
skipped. The loaded table is immutable and every query operation is
pure, so concurrent readers are safe.

A loaded matrix stays on disk. The parser streams the kept rows, as raw
little-endian float64, into a file, and the table's ``matrix`` reads
just the rows it is indexed with (``os.preadv``, so POSIX only). A
run's memory therefore follows the rows it uses, not the table size.

A parsed table is kept in an on-disk cache keyed by the SHA-256 of its
file, under ``$XDG_CACHE_HOME/claimdist`` (``~/.cache/claimdist`` when
that is unset). An entry ``v2-<sha256>`` holds ``matrix.f64`` (the
rows), ``norms.npy``, ``vocab.txt`` and ``meta.json``; the parse writes
``matrix.f64`` straight into it. A later load of the same file opens the
stored rows instead of parsing the text again. Deleting the cache is
always safe: a missing or damaged entry is parsed and written again.
When the cache cannot be written, and for streams, the rows go to an
anonymous temporary file under ``TMPDIR``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .errors import ConfigError, EmbeddingParseError, OutOfVocabularyError

log = logging.getLogger(__name__)

# Bytes of text parsed per batch in load_embeddings. np.loadtxt holds a
# batch as UCS-4, four times its size, so large batches raise the peak
# memory of a load; about 1 MiB keeps that small next to the matrix.
_BATCH_BYTES = 1 << 20

# A row norm at or above this, or zero, sends its batch to the row-by-row
# parser. Below it the sum of squares is far from overflow in any
# summation order, so the row-by-row norm check would accept the row too.
_SAFE_NORM = 1e150

# Directory name prefix of a cache entry; change it when the layout does.
_CACHE_FORMAT = "v2"
_OLD_CACHE_FORMAT = "v1"

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
    :class:`_RowFile` for a loaded one; both give rows as arrays when
    indexed with an int, an index sequence or a slice. ``row_norms``
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
    """Hex SHA-256 of an embedding file; an unreadable file raises ConfigError."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise ConfigError(f"cannot read embedding file {path}: {exc}") from None
    return digest.hexdigest()


def _is_header(fields: list[str]) -> bool:
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


class _RowFile:
    """Read-only rows of a float64 matrix stored raw in a file, read on demand.

    Indexing with an int, an index sequence or array, or a slice returns
    a new array of those rows, shaped as the same index into an ndarray
    would give them, and reads only their bytes. The reader holds the
    file open for its lifetime and closes it when it is collected.
    """

    dtype = _ROW_DTYPE

    def __init__(self, file: BinaryIO, rows: int, dim: int):
        self.shape = (rows, dim)
        self._fd = file.fileno()
        self._row_bytes = dim * self.dtype.itemsize
        weakref.finalize(self, file.close)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key) -> np.ndarray:
        n, dim = self.shape
        if isinstance(key, tuple):
            raise TypeError("embedding rows are indexed by row only")
        if isinstance(key, slice):
            index = np.arange(*key.indices(n))
        else:
            index = np.asarray(key, dtype=np.intp)
        flat = index.reshape(-1)
        if flat.size and (flat.min() < -n or flat.max() >= n):
            raise IndexError(f"row index out of range for a table of {n} rows")
        flat = np.where(flat < 0, flat + n, flat)
        out = np.empty((flat.size, dim), dtype=self.dtype)
        # In file order, each run of consecutive rows is one read that
        # scatters them into their places in ``out``.
        order = np.argsort(flat, kind="stable")
        run: list[np.ndarray] = []
        first = 0
        for pos, row in zip(order.tolist(), flat[order].tolist()):
            if run and (row != first + len(run) or len(run) == _IOV_MAX):
                self._read(run, first)
                run = []
            if not run:
                first = row
            run.append(out[pos])
        if run:
            self._read(run, first)
        return out.reshape(index.shape + (dim,))

    def _read(self, buffers: list[np.ndarray], first: int):
        want = len(buffers) * self._row_bytes
        if os.preadv(self._fd, buffers, first * self._row_bytes) != want:
            raise OSError(f"embedding row file ends before row {first + len(buffers)}")


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

    def _set_dim(self, dim: int, lineno: int):
        if self.expected_dim is not None and dim != self.expected_dim:
            raise EmbeddingParseError(
                f"dimension {dim} does not match expected {self.expected_dim}", lineno
            )
        self.dim = dim

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

    def add_lines(self, lines: list[bytes], first_lineno: int):
        """Parse ``lines`` one by one; the only source of parse errors."""
        kept = []
        for lineno, raw in enumerate(lines, start=first_lineno):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise EmbeddingParseError(f"not valid UTF-8: {exc}", lineno) from None
            if not line.strip():
                continue
            fields = line.split()
            if lineno == 1 and _is_header(fields):
                continue
            token, values = fields[0], fields[1:]
            if not values:
                raise EmbeddingParseError("row has a token but no values", lineno)
            try:
                vec = np.array(values, dtype=np.float64)
            except ValueError:
                raise EmbeddingParseError(
                    f"non-numeric field in row for {token!r}", lineno
                ) from None
            if self.dim is None:
                self._set_dim(vec.size, lineno)
            elif vec.size != self.dim:
                raise EmbeddingParseError(
                    f"row has dimension {vec.size}, table has {self.dim}", lineno
                )
            if token in self.index:
                self.duplicate_lines.append(lineno)
                continue
            with np.errstate(over="ignore"):
                norm = float(np.linalg.norm(vec))
            if not math.isfinite(norm):
                raise EmbeddingParseError(
                    f"non-finite value or norm in row for {token!r}", lineno
                )
            if norm == 0.0:
                self.zero_lines.append(lineno)
                continue
            self.index[token] = len(self.index)
            kept.append(vec)
        if kept:
            kept = np.array(kept)
            self._write(kept)
            self.norms.append(np.linalg.norm(kept, axis=1))

    def add_batch(self, batch: bytes, first_lineno: int) -> bool:
        """Parse the whole lines in ``batch`` with one ``np.loadtxt`` call.

        Returns False, having changed nothing, when the batch holds
        anything this path cannot prove :meth:`add_lines` would take the
        same way: bytes that are not UTF-8, a row without values, a field
        ``loadtxt`` rejects (``float`` also takes ``1_0`` and non-ASCII
        digits), a dimension change or mismatch, or a kept row whose norm
        is zero or not safely finite. Both parsers split on the same
        whitespace and round every number the same way.
        """
        try:
            text = batch.decode("utf-8")
        except UnicodeDecodeError:
            return False
        tokens: list[str] = []
        rests: list[str] = []
        linenos: list[int] = []
        for lineno, line in enumerate(text.split("\n"), start=first_lineno):
            parts = line.split(None, 1)
            if not parts or (lineno == 1 and _is_header(line.split())):
                continue
            if len(parts) == 1:
                return False
            tokens.append(parts[0])
            rests.append(parts[1])
            linenos.append(lineno)
        if not rests:
            return True
        try:
            values = np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            return False
        dim = self.dim if self.dim is not None else self.expected_dim
        if values.shape[0] != len(rests) or dim not in (None, values.shape[1]):
            return False

        new: dict[str, int] = {}
        duplicates: list[int] = []
        for i, token in enumerate(tokens):
            if token in self.index or token in new:
                duplicates.append(linenos[i])
            else:
                new[token] = i
        kept = values if len(new) == len(tokens) else values[list(new.values())]
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(kept, axis=1)
        if not np.all((norms > 0.0) & (norms < _SAFE_NORM)):
            return False

        if self.dim is None:
            self._set_dim(values.shape[1], linenos[0])
        self._write(kept)
        self.norms.append(norms)
        start = len(self.index)
        self.index.update(zip(new, range(start, start + len(new))))
        self.duplicate_lines += duplicates
        return True

    def table(self, name: str) -> EmbeddingTable:
        """The parsed table; its matrix reads the rows back from the sink."""
        if not self.index:
            raise EmbeddingParseError("no usable vector rows in input")
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


def _parse(
    stream: BinaryIO, expected_dim: int | None, sink: BinaryIO, sink_dir: str, name: str
) -> tuple[EmbeddingTable, _Rows]:
    """Parse ``stream`` into ``sink``, which the table then owns.

    On any failure the sink is closed before the error propagates.
    """
    try:
        rows = _Rows(expected_dim, sink, sink_dir)
        lineno = 1
        while batch := stream.read(_BATCH_BYTES):
            batch += stream.readline()
            if not rows.add_batch(batch, lineno):
                rows.add_lines(batch.split(b"\n"), lineno)
            lineno += batch.count(b"\n")
        table = rows.table(name)
    except BaseException:
        sink.close()
        raise
    _log_dropped(table, rows.duplicate_lines, rows.zero_lines)
    return table, rows


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


def _cache_entry(digest: str) -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "claimdist" / f"{_CACHE_FORMAT}-{digest}"


def _read_entry(
    entry: Path, digest: str, name: str
) -> tuple[EmbeddingTable, list[int], list[int]] | None:
    """The table stored in ``entry``, reading its rows on demand, and its dropped-row lines.

    A missing entry gives None. So does an unreadable, truncated or
    inconsistent one, which is removed so that it is written again.
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


def _temporary_sink() -> tuple[BinaryIO, str]:
    """An anonymous temporary file for parsed rows, and its directory."""
    try:
        return tempfile.TemporaryFile(), tempfile.gettempdir()
    except OSError as exc:
        raise ConfigError(
            f"cannot create a temporary file for embedding rows in {tempfile.gettempdir()}: {exc}"
        ) from None


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
    return *_temporary_sink(), None


def _write_entry(entry: Path, tmp: Path, digest: str, rows: _Rows, table: EmbeddingTable):
    """Complete the entry whose rows were parsed into ``tmp``; rename it into place."""
    meta = {
        "key": digest,
        "rows": len(table),
        "dimension": table.dimension,
        "duplicates": table.n_duplicates,
        "duplicate_lines": rows.duplicate_lines[:_SHOWN_LINES],
        "zero_rows": table.n_zero_dropped,
        "zero_lines": rows.zero_lines[:_SHOWN_LINES],
    }
    try:
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
    # The same table's entry in the previous format would never be read again.
    shutil.rmtree(entry.with_name(f"{_OLD_CACHE_FORMAT}-{digest}"), ignore_errors=True)


def load_embeddings(
    source: str | Path | BinaryIO,
    expected_dim: int | None = None,
    sha256: str | None = None,
) -> EmbeddingTable:
    """Parse a text-format word-vector file into an :class:`EmbeddingTable`.

    Duplicate tokens keep their first occurrence; all-zero vectors are
    dropped. Both are counted on the returned table and summarized in
    one logged warning. Inconsistent dimensions, non-numeric or
    non-finite fields and bytes that are not UTF-8 raise
    :class:`EmbeddingParseError` carrying the offending line number. A
    file that cannot be opened or read, such as a directory, raises
    :class:`ConfigError` naming it, and so does a file for the parsed
    rows that cannot be created or written.

    A file path goes through the on-disk cache, keyed by ``sha256``, the
    file's digest when the caller already has it (computed here
    otherwise). Streams are always parsed, into a temporary file.
    """
    if hasattr(source, "read"):
        sink, sink_dir = _temporary_sink()
        return _parse(source, expected_dim, sink, sink_dir, getattr(source, "name", "<stream>"))[0]

    name = str(source)
    digest = sha256 or file_sha256(source)
    entry = _cache_entry(digest)
    cached = _read_entry(entry, digest, name)
    # on a dimension mismatch the parse below raises the error, line included
    if cached is not None and expected_dim in (None, cached[0].dimension):
        _log_dropped(*cached)
        return cached[0]
    sink, sink_dir, tmp = _cache_sink(entry, name)
    try:
        with open(source, "rb") as stream:
            table, rows = _parse(stream, expected_dim, sink, sink_dir, name)
    except BaseException as exc:
        sink.close()
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot read embedding file {name}: {exc}") from None
        raise
    if tmp is not None:
        _write_entry(entry, tmp, digest, rows, table)
    return table


def similarity_matrix(
    table: EmbeddingTable,
    words_a: Sequence[str],
    words_b: Sequence[str],
) -> np.ndarray:
    """|A| x |B| matrix of pairwise cosine similarities.

    All words must be in vocabulary; callers filter first. Each entry is
    the cosine of the two rows, clamped to [-1, 1] against round-off.
    """
    ia = table.row_indices(words_a)
    ib = table.row_indices(words_b)
    a = table.matrix[ia] / table.row_norms[ia, None]
    b = table.matrix[ib] / table.row_norms[ib, None]
    return np.clip(a @ b.T, -1.0, 1.0)
