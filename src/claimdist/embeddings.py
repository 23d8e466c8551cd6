"""Pretrained word-vector tables and cosine-similarity kernels.

Vectors are loaded from the plain-text format popularized by GloVe
(``token v_1 ... v_d`` per line, whitespace separated). A two-integer
header line, as written by word2vec-style text exports, is detected and
skipped. The loaded table is immutable: the matrix is marked read-only
and every query operation is pure, so concurrent readers are safe.
"""

from __future__ import annotations

import logging
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .errors import ConfigError, EmbeddingParseError, OutOfVocabularyError

log = logging.getLogger(__name__)

# Byte budget for one chunk of parsed rows in load_embeddings. Rows are
# copied into a few large chunk arrays instead of being kept as one small
# array each: freeing thousands of small row buffers left a fragmented
# heap, and whether later large arrays fitted into it, and so the peak
# memory of a run, changed with the process environment.
_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class EmbeddingTable:
    """Vocabulary -> row map plus a |V| x d matrix of word vectors.

    ``row_norms`` caches the Euclidean norm of every row; rows with zero
    norm are rejected at load time, so all cached norms are positive.
    """

    dimension: int
    vocabulary: dict[str, int]
    matrix: np.ndarray
    row_norms: np.ndarray
    n_zero_dropped: int = 0
    n_duplicates: int = 0
    source_name: str = ""

    def __post_init__(self):
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


def _is_header(fields: list[str]) -> bool:
    if len(fields) != 2:
        return False
    try:
        int(fields[0]), int(fields[1])
    except ValueError:
        return False
    return True


def load_embeddings(
    source: str | Path | BinaryIO,
    expected_dim: int | None = None,
) -> EmbeddingTable:
    """Parse a text-format word-vector file into an :class:`EmbeddingTable`.

    Duplicate tokens keep their first occurrence; all-zero vectors are
    dropped. Both events are logged and counted on the returned table.
    Inconsistent dimensions, non-numeric or non-finite fields and bytes
    that are not UTF-8 raise :class:`EmbeddingParseError` carrying the
    offending line number. A file that cannot be opened or read, such as
    a directory, raises :class:`ConfigError` naming it.
    """
    reading = hasattr(source, "read")
    name = getattr(source, "name", "<stream>") if reading else str(source)
    try:
        with nullcontext(source) if reading else open(source, "rb") as stream:
            words: list[str] = []
            chunks: list[np.ndarray] = []
            filled = 0  # rows used in chunks[-1]
            index: dict[str, int] = {}
            dim: int | None = None
            n_dup = 0
            n_zero = 0
            for lineno, raw in enumerate(stream, start=1):
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
                if dim is None:
                    dim = vec.size
                    if expected_dim is not None and dim != expected_dim:
                        raise EmbeddingParseError(
                            f"dimension {dim} does not match expected {expected_dim}", lineno
                        )
                    chunk_rows = max(1, _CHUNK_BYTES // (8 * dim))
                elif vec.size != dim:
                    raise EmbeddingParseError(
                        f"row has dimension {vec.size}, table has {dim}", lineno
                    )
                if token in index:
                    n_dup += 1
                    log.warning("%s: duplicate token %r on line %d ignored", name, token, lineno)
                    continue
                norm = float(np.linalg.norm(vec))
                if not math.isfinite(norm):
                    raise EmbeddingParseError(
                        f"non-finite value or norm in row for {token!r}", lineno
                    )
                if norm == 0.0:
                    n_zero += 1
                    log.warning("%s: all-zero vector for %r on line %d dropped", name, token, lineno)
                    continue
                if not chunks or filled == chunk_rows:
                    chunks.append(np.empty((chunk_rows, dim)))
                    filled = 0
                chunks[-1][filled] = vec
                filled += 1
                index[token] = len(words)
                words.append(token)
    except OSError as exc:
        raise ConfigError(f"cannot read embedding file {name}: {exc}") from None

    if not words:
        raise EmbeddingParseError("no usable vector rows in input")
    chunks[-1] = chunks[-1][:filled]
    matrix = np.concatenate(chunks)
    del chunks  # before the norm pass allocates its temporaries
    norms = np.linalg.norm(matrix, axis=1)
    return EmbeddingTable(
        dimension=int(dim),
        vocabulary=index,
        matrix=matrix,
        row_norms=norms,
        n_zero_dropped=n_zero,
        n_duplicates=n_dup,
        source_name=name,
    )


def vector_of(table: EmbeddingTable, word: str) -> np.ndarray | None:
    """Stored row for ``word``, or None when out of vocabulary.

    Matching is exact: no case folding happens here (preprocessing owns
    normalization).
    """
    i = table.vocabulary.get(word)
    if i is None:
        return None
    return table.matrix[i]


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """cos(u, v), clamped to [-1, 1] against round-off."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm input")
    c = float(np.dot(u, v) / (nu * nv))
    return max(-1.0, min(1.0, c))


def similarity_matrix(
    table: EmbeddingTable,
    words_a: Sequence[str],
    words_b: Sequence[str],
) -> np.ndarray:
    """|A| x |B| matrix of pairwise cosine similarities.

    All words must be in vocabulary; callers filter first. Entry (i, j)
    agrees with :func:`cosine_similarity` on the same vectors to 1e-12.
    """
    ia = table.row_indices(words_a)
    ib = table.row_indices(words_b)
    a = table.matrix[ia] / table.row_norms[ia, None]
    b = table.matrix[ib] / table.row_norms[ib, None]
    return np.clip(a @ b.T, -1.0, 1.0)
