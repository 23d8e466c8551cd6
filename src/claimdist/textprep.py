"""Text normalization and normalized bag-of-words construction.

The tokenizer lowercases and splits on every non-alphanumeric character
(hyphens, slashes, underscores and all punctuation split; pure-digit
tokens survive). Non-ASCII letters count as alphanumeric. Stopword
filtering and out-of-vocabulary dropping are separate, order-preserving
steps so each stage stays inspectable from the CLI.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .errors import ConfigError, DataError, EmptyDocumentError

_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)

DEFAULT_STOPWORDS_NAME = "snowball_en.txt"


@dataclass(frozen=True)
class TokenizedDoc:
    """A document reduced to its normalized token stream."""

    id: str
    group: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class NBow:
    """Normalized bag-of-words: unique in-vocabulary words with weights summing to 1.

    ``words`` keeps first-appearance order; ``oov_dropped`` counts tokens
    removed by vocabulary filtering so corpus quality stays visible.
    """

    words: tuple[str, ...]
    weights: np.ndarray
    oov_dropped: int = 0

    def __post_init__(self):
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return len(self.words)


def normalize_and_tokenize(raw: str) -> list[str]:
    """Lowercase ``raw`` and split on any non-alphanumeric character."""
    return _TOKEN.findall(raw.lower())


def remove_stopwords(tokens: Sequence[str], stopwords: Iterable[str]) -> list[str]:
    """Order-preserving stopword filter; idempotent."""
    sw = stopwords if isinstance(stopwords, (set, frozenset)) else frozenset(stopwords)
    return [t for t in tokens if t not in sw]


def build_nbow(tokens: Sequence[str], table: EmbeddingTable) -> NBow:
    """Frequency-normalized bag over the table's vocabulary.

    Out-of-vocabulary tokens are dropped and the remaining counts
    renormalized. Raises :class:`EmptyDocumentError` when nothing
    survives, which signals the document cannot be scored.
    """
    counts: dict[str, int] = {}
    dropped = 0
    for t in tokens:
        if t in table:
            counts[t] = counts.get(t, 0) + 1
        else:
            dropped += 1
    if not counts:
        raise EmptyDocumentError(
            f"no token of {len(tokens)} is in the embedding vocabulary"
        )
    total = sum(counts.values())
    words = tuple(counts)
    weights = np.array([counts[w] / total for w in words], dtype=np.float64)
    return NBow(words=words, weights=weights, oov_dropped=dropped)


@dataclass(frozen=True)
class StopwordList:
    """A named stopword set plus the hash of the file it came from."""

    name: str
    sha256: str
    words: frozenset[str] = field(repr=False)


def _expand(entries: Iterable[str]) -> frozenset[str]:
    # Entries with apostrophes ("isn't") can never equal a token produced by
    # the splitter, so their fragments ("isn", "t") are matched as well.
    out: set[str] = set()
    for entry in entries:
        entry = entry.strip().lower()
        if not entry:
            continue
        out.add(entry)
        out.update(normalize_and_tokenize(entry))
    return frozenset(out)


def load_stopwords(path: str | Path) -> StopwordList:
    """Read a one-word-per-line UTF-8 stopword file.

    An unreadable path raises ConfigError, bytes that are not UTF-8
    DataError; both name the file.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read stopword file {path}: {exc}") from None
    try:
        entries = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"stopword file {path} is not valid UTF-8: {exc}") from None
    return StopwordList(
        name=Path(path).name,
        sha256=hashlib.sha256(data).hexdigest(),
        words=_expand(entries),
    )


def stopwords_from(path: str | Path | None) -> StopwordList:
    """The list in ``path``, or the bundled default when no path is given."""
    return load_stopwords(path) if path else default_stopwords()


def default_stopwords() -> StopwordList:
    """The bundled Snowball-derived English list (175 entries)."""
    data = (resources.files("claimdist") / "data" / DEFAULT_STOPWORDS_NAME).read_bytes()
    return StopwordList(
        name=DEFAULT_STOPWORDS_NAME,
        sha256=hashlib.sha256(data).hexdigest(),
        words=_expand(data.decode("utf-8").splitlines()),
    )
