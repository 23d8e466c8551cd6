"""Locating proposal/novelty sentences in documents without sections.

Two selectors are provided. The topic selector fits a small
collapsed-Gibbs topic model over sentences-as-documents, anchors the
"claim" topic on cue words (propose, novel, ...) and ranks sentences by
that topic's share of their tokens. The moving-average selector scores
each sentence by how far its token centroid sits from the document
centroid and smooths the signal with a centered window so contiguous
claim passages are preferred over isolated spikes.

The topic model's sweeps run in a small C function of the compiled
library (:mod:`claimdist.native`). Where that cannot be built or loaded,
the same sweeps run in a plain Python loop, the reference the C sweep was
written from; both give the same count tables.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate, chain
from typing import Iterable, Sequence

import numpy as np

from . import native
from .embeddings import EmbeddingTable
from .errors import DataError, EmptyDocumentError
from .textprep import normalize_and_tokenize, remove_stopwords

DEFAULT_CUE_WORDS = frozenset(
    {"propose", "proposes", "proposed", "introduce", "introduces", "new", "novel", "index"}
)

# Trailing abbreviations that must not end a sentence even when followed
# by whitespace and a capital/digit.
_ABBREVIATIONS = (
    "et al.",
    "fig.",
    "figs.",
    "eq.",
    "eqs.",
    "e.g.",
    "i.e.",
    "cf.",
    "vs.",
    "ref.",
    "refs.",
    "sec.",
    "tab.",
    "no.",
    "vol.",
)

# Sentence punctuation followed by whitespace; the group captures the first
# character after the whitespace.
_SENTENCE_END = re.compile(r"[.?!](?=\s+(\S))")
# _guarded looks at the longest abbreviation plus the character before it.
_GUARD_WINDOW = max(map(len, _ABBREVIATIONS)) + 1


@dataclass(frozen=True)
class SentenceRecord:
    """One sentence with its position, raw text, tokens, and selector score."""

    index: int
    text: str
    tokens: tuple[str, ...]
    score: float = 0.0


@dataclass(frozen=True)
class LdaModel:
    """Final state of a collapsed Gibbs chain over sentences-as-documents."""

    vocabulary: tuple[str, ...]
    word_topic: np.ndarray      # (K, V) counts
    sentence_topic: np.ndarray  # (S, K) counts
    topic_totals: np.ndarray    # (K,) counts


def _guarded(prefix_lower: str) -> bool:
    for abbr in _ABBREVIATIONS:
        if prefix_lower.endswith(abbr):
            before = prefix_lower[: -len(abbr)]
            if not before or not before[-1].isalnum():
                return True
    return False


def split_sentences(
    raw: str,
    stopwords: Iterable[str] | None = None,
) -> list[SentenceRecord]:
    """Rule-based sentence split.

    Breaks at '.', '?' or '!' followed by whitespace and an uppercase
    letter or digit, unless the text ends in a guarded abbreviation
    ("et al.", "Fig." and friends). Sentences are indexed from 0; none is
    empty, since each ends in its break's punctuation or the text's end.
    """
    text = raw.strip()
    if not text:
        return []
    breaks: list[int] = []
    for match in _SENTENCE_END.finditer(text):
        nxt = match.group(1)
        if not (nxt.isupper() or nxt.isdigit()):
            continue
        end = match.end()
        if _guarded(text[max(0, end - _GUARD_WINDOW) : end].lower()):
            continue
        breaks.append(end)

    pieces = []
    start = 0
    for end in breaks:
        pieces.append(text[start:end])
        start = end
    pieces.append(text[start:])

    sw = frozenset(stopwords) if stopwords is not None else None
    records: list[SentenceRecord] = []
    for piece in pieces:
        sentence = piece.strip()
        tokens = normalize_and_tokenize(sentence)
        if sw is not None:
            tokens = remove_stopwords(tokens, sw)
        records.append(
            SentenceRecord(index=len(records), text=sentence, tokens=tuple(tokens))
        )
    return records


def fit_lda(
    sentences: Sequence[SentenceRecord],
    n_topics: int = 5,
    alpha: float = 0.1,
    beta: float = 0.01,
    iterations: int = 500,
    seed: int = 0,
) -> LdaModel:
    """Collapsed Gibbs sampling with each sentence as one document.

    The chain is run single-threaded and seeded, so identical inputs and
    parameters reproduce bit-identical count tables, whether the sweeps
    run compiled (:func:`_compiled_sweep`) or in Python.
    """
    if n_topics < 1:
        raise ValueError("n_topics must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    vocab: dict[str, int] = {}
    docs = [[vocab.setdefault(t, len(vocab)) for t in s.tokens] for s in sentences]
    if not vocab:
        raise DataError("all sentences are empty after preprocessing; nothing to model")
    tables = _gibbs_counts(
        docs, len(vocab), n_topics, alpha, beta, iterations, seed, _compiled_sweep()
    )
    return LdaModel(
        vocabulary=tuple(vocab),
        word_topic=tables[0],
        sentence_topic=tables[1],
        topic_totals=tables[2],
    )


def _gibbs_counts(
    docs: list[list[int]],
    n_words: int,
    n_topics: int,
    alpha: float,
    beta: float,
    iterations: int,
    seed: int,
    sweep=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chain's final word_topic (K, V), sentence_topic (S, K) and topic_totals (K,).

    ``docs`` holds each sentence's tokens as word numbers below ``n_words``.
    ``sweep`` is the compiled sweep from :func:`_compiled_sweep`; without
    it the sweeps run in the Python loop at the end, which the C sweep
    follows step for step. Both give the same tables.
    """
    # The counts are plain lists while sampling in Python: per-token numpy
    # calls on K-element arrays cost far more than the arithmetic they do.
    # word_topic is word-major here, one K-list per word.
    rng = np.random.default_rng(seed)
    word_topic = [[0] * n_topics for _ in range(n_words)]
    sentence_topic = [[0] * n_topics for _ in docs]
    topic_totals = [0] * n_topics
    assignments = [rng.integers(0, n_topics, size=len(doc)).tolist() for doc in docs]
    for doc, z, st in zip(docs, assignments, sentence_topic):
        for w, k in zip(doc, z):
            word_topic[w][k] += 1
            st[k] += 1
            topic_totals[k] += 1
    n_tokens = sum(map(len, docs))
    beta_total = beta * n_words

    # One uniform draw per token update; rng.random(n) yields the same
    # doubles as n scalar rng.random() calls.
    if sweep is not None:
        words, z = (np.fromiter(chain.from_iterable(t), np.int64) for t in (docs, assignments))
        rows = np.repeat(np.arange(len(docs), dtype=np.int64), list(map(len, docs)))
        word_topic, sentence_topic, topic_totals = (
            np.array(t, dtype=np.int64) for t in (word_topic, sentence_topic, topic_totals)
        )
        cum = np.empty(n_topics)
        # Raw addresses, as ctypes checks array arguments slowly: each array
        # is C-contiguous of the C type and lives through the loop.
        arrays = (words, rows, z, word_topic, sentence_topic, topic_totals, cum)
        pointers = [a.ctypes.data for a in arrays]
        for _ in range(iterations):
            draws = rng.random(n_tokens)
            sweep(n_tokens, n_topics, *pointers, alpha, beta, beta_total, draws.ctypes.data)
        return np.ascontiguousarray(word_topic.T), sentence_topic, topic_totals

    last = n_topics - 1
    for _ in range(iterations):
        draws = iter(rng.random(n_tokens).tolist())
        for doc, z, st in zip(docs, assignments, sentence_topic):
            for pos, w in enumerate(doc):
                k = z[pos]
                wt = word_topic[w]
                wt[k] -= 1
                st[k] -= 1
                topic_totals[k] -= 1
                # Keep this float order: another changes last bits, which can
                # move a draw across a bin edge and fork the chain.
                cum = list(accumulate([
                    (a + beta) / (b + beta_total) * (c + alpha)
                    for a, b, c in zip(wt, topic_totals, st)
                ]))
                # The product can round up to cum[-1]; clamp to the last topic.
                k = min(bisect_right(cum, next(draws) * cum[-1]), last)
                wt[k] += 1
                st[k] += 1
                topic_totals[k] += 1
                z[pos] = k

    return (
        np.ascontiguousarray(np.array(word_topic, dtype=np.int64).T),
        np.array(sentence_topic, dtype=np.int64),
        np.array(topic_totals, dtype=np.int64),
    )


def _compiled_sweep():
    """The C sweep from :func:`native.library`, or None where the sweeps must run in Python."""
    lib = native.library()
    return None if lib is None else lib.claimdist_sweep


def lda_select(
    model: LdaModel,
    sentences: Sequence[SentenceRecord],
    cue_words: Iterable[str] = DEFAULT_CUE_WORDS,
    top_k: int = 5,
) -> list[SentenceRecord]:
    """Sentences ranked by their share of the cue-anchored claim topic.

    ``model`` is :func:`fit_lda` over ``sentences``, and each cue word is a
    token as :func:`normalize_and_tokenize` writes it. The claim topic is
    the one with the highest aggregate assignment among sentences
    containing at least one cue word; every sentence is then scored by
    that topic's share of its tokens. Ties break by ascending sentence
    index.
    """
    cues = frozenset(cue_words)
    cue_rows = [i for i, s in enumerate(sentences) if any(t in cues for t in s.tokens)]
    if not cue_rows:
        raise DataError(
            "no sentence contains a cue word; supply --cues or use the "
            "moving-average selector"
        )
    claim_topic = int(np.argmax(model.sentence_topic[cue_rows].sum(axis=0)))
    lengths = model.sentence_topic.sum(axis=1)
    scores = np.where(
        lengths > 0,
        model.sentence_topic[:, claim_topic] / np.maximum(lengths, 1),
        0.0,
    )
    order = sorted(range(len(sentences)), key=lambda i: (-scores[i], i))
    return [replace(sentences[i], score=float(scores[i])) for i in order[:top_k]]


def moving_average(values: Sequence[float], window: int) -> np.ndarray:
    """Centered moving average with truncated (not padded) edge windows."""
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 1")
    v = np.asarray(values, dtype=np.float64)
    half = window // 2
    out = np.empty_like(v)
    for i in range(v.size):
        lo = max(0, i - half)
        hi = min(v.size, i + half + 1)
        out[i] = v[lo:hi].mean()
    return out


def ma_select(
    sentences: Sequence[SentenceRecord],
    table: EmbeddingTable,
    window: int = 3,
    top_k: int = 5,
) -> list[SentenceRecord]:
    """Sentences ranked by smoothed centroid divergence.

    Raw score per sentence is ``1 - cos(sentence centroid, document
    centroid)`` over in-vocabulary token occurrences; sentences with no
    in-vocabulary token score 0. The signal is smoothed by a centered
    moving average before ranking; ties break by ascending index.
    """
    vectors: list[np.ndarray | None] = []
    any_tokens = False
    doc_sum = np.zeros(table.dimension)
    doc_count = 0
    # every token of every sentence, found in the table's sorted keys in
    # one lookup (-1 for a word it does not have)
    found = table.vocabulary.find([t for s in sentences for t in s.tokens])
    end = 0
    for s in sentences:
        start, end = end, end + len(s.tokens)
        idx = found[start:end][found[start:end] >= 0]
        if not idx.size:
            vectors.append(None)
            continue
        any_tokens = True
        rows = table.matrix[idx]
        vectors.append(rows.mean(axis=0))
        doc_sum += rows.sum(axis=0)
        doc_count += len(idx)
    if not any_tokens:
        raise EmptyDocumentError("no sentence has any in-vocabulary token")
    centroid = doc_sum / doc_count
    centroid_norm = float(np.linalg.norm(centroid))

    raw = np.zeros(len(sentences))
    for i, vec in enumerate(vectors):
        if vec is None or centroid_norm == 0.0:
            continue
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            continue
        cos = float(vec @ centroid) / (norm * centroid_norm)
        raw[i] = 1.0 - max(-1.0, min(1.0, cos))

    smoothed = moving_average(raw, window)
    order = sorted(range(len(sentences)), key=lambda i: (-smoothed[i], i))
    return [replace(sentences[i], score=float(smoothed[i])) for i in order[:top_k]]
