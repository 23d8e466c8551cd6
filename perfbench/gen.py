"""Seeded synthetic inputs for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes a manifest, a query, 96
grouped candidate documents and a text-format word-vector table, and
returns the realised input descriptors. The same (workload, seed) always
gives byte-identical files. The program under test only ever sees these
files.

Text model:

- Content tokens are pseudo-words drawn from a Zipf law (exponent
  ``ZIPF_S``) over a ranking of the table vocabulary, so type/token ratios
  look like text rather than like uniform draws.
- The query ranks the vocabulary one way and the background another.
  Candidates in group ``g`` draw each token from the query's ranking with
  probability ``GROUP_OVERLAP[g]`` and from the background otherwise, so
  group medians separate in that order.
- About half as many English stopwords as content tokens are mixed in,
  and ``OOV_SHARE`` of content tokens are pseudo-words missing from the
  table, so stopword removal and the OOV drop path do real work.
- Cue words ("propose", "novel", ...) go into ``cue_share`` of the query
  sentences for the topic-model selector to anchor on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 300
ZIPF_S = 1.05
OOV_SHARE = 0.03
OOV_POOL = 2_000
STOP_PER_CONTENT = 0.5
SENTENCE_CONTENT_TOKENS = 20
DOCS_PER_GROUP = 32
GROUP_OVERLAP = {"g1-high": 0.6, "g2-mid": 0.3, "g3-none": 0.0}
GROUP_ORDER = tuple(GROUP_OVERLAP)

# Every entry is in the program's default (Snowball) stopword list.
STOPWORDS = (
    "the of and a to in is that for it as was with be by on not this are at "
    "from or have an which were we been has their more these than such our "
    "its other into both before each only some very"
).split()
CUE_WORDS = ("propose", "proposes", "proposed", "introduce", "introduces", "new", "novel", "index")

_SYLLABLES = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]


@dataclass(frozen=True)
class Spec:
    corpus_rows: int          # table rows the corpus draws from (stopwords and cues included)
    table_rows: int           # rows in the written table; the rest are never used
    query_sentences: int
    query_tokens: int         # content tokens in the query
    doc_tokens: int           # content tokens per candidate
    cue_share: float          # share of query sentences carrying a cue word
    selector: dict | None


_CLAIMS = dict(corpus_rows=20_000, query_sentences=200, query_tokens=4_000, doc_tokens=250, cue_share=0.10)

WORKLOADS = {
    "lda-claims": Spec(table_rows=20_000, selector={"method": "lda", "iterations": 100}, **_CLAIMS),
    "fulltext": Spec(
        corpus_rows=10_000,
        table_rows=10_000,
        query_sentences=800,
        query_tokens=16_000,
        doc_tokens=2_000,
        cue_share=0.10,
        selector=None,
    ),
    # The lda-claims corpus (same corpus rows, so the same text per seed)
    # over a table three times as large.
    "large-table": Spec(table_rows=60_000, selector={"method": "ma"}, **_CLAIMS),
}


def _pseudo_words(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct three-syllable lowercase words, none a stopword or cue."""
    taken = set(STOPWORDS) | set(CUE_WORDS)
    codes = rng.choice(len(_SYLLABLES) ** 3, size=n + 64, replace=False)
    s = len(_SYLLABLES)
    words = [_SYLLABLES[c // (s * s)] + _SYLLABLES[c // s % s] + _SYLLABLES[c % s] for c in codes]
    words = [w for w in words if w not in taken]
    if len(words) < n:
        raise RuntimeError("pseudo-word pool too small")
    return words[:n]


def _zipf_cdf(n: int) -> np.ndarray:
    p = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_S
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


def _zipf_draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), cdf.size - 1)


class _TextModel:
    def __init__(self, rng: np.random.Generator, content: list[str], oov: list[str]):
        self.rng = rng
        self.content = np.array(content, dtype=object)
        self.oov = np.array(oov, dtype=object)
        self.query_rank = rng.permutation(len(content))
        self.background_rank = rng.permutation(len(content))
        self.cdf = _zipf_cdf(len(content))
        self.stop_cdf = _zipf_cdf(len(STOPWORDS))

    def content_tokens(self, n: int, query_share: float) -> np.ndarray:
        rng = self.rng
        ranks = _zipf_draw(rng, self.cdf, n)
        from_query = rng.random(n) < query_share
        rows = np.where(from_query, self.query_rank[ranks], self.background_rank[ranks])
        tokens = self.content[rows]
        is_oov = rng.random(n) < OOV_SHARE
        tokens[is_oov] = self.oov[rng.integers(0, self.oov.size, int(is_oov.sum()))]
        return tokens

    def sentences(self, tokens: np.ndarray, n_sentences: int) -> list[list[str]]:
        cuts = np.sort(self.rng.choice(np.arange(1, tokens.size), n_sentences - 1, replace=False))
        return [list(part) for part in np.split(tokens, cuts)]

    def render(self, sentences: list[list[str]]) -> str:
        rng = self.rng
        out = []
        for content in sentences:
            words: list[str] = []
            stops = _zipf_draw(rng, self.stop_cdf, len(content))
            mix = rng.random(len(content)) < STOP_PER_CONTENT
            for tok, stop, m in zip(content, stops, mix):
                if m:
                    words.append(STOPWORDS[stop])
                words.append(tok)
            words[0] = words[0].capitalize()
            out.append(" ".join(words) + ".")
        return " ".join(out) + "\n"


def _encode_rows(values: np.ndarray) -> np.ndarray:
    """Fixed-width text fields, 8 bytes per value: " 0.12345" or " -0.1234"."""
    rows, dim = values.shape
    a = np.abs(values)
    neg = values < 0
    q = np.where(neg, np.minimum(np.rint(a * 1e4), 9_999), np.minimum(np.rint(a * 1e5), 99_999)).astype(np.int64)
    out = np.empty((rows, dim, 8), dtype=np.uint8)
    out[..., 0] = ord(" ")
    out[..., 1] = np.where(neg, ord("-"), ord("0"))
    out[..., 2] = np.where(neg, ord("0"), ord("."))
    out[..., 3] = np.where(neg, ord("."), q // 10_000 % 10 + ord("0"))
    # The last four slots are the four low digits of q in both layouts.
    for slot in range(4, 8):
        out[..., slot] = q // 10 ** (7 - slot) % 10 + ord("0")
    return out.reshape(rows, dim * 8)


def _write_table(path: Path, rng: np.random.Generator, words: list[str], chunk: int = 4096) -> None:
    with open(path, "wb") as fh:
        for start in range(0, len(words), chunk):
            part = words[start : start + chunk]
            values = np.clip(rng.standard_normal((len(part), DIM)) * 0.4, -0.99999, 0.99999)
            encoded = _encode_rows(values)
            for word, row in zip(part, encoded):
                fh.write(word.encode("ascii"))
                fh.write(row.tobytes())
                fh.write(b"\n")
        fh.flush()
        os.fsync(fh.fileno())


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the inputs of ``workload`` for ``seed`` under ``out_dir``.

    Returns the realised descriptors, including ``expected_group_order``
    (groups by decreasing query overlap) and ``n_candidates``.
    """
    spec = WORKLOADS[workload]
    # The corpus stream depends on the corpus settings only, so lda-claims and
    # large-table see the same text for one seed.
    corpus_rng = np.random.default_rng([seed, spec.corpus_rows, spec.query_tokens, spec.doc_tokens])
    table_rng = np.random.default_rng([seed, spec.table_rows, 1])

    n_fixed = len(STOPWORDS) + len(CUE_WORDS)
    n_content = spec.corpus_rows - n_fixed
    n_extra = spec.table_rows - spec.corpus_rows
    pool = _pseudo_words(corpus_rng, n_content + OOV_POOL)
    content, oov = pool[:n_content], pool[n_content:]
    model = _TextModel(corpus_rng, content, oov)

    query = model.content_tokens(spec.query_tokens, query_share=1.0)
    query_sents = model.sentences(query, spec.query_sentences)
    n_cue = round(spec.cue_share * spec.query_sentences)
    for i in corpus_rng.choice(spec.query_sentences, n_cue, replace=False):
        sent = query_sents[i]
        sent[corpus_rng.integers(0, len(sent))] = CUE_WORDS[corpus_rng.integers(0, len(CUE_WORDS))]

    docs: list[tuple[str, str, np.ndarray]] = []
    for g_index, (group, share) in enumerate(GROUP_OVERLAP.items()):
        for d in range(DOCS_PER_GROUP):
            docs.append((group, f"g{g_index + 1}d{d:02d}", model.content_tokens(spec.doc_tokens, share)))

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "docs").mkdir(exist_ok=True)
    _write_text(out_dir / "query.txt", model.render(query_sents))
    for group, doc_id, tokens in docs:
        n_sent = max(1, round(tokens.size / SENTENCE_CONTENT_TOKENS))
        _write_text(out_dir / "docs" / f"{doc_id}.txt", model.render(model.sentences(tokens, n_sent)))

    extra_rng = np.random.default_rng([seed, spec.table_rows, 2])
    extra = [w + "x" for w in _pseudo_words(extra_rng, n_extra)] if n_extra else []
    table_words = STOPWORDS + list(CUE_WORDS) + content + extra
    table_words = [table_words[i] for i in table_rng.permutation(len(table_words))]
    table_path = out_dir / "vectors.txt"
    _write_table(table_path, table_rng, table_words)

    manifest = {
        "query": {"id": "query", "path": "query.txt"},
        "documents": [{"id": doc_id, "group": group, "path": f"docs/{doc_id}.txt"} for group, doc_id, _ in docs],
        "embedding": {"path": "vectors.txt", "expected_dim": DIM},
    }
    if spec.selector is not None:
        manifest["query"]["selector"] = spec.selector
    _write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")

    in_table = set(table_words)
    query_words = [t for s in query_sents for t in s]
    cand_words = [t for _, _, tokens in docs for t in tokens]
    union = {t for t in cand_words if t in in_table}
    used = union | {t for t in query_words if t in in_table}
    return {
        "expected_group_order": list(GROUP_ORDER),
        "n_candidates": len(docs),
        "query_sentences": len(query_sents),
        "query_tokens": len(query_words),
        "query_unique": len(set(query_words)),
        "query_type_token_ratio": round(len(set(query_words)) / len(query_words), 4),
        "candidate_tokens": len(cand_words),
        "candidate_unique": len(set(cand_words)),
        "candidate_union_in_table": len(union),
        "table_rows": len(table_words),
        "table_dim": DIM,
        "table_bytes": table_path.stat().st_size,
        "table_rows_used_share": round(len(used) / len(table_words), 4),
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="write one workload's inputs; print descriptors as JSON")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    descriptors = generate(args.workload, args.seed, args.out)
    generation_s = time.perf_counter() - t0
    print(json.dumps({"descriptors": descriptors, "generation_s": generation_s, "environment": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
