"""Corpus ingestion, experiment orchestration, and report emission.

A JSON manifest names the query document, the grouped candidate
documents, the word-vector file, and run options. ``run_experiment``
scores every candidate against the query with the batched relaxed
distance, summarizes each group, runs the omnibus and pairwise rank
tests, and returns a report that mirrors the classic two-table layout:
per-group ranked scores with median/[IQR] footers, then a significance
block. Reports carry a provenance block (file hashes, variant, seed,
selector settings) so any configuration gap stays auditable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .claimselect import (
    DEFAULT_CUE_WORDS,
    SentenceRecord,
    fit_lda,
    lda_select,
    ma_select,
    split_sentences,
)
from .embeddings import EmbeddingTable, load_embeddings
from .errors import ConfigError, DataError, EmptyDocumentError
from .stats import GroupSummary, HypothesisTestResult, kruskal_wallis, median_iqr, wilcoxon_rank_sum_exact
from .textprep import (
    NBow,
    StopwordList,
    TokenizedDoc,
    build_nbow,
    normalize_and_tokenize,
    remove_stopwords,
    stopwords_from,
)
from .transport import (
    DEFAULT_ORACLE_LIMIT,
    RWMD_VARIANTS,
    SYMMETRIC_MAX,
    lc_rwmd_batch,
    wmd_exact,
)

REPORT_FORMATS = ("text", "csv", "json")
SELECTOR_METHODS = ("lda", "ma")
DEFAULT_SEED = 42


@dataclass(frozen=True)
class SelectorConfig:
    """Knowledge-claim selector settings; out-of-range values raise ConfigError."""

    method: str                 # "lda" | "ma"
    top_k: int = 10
    n_topics: int = 5
    alpha: float = 0.1
    beta: float = 0.01
    iterations: int = 500
    window: int = 3
    cue_words: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.method not in SELECTOR_METHODS:
            raise ConfigError(f"selector method must be 'lda' or 'ma', got {self.method!r}")
        for name, ok, rule in (
            ("top_k", self.top_k >= 1, ">= 1"),
            ("n_topics", self.n_topics >= 1, ">= 1"),
            ("iterations", self.iterations >= 1, ">= 1"),
            ("window", self.window >= 1 and self.window % 2 == 1, "an odd integer >= 1"),
            ("alpha", math.isfinite(self.alpha) and self.alpha > 0, "finite and > 0"),
            ("beta", math.isfinite(self.beta) and self.beta > 0, "finite and > 0"),
        ):
            if not ok:
                raise ConfigError(f"selector {name} must be {rule}, got {getattr(self, name)!r}")

    def to_provenance(self) -> dict:
        if self.method == "lda":
            return {
                "method": "lda",
                "top_k": self.top_k,
                "n_topics": self.n_topics,
                "alpha": self.alpha,
                "beta": self.beta,
                "iterations": self.iterations,
                "cue_words": sorted(self.cue_words or DEFAULT_CUE_WORDS),
            }
        return {"method": "ma", "top_k": self.top_k, "window": self.window}


@dataclass(frozen=True)
class ManifestDocument:
    id: str
    group: str
    path: Path


@dataclass(frozen=True)
class CorpusManifest:
    query_id: str
    query_path: Path
    selector: SelectorConfig | None
    documents: tuple[ManifestDocument, ...]
    embedding_path: Path
    expected_dim: int | None
    variant: str
    stopwords_path: Path | None
    seed: int


_REQUIRED = object()
_NUMBER = (int, float)
_LABEL = (str, int)
_TYPE_NAMES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    int: "an integer",
    _NUMBER: "a number",
    _LABEL: "a string or an integer",
}


def _typed(value, kind, path: str):
    # bool is a subclass of int, but JSON true/false is never a count
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(
            f"manifest {path} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}"
        )
    return value


def _field(mapping: dict, key: str, where: str, kind, default=_REQUIRED):
    """``mapping[key]`` checked to be of JSON type ``kind``.

    A missing key yields ``default``, and so does an explicit null when
    the default is None; a missing key without a default is an error.
    """
    if key not in mapping or (mapping[key] is None and default is None):
        if default is _REQUIRED:
            raise ConfigError(f"manifest {where or 'top level'} is missing required key {key!r}")
        return default
    return _typed(mapping[key], kind, f"{where}.{key}" if where else key)


def _reject_unknown(mapping: dict, allowed: set[str], where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"manifest {where} has unknown key(s): {sorted(unknown)}")


_SELECTOR_INTS = ("top_k", "n_topics", "iterations", "window")


def _parse_selector(raw: dict) -> SelectorConfig:
    """Type-check the keys present; defaults and ranges belong to SelectorConfig."""
    where = "query.selector"
    _reject_unknown(raw, {"method", "alpha", "beta", "cue_words", *_SELECTOR_INTS}, where)
    settings = {k: _typed(raw[k], int, f"{where}.{k}") for k in _SELECTOR_INTS if k in raw}
    for key in ("alpha", "beta"):
        if key in raw:
            settings[key] = float(_typed(raw[key], _NUMBER, f"{where}.{key}"))
    cues = _field(raw, "cue_words", where, list, None)
    if cues is not None:
        settings["cue_words"] = tuple(
            _typed(c, str, f"{where}.cue_words[{i}]") for i, c in enumerate(cues)
        )
    return SelectorConfig(method=_field(raw, "method", where, str), **settings)


def load_manifest(path: str | Path) -> CorpusManifest:
    """Parse and validate a JSON corpus manifest.

    Relative paths resolve against the manifest's own directory. Every
    referenced path must exist; (group, id) pairs must be unique; group
    labels must be nonempty.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"manifest not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("manifest top level must be a JSON object")
    _reject_unknown(raw, {"query", "documents", "embedding", "options"}, "top level")
    base = path.parent

    query = _field(raw, "query", "", dict)
    _reject_unknown(query, {"id", "path", "selector"}, "query")
    query_id = str(_field(query, "id", "query", _LABEL))
    query_path = base / _field(query, "path", "query", str)
    selector_raw = _field(query, "selector", "query", dict, None)
    selector = _parse_selector(selector_raw) if selector_raw else None

    documents_raw = _field(raw, "documents", "", list)
    if not documents_raw:
        raise ConfigError("manifest 'documents' must be a nonempty list")
    documents: list[ManifestDocument] = []
    seen: set[tuple[str, str]] = set()
    for i, entry in enumerate(documents_raw):
        where = f"documents[{i}]"
        _reject_unknown(_typed(entry, dict, where), {"id", "group", "path"}, where)
        doc_id = str(_field(entry, "id", where, _LABEL))
        group = str(_field(entry, "group", where, _LABEL)).strip()
        if not group:
            raise ConfigError(f"document {doc_id!r} has an empty group label")
        key = (group, doc_id)
        if key in seen:
            raise ConfigError(f"duplicate document id {doc_id!r} in group {group!r}")
        seen.add(key)
        path = base / _field(entry, "path", where, str)
        documents.append(ManifestDocument(id=doc_id, group=group, path=path))

    embedding = _field(raw, "embedding", "", dict)
    _reject_unknown(embedding, {"path", "expected_dim"}, "embedding")
    embedding_path = base / _field(embedding, "path", "embedding", str)
    expected_dim = _field(embedding, "expected_dim", "embedding", int, None)
    if expected_dim is not None and expected_dim < 1:
        raise ConfigError("embedding.expected_dim must be a positive integer")

    options = _field(raw, "options", "", dict, {})
    _reject_unknown(options, {"variant", "stopwords", "seed"}, "options")
    variant = _field(options, "variant", "options", str, SYMMETRIC_MAX)
    if variant not in RWMD_VARIANTS:
        raise ConfigError(
            f"options.variant must be one of {RWMD_VARIANTS}, got {variant!r}"
        )
    stopwords_path = _field(options, "stopwords", "options", str, None)
    if stopwords_path is not None:
        stopwords_path = base / stopwords_path
    seed = _field(options, "seed", "options", int, DEFAULT_SEED)

    manifest = CorpusManifest(
        query_id=query_id,
        query_path=query_path,
        selector=selector,
        documents=tuple(documents),
        embedding_path=embedding_path,
        expected_dim=expected_dim,
        variant=variant,
        stopwords_path=stopwords_path,
        seed=seed,
    )
    for doc in manifest.documents:
        if not doc.path.is_file():
            raise ConfigError(f"document {doc.id!r} ({doc.group}): file not found: {doc.path}")
    if not manifest.query_path.is_file():
        raise ConfigError(f"query {query_id!r}: file not found: {manifest.query_path}")
    if not manifest.embedding_path.is_file():
        raise ConfigError(f"embedding file not found: {manifest.embedding_path}")
    if manifest.stopwords_path is not None and not manifest.stopwords_path.is_file():
        raise ConfigError(f"stopword file not found: {manifest.stopwords_path}")
    return manifest


@dataclass(frozen=True)
class LoadedCorpus:
    query: TokenizedDoc
    query_text: str
    groups: dict[str, list[TokenizedDoc]]
    stopwords: StopwordList


def read_text(path: str | Path, label: str) -> str:
    """UTF-8 text of ``path``; errors (ConfigError, DataError) start with ``label``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{label}: cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{label}: {path} is not valid UTF-8: {exc}") from None


def load_corpus(manifest: CorpusManifest) -> LoadedCorpus:
    """Read and preprocess every manifest document."""
    stopwords = stopwords_from(manifest.stopwords_path)
    query_text = read_text(manifest.query_path, f"query {manifest.query_id!r}")
    query_tokens = remove_stopwords(normalize_and_tokenize(query_text), stopwords.words)
    query = TokenizedDoc(id=manifest.query_id, group="query", tokens=tuple(query_tokens))

    groups: dict[str, list[TokenizedDoc]] = {}
    for doc in manifest.documents:
        text = read_text(doc.path, f"document {doc.id!r}")
        tokens = remove_stopwords(normalize_and_tokenize(text), stopwords.words)
        groups.setdefault(doc.group, []).append(
            TokenizedDoc(id=doc.id, group=doc.group, tokens=tuple(tokens))
        )
    return LoadedCorpus(query=query, query_text=query_text, groups=groups, stopwords=stopwords)


@dataclass(frozen=True)
class RankedDoc:
    id: str
    similarity: float
    oov_dropped: int


@dataclass(frozen=True)
class SkippedDoc:
    id: str
    group: str
    reason: str


@dataclass(frozen=True)
class ExperimentReport:
    group_order: tuple[str, ...]
    rankings: dict[str, list[RankedDoc]]
    summaries: dict[str, GroupSummary]
    skipped: tuple[SkippedDoc, ...]
    omnibus: HypothesisTestResult | None
    pairwise: tuple[HypothesisTestResult, ...]
    note: str | None
    provenance: dict

    def to_dict(self) -> dict:
        groups = {
            g: {
                "documents": [
                    {"id": d.id, "similarity": d.similarity, "oov_dropped": d.oov_dropped}
                    for d in self.rankings[g]
                ],
                "summary": {
                    "n": self.summaries[g].n,
                    "median": self.summaries[g].median,
                    "q1": self.summaries[g].q1,
                    "q3": self.summaries[g].q3,
                },
            }
            for g in self.group_order
        }
        significance: dict = {
            "kruskal_wallis": self.omnibus.to_dict() if self.omnibus else None,
            "pairwise_wilcoxon_exact": [t.to_dict() for t in self.pairwise],
        }
        if self.note:
            significance["note"] = self.note
        return {
            "group_order": list(self.group_order),
            "groups": groups,
            "significance": significance,
            "skipped": [
                {"id": s.id, "group": s.group, "reason": s.reason} for s in self.skipped
            ],
            "provenance": self.provenance,
        }


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def select_claims(
    text: str, cfg: SelectorConfig, stopwords: StopwordList, table: EmbeddingTable | None, seed: int
) -> list[SentenceRecord]:
    """The claim sentences of ``text``, best first, chosen by ``cfg.method``.

    ``table`` is used only by the moving-average selector and ``seed``
    only by the topic model.
    """
    sentences = split_sentences(text, stopwords.words)
    if not sentences:
        raise EmptyDocumentError("text has no sentences")
    if cfg.method == "ma":
        return ma_select(sentences, table, window=cfg.window, top_k=cfg.top_k)
    model = fit_lda(
        sentences,
        n_topics=cfg.n_topics,
        alpha=cfg.alpha,
        beta=cfg.beta,
        iterations=cfg.iterations,
        seed=seed,
    )
    return lda_select(
        model, sentences, cue_words=cfg.cue_words or DEFAULT_CUE_WORDS, top_k=cfg.top_k
    )


def _select_query_tokens(
    manifest: CorpusManifest,
    corpus: LoadedCorpus,
    table: EmbeddingTable,
) -> list[str]:
    cfg = manifest.selector
    if cfg is None:
        return list(corpus.query.tokens)
    selected = select_claims(corpus.query_text, cfg, corpus.stopwords, table, manifest.seed)
    return [t for s in sorted(selected, key=lambda s: s.index) for t in s.tokens]


def run_experiment(manifest: CorpusManifest) -> ExperimentReport:
    """Score the corpus against the query and run the significance protocol.

    Deterministic for a fixed manifest, file contents, and seed. A query
    that cannot be embedded is fatal; unscoreable candidates become skip
    entries, but a group losing all its documents is an error.
    """
    table = load_embeddings(manifest.embedding_path, manifest.expected_dim)
    corpus = load_corpus(manifest)

    try:
        query_nbow = build_nbow(_select_query_tokens(manifest, corpus, table), table)
    except EmptyDocumentError as exc:
        raise EmptyDocumentError(f"query {manifest.query_id!r}: {exc}") from None

    flat: list[tuple[str, str, NBow | None, int, str]] = []  # group, id, nbow, oov, reason
    for group in corpus.groups:
        for doc in corpus.groups[group]:
            try:
                nbow = build_nbow(doc.tokens, table)
                flat.append((group, doc.id, nbow, nbow.oov_dropped, ""))
            except EmptyDocumentError as exc:
                flat.append((group, doc.id, None, len(doc.tokens), str(exc)))

    scores = lc_rwmd_batch(
        query_nbow, [nbow for _, _, nbow, _, _ in flat], table, manifest.variant
    )

    group_order = tuple(corpus.groups)
    rankings: dict[str, list[RankedDoc]] = {g: [] for g in group_order}
    skipped: list[SkippedDoc] = []
    for (group, doc_id, _, oov, reason), res in zip(flat, scores):
        if res is None:
            skipped.append(SkippedDoc(id=doc_id, group=group, reason=reason))
        else:
            rankings[group].append(
                RankedDoc(id=doc_id, similarity=res.similarity, oov_dropped=oov)
            )
    for group in group_order:
        if not rankings[group]:
            raise DataError(
                f"group {group!r} has no scoreable documents (all were skipped)"
            )
        rankings[group].sort(key=lambda d: (-d.similarity, d.id))

    summaries = {
        g: median_iqr([d.similarity for d in rankings[g]]) for g in group_order
    }

    omnibus = None
    pairwise: tuple[HypothesisTestResult, ...] = ()
    note = None
    if len(group_order) >= 2:
        by_group = {g: [d.similarity for d in rankings[g]] for g in group_order}
        omnibus = kruskal_wallis(by_group)
        pairwise = tuple(
            wilcoxon_rank_sum_exact(by_group[a], by_group[b], labels=(a, b))
            for a, b in combinations(group_order, 2)
        )
    else:
        note = "significance tests omitted: corpus has a single group"

    provenance = {
        "tool": "claimdist",
        "tool_version": __version__,
        "query_id": manifest.query_id,
        "embedding_file": manifest.embedding_path.name,
        "embedding_sha256": _file_sha256(manifest.embedding_path),
        "embedding_dimension": table.dimension,
        "embedding_vocabulary_size": len(table),
        "embedding_zero_rows_dropped": table.n_zero_dropped,
        "embedding_duplicate_tokens": table.n_duplicates,
        "stopword_list": corpus.stopwords.name,
        "stopword_sha256": corpus.stopwords.sha256,
        "rwmd_variant": manifest.variant,
        "seed": manifest.seed,
        "selector": manifest.selector.to_provenance() if manifest.selector else None,
        "query_oov_dropped": query_nbow.oov_dropped,
        "quantile_convention": "linear interpolation, h=(n-1)p (type 7)",
        "test_sidedness": "two-sided",
    }

    return ExperimentReport(
        group_order=group_order,
        rankings=rankings,
        summaries=summaries,
        skipped=tuple(skipped),
        omnibus=omnibus,
        pairwise=pairwise,
        note=note,
        provenance=provenance,
    )


def _format_p(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.4f}"


def _emit_text(report: ExperimentReport, include_significance: bool) -> str:
    label_width = len("Median") + 2
    columns: list[list[str]] = []
    for g in report.group_order:
        col = [g, "Doc ID - Distance"]
        col.extend(f"{d.id} - {d.similarity:.4f}" for d in report.rankings[g])
        columns.append(col)
    widths = [max(len(line) for line in col) + 3 for col in columns]
    n_rows = max(len(col) for col in columns)

    out = io.StringIO()
    query_id = report.provenance.get("query_id", "?")
    variant = report.provenance.get("rwmd_variant", "?")
    out.write(f"RWMD similarity to query '{query_id}' (variant: {variant})\n\n")
    for r in range(n_rows):
        cells = [
            (col[r] if r < len(col) else "").ljust(w) for col, w in zip(columns, widths)
        ]
        out.write(" " * label_width + "".join(cells).rstrip() + "\n")
    med = "".join(
        f"{report.summaries[g].median:.4f}".ljust(w)
        for g, w in zip(report.group_order, widths)
    )
    iqr = "".join(
        f"[{report.summaries[g].q1:.4f}-{report.summaries[g].q3:.4f}]".ljust(w)
        for g, w in zip(report.group_order, widths)
    )
    out.write("Median".ljust(label_width) + med.rstrip() + "\n")
    out.write("[IQR]".ljust(label_width) + iqr.rstrip() + "\n")

    if include_significance:
        out.write("\nSignificance: * 0.01 < p <= 0.05, ** p <= 0.01\n")
        if report.omnibus is not None:
            out.write(
                f"Kruskal-Wallis test: {_format_p(report.omnibus.p_value)}"
                f"{report.omnibus.stars}\n"
            )
            out.write("Pairwise Wilcoxon rank sum exact test:\n")
            for t in report.pairwise:
                method = "" if t.method == "exact" else f"  [{t.method}]"
                out.write(
                    f"  {t.groups[0]} vs {t.groups[1]}: {_format_p(t.p_value)}"
                    f"{t.stars}{method}\n"
                )
        if report.note:
            out.write(f"{report.note}\n")

    if report.skipped:
        out.write("\nSkipped documents:\n")
        for s in report.skipped:
            out.write(f"  {s.group}/{s.id}: {s.reason}\n")
    return out.getvalue()


def _emit_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "doc_id", "similarity"])
    for g in report.group_order:
        for d in report.rankings[g]:
            writer.writerow([g, d.id, f"{d.similarity:.6f}"])
    return buf.getvalue()


def emit_report(
    report: ExperimentReport,
    format: str = "text",
    include_significance: bool = True,
) -> bytes:
    """Serialize a report as a UTF-8 byte stream.

    JSON output is canonical (sorted keys, fixed layout): parsing and
    re-emitting it is byte-identical.
    """
    if format == "json":
        doc = report.to_dict()
        if not include_significance:
            doc.pop("significance")
        return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode(
            "utf-8"
        )
    if format == "csv":
        return _emit_csv(report).encode("utf-8")
    if format == "text":
        return _emit_text(report, include_significance).encode("utf-8")
    raise ConfigError(f"unknown report format {format!r}; expected one of {REPORT_FORMATS}")


def _synthetic_pair(
    rng: np.random.Generator, size: int, dimension: int
) -> tuple[NBow, NBow, EmbeddingTable]:
    vectors = rng.normal(size=(2 * size, dimension))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    words = [f"w{i}" for i in range(2 * size)]
    table = EmbeddingTable(
        dimension=dimension,
        vocabulary={w: i for i, w in enumerate(words)},
        matrix=vectors,
        row_norms=np.linalg.norm(vectors, axis=1),
        source_name="<synthetic>",
    )

    def nbow(lo: int) -> NBow:
        w = rng.random(size) + 1e-3
        return NBow(words=tuple(words[lo : lo + size]), weights=w / w.sum())

    return nbow(0), nbow(size), table


def _time_call(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_scaling(
    unique_word_counts: Sequence[int],
    pairs_per_size: int,
    seed: int,
    dimension: int = 8,
) -> bytes:
    """Wall-clock scaling of the exact solver vs the batched relaxation.

    For each size, random document pairs (unit vectors, normalized
    weights) are scored by both paths; the CSV reports median seconds
    per size plus a final row with the fitted log-log slopes. Each
    timing sample is the best of three executions to damp jitter.
    """
    sizes = list(unique_word_counts)
    if not sizes:
        raise ConfigError("bench needs at least one size")
    if any(s < 1 or s > DEFAULT_ORACLE_LIMIT for s in sizes):
        raise ConfigError(f"sizes must be within [1, {DEFAULT_ORACLE_LIMIT}]")
    if pairs_per_size < 3:
        raise ConfigError("pairs_per_size must be >= 3")

    rng = np.random.default_rng(seed)
    medians_wmd: list[float] = []
    medians_rwmd: list[float] = []
    for size in sizes:
        t_wmd: list[float] = []
        t_rwmd: list[float] = []
        for _ in range(pairs_per_size):
            a, b, table = _synthetic_pair(rng, size, dimension)
            t_wmd.append(_time_call(lambda: wmd_exact(a, b, table)))
            t_rwmd.append(_time_call(lambda: lc_rwmd_batch(a, [b], table)))
        medians_wmd.append(float(np.median(t_wmd)))
        medians_rwmd.append(float(np.median(t_rwmd)))

    log_sizes = np.log(np.asarray(sizes, dtype=np.float64))
    slope_wmd = float(np.polyfit(log_sizes, np.log(medians_wmd), 1)[0])
    slope_rwmd = float(np.polyfit(log_sizes, np.log(medians_rwmd), 1)[0])

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["size", "median_wmd_seconds", "median_rwmd_seconds"])
    for size, tw, tr in zip(sizes, medians_wmd, medians_rwmd):
        writer.writerow([size, f"{tw:.6f}", f"{tr:.6f}"])
    writer.writerow(["slope", f"{slope_wmd:.6f}", f"{slope_rwmd:.6f}"])
    return buf.getvalue().encode("utf-8")
