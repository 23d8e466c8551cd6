"""Corpus ingestion, experiment orchestration, and report emission.

A JSON manifest names the query document, the grouped candidate
documents, the word-vector file, and run options. ``run_experiment``
scores every candidate against the query with the batched relaxed
distance, summarizes each group, runs the omnibus and pairwise rank
tests, and returns the report as its JSON document. ``emit_report``
renders that document as JSON, as CSV, or as text in the classic
two-table layout: per-group ranked scores with median/[IQR] footers, then
a significance block. Reports carry a provenance block (file hashes,
variant, seed, selector settings) so any configuration gap stays
auditable.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, native
from .claimselect import (
    DEFAULT_CUE_WORDS,
    SentenceRecord,
    fit_lda,
    lda_select,
    ma_select,
    split_sentences,
)
from .embeddings import EmbeddingTable, Vocabulary, load_embeddings
# run_experiment looks the digest function up under this name, which
# perfbench/trace.py wraps to time the hash.
from .embeddings import file_sha256 as _file_sha256
from .errors import ConfigError, DataError, EmptyDocumentError
from .stats import kruskal_wallis, median_iqr, wilcoxon_rank_sum_exact
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
    cue_words: tuple[str, ...] = tuple(sorted(DEFAULT_CUE_WORDS))

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
            ("cue_words", len(self.cue_words) > 0, "a nonempty list"),
        ):
            if not ok:
                raise ConfigError(f"selector {name} must be {rule}, got {getattr(self, name)!r}")
        # lda_select matches cues against tokens: keep each cue's one token, sorted and unique.
        cues = set()
        for cue in self.cue_words:
            tokens = normalize_and_tokenize(cue)
            if len(tokens) != 1:
                raise ConfigError(f"selector cue_words must be one word each, got {cue!r}")
            cues.update(tokens)
        object.__setattr__(self, "cue_words", tuple(sorted(cues)))

    def to_provenance(self) -> dict:
        if self.method == "lda":
            return {
                "method": "lda",
                "top_k": self.top_k,
                "n_topics": self.n_topics,
                "alpha": self.alpha,
                "beta": self.beta,
                "iterations": self.iterations,
                "cue_words": list(self.cue_words),
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


def _require_file(label: str, path: Path):
    if not path.is_file():
        reason = "not a regular file" if path.exists() else "file not found"
        raise ConfigError(f"{label}: {reason}: {path}")


def load_manifest(path: str | Path) -> CorpusManifest:
    """Parse and validate a JSON corpus manifest.

    Relative paths resolve against the manifest's own directory. The
    manifest and every document, query and stopword path it names must
    be regular files; (group, id) pairs must be unique; group labels
    must be nonempty.
    """
    path = Path(path)
    _require_file("manifest", path)
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
    selector = _parse_selector(selector_raw) if selector_raw is not None else None

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
    if seed < 0:
        raise ConfigError(f"options.seed must be a non-negative integer, got {seed}")

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
    # The table is checked when it is hashed, as in every other command.
    for doc in manifest.documents:
        _require_file(f"document {doc.id!r} ({doc.group})", doc.path)
    _require_file(f"query {query_id!r}", manifest.query_path)
    if manifest.stopwords_path is not None:
        _require_file("stopword file", manifest.stopwords_path)
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
    """Read and preprocess every manifest document.

    Each distinct token is kept as one string object, shared by the query
    and every document, instead of one per occurrence.
    """
    stopwords = stopwords_from(manifest.stopwords_path)
    shared: dict[str, str] = {}

    def tokenize(text: str) -> tuple[str, ...]:
        tokens = remove_stopwords(normalize_and_tokenize(text), stopwords.words)
        return tuple(map(shared.setdefault, tokens, tokens))

    query_text = read_text(manifest.query_path, f"query {manifest.query_id!r}")
    query = TokenizedDoc(id=manifest.query_id, tokens=tokenize(query_text))

    groups: dict[str, list[TokenizedDoc]] = {}
    for doc in manifest.documents:
        text = read_text(doc.path, f"document {doc.id!r}")
        groups.setdefault(doc.group, []).append(TokenizedDoc(id=doc.id, tokens=tokenize(text)))
    return LoadedCorpus(query=query, query_text=query_text, groups=groups, stopwords=stopwords)


def select_claims(
    text: str, cfg: SelectorConfig, stopwords: StopwordList, table: EmbeddingTable | None, seed: int
) -> list[SentenceRecord]:
    """The claim sentences of ``text``, best first, chosen by ``cfg.method``.

    ``table`` is used only by the moving-average selector and ``seed``
    only by the topic model, whose cue words, matched against tokens
    left after stopword removal, must not be stopwords.
    """
    stopped = [cue for cue in cfg.cue_words if cue in stopwords.words]
    if cfg.method == "lda" and stopped:
        raise ConfigError(
            f"selector cue_words {stopped} are stopwords of {stopwords.name}, "
            "which removes them before cues are matched"
        )
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
    return lda_select(model, sentences, cue_words=cfg.cue_words, top_k=cfg.top_k)


def _query_label(manifest: CorpusManifest) -> str:
    return f"query {manifest.query_id!r}: {manifest.query_path}"


def _select_query_tokens(
    manifest: CorpusManifest,
    corpus: LoadedCorpus,
    table: EmbeddingTable | None,
) -> list[str]:
    cfg = manifest.selector
    if cfg is None:
        return list(corpus.query.tokens)
    try:
        selected = select_claims(corpus.query_text, cfg, corpus.stopwords, table, manifest.seed)
    except DataError as exc:
        raise type(exc)(f"{_query_label(manifest)}: {exc}") from None
    return [t for s in sorted(selected, key=lambda s: s.index) for t in s.tokens]


def run_experiment(manifest: CorpusManifest) -> dict:
    """Score the corpus against the query and run the significance protocol.

    The report is its JSON document: ``group_order``; ``groups``, each
    with its ``documents`` best first and their median/IQR ``summary``;
    ``significance``, with a ``note`` in place of the tests for a single
    group; ``skipped``; and ``provenance``.

    Deterministic for a fixed manifest, file contents, and seed. A query
    that cannot be embedded is fatal. A candidate that cannot be embedded
    is set aside as a skip entry while the bags of words are built, so
    the kernel scores only the others; a group left with no scored
    document is an error.
    """
    # The compiled library, if it has to be built, is built meanwhile on
    # another core. Every input file is read, and the table hashed, before
    # any computation; parsing the table, the slowest step, comes after
    # the topic selector. Only the moving-average selector needs the table.
    native.start_build()
    corpus = load_corpus(manifest)
    embedding_sha256 = _file_sha256(manifest.embedding_path)
    needs_table = manifest.selector is not None and manifest.selector.method == "ma"
    query_tokens = None if needs_table else _select_query_tokens(manifest, corpus, None)
    table = load_embeddings(
        manifest.embedding_path, manifest.expected_dim, sha256=embedding_sha256
    )
    if query_tokens is None:
        query_tokens = _select_query_tokens(manifest, corpus, table)

    try:
        query_nbow = build_nbow(query_tokens, table)
    except EmptyDocumentError as exc:
        raise EmptyDocumentError(f"{_query_label(manifest)}: {exc}") from None

    scored: list[tuple[str, str, NBow]] = []  # group, id, nbow
    skipped: list[dict] = []
    for group, docs in corpus.groups.items():
        for doc in docs:
            try:
                scored.append((group, doc.id, build_nbow(doc.tokens, table)))
            except EmptyDocumentError as exc:
                skipped.append({"id": doc.id, "group": group, "reason": str(exc)})

    scores = lc_rwmd_batch(query_nbow, [nbow for _, _, nbow in scored], table, manifest.variant)

    group_order = list(corpus.groups)
    rankings: dict[str, list[dict]] = {g: [] for g in group_order}
    for (group, doc_id, nbow), res in zip(scored, scores):
        rankings[group].append(
            {"id": doc_id, "similarity": res.similarity, "oov_dropped": nbow.oov_dropped}
        )
    for group, docs in rankings.items():
        if not docs:
            raise DataError(
                f"group {group!r} has no scoreable documents (all were skipped)"
            )
        docs.sort(key=lambda d: (-d["similarity"], d["id"]))

    by_group = {g: [d["similarity"] for d in docs] for g, docs in rankings.items()}
    groups = {
        g: {"documents": rankings[g], "summary": asdict(median_iqr(by_group[g]))}
        for g in group_order
    }

    significance: dict = {"kruskal_wallis": None, "pairwise_wilcoxon_exact": []}
    if len(group_order) >= 2:
        significance["kruskal_wallis"] = kruskal_wallis(by_group).to_dict()
        significance["pairwise_wilcoxon_exact"] = [
            wilcoxon_rank_sum_exact(by_group[a], by_group[b], labels=(a, b)).to_dict()
            for a, b in combinations(group_order, 2)
        ]
    else:
        significance["note"] = "significance tests omitted: corpus has a single group"

    provenance = {
        "tool": "claimdist",
        "tool_version": __version__,
        "query_id": manifest.query_id,
        "embedding_file": manifest.embedding_path.name,
        "embedding_sha256": embedding_sha256,
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

    return {
        "group_order": group_order,
        "groups": groups,
        "significance": significance,
        "skipped": skipped,
        "provenance": provenance,
    }


def _format_p(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.4f}"


def _emit_text(report: dict, include_significance: bool) -> str:
    label_width = len("Median") + 2
    groups = [(g, report["groups"][g]) for g in report["group_order"]]
    columns: list[list[str]] = []
    for g, payload in groups:
        col = [g, "Doc ID - Distance"]
        col.extend(f"{d['id']} - {d['similarity']:.4f}" for d in payload["documents"])
        columns.append(col)
    widths = [max(len(line) for line in col) + 3 for col in columns]
    n_rows = max(len(col) for col in columns)

    out = io.StringIO()
    query_id = report["provenance"].get("query_id", "?")
    variant = report["provenance"].get("rwmd_variant", "?")
    out.write(f"RWMD similarity to query '{query_id}' (variant: {variant})\n\n")
    for r in range(n_rows):
        cells = [
            (col[r] if r < len(col) else "").ljust(w) for col, w in zip(columns, widths)
        ]
        out.write(" " * label_width + "".join(cells).rstrip() + "\n")
    summaries = [payload["summary"] for _, payload in groups]
    med = "".join(f"{s['median']:.4f}".ljust(w) for s, w in zip(summaries, widths))
    iqr = "".join(
        f"[{s['q1']:.4f}-{s['q3']:.4f}]".ljust(w) for s, w in zip(summaries, widths)
    )
    out.write("Median".ljust(label_width) + med.rstrip() + "\n")
    out.write("[IQR]".ljust(label_width) + iqr.rstrip() + "\n")

    if include_significance:
        sig = report["significance"]
        out.write("\nSignificance: * 0.01 < p <= 0.05, ** p <= 0.01\n")
        omnibus = sig["kruskal_wallis"]
        if omnibus is not None:
            out.write(
                f"Kruskal-Wallis test: {_format_p(omnibus['p_value'])}"
                f"{omnibus['significance']}\n"
            )
            out.write("Pairwise Wilcoxon rank sum exact test:\n")
            for t in sig["pairwise_wilcoxon_exact"]:
                method = "" if t["method"] == "exact" else f"  [{t['method']}]"
                out.write(
                    f"  {t['groups'][0]} vs {t['groups'][1]}: {_format_p(t['p_value'])}"
                    f"{t['significance']}{method}\n"
                )
        if sig.get("note"):
            out.write(f"{sig['note']}\n")

    if report["skipped"]:
        out.write("\nSkipped documents:\n")
        for s in report["skipped"]:
            out.write(f"  {s['group']}/{s['id']}: {s['reason']}\n")
    return out.getvalue()


def _emit_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "doc_id", "similarity"])
    for g in report["group_order"]:
        for d in report["groups"][g]["documents"]:
            writer.writerow([g, d["id"], f"{d['similarity']:.6f}"])
    return buf.getvalue()


def emit_report(
    report: dict,
    format: str = "text",
    include_significance: bool = True,
) -> bytes:
    """Serialize a report, as ``run_experiment`` returns it, as a UTF-8 byte stream.

    ``report`` may also be a JSON report read back with ``json.loads``:
    it renders to the same bytes. JSON output is canonical (sorted keys,
    fixed layout): parsing and re-emitting it is byte-identical. The
    report is not modified.
    """
    if format == "json":
        if not include_significance:
            report = {k: v for k, v in report.items() if k != "significance"}
        return (json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode(
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
        vocabulary=Vocabulary.from_words(words),
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
    if len(set(sizes)) < 2:
        raise ConfigError(f"bench needs at least two distinct sizes to fit a slope, got {sizes}")
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
