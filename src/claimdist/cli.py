"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal
invariant violation or unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import traceback

from . import __version__
from .errors import ConfigError, DataError, InternalInvariantError
from .embeddings import load_embeddings
from .pipeline import (
    REPORT_FORMATS,
    SELECTOR_METHODS,
    SelectorConfig,
    bench_scaling,
    emit_report,
    load_manifest,
    read_text,
    run_experiment,
    select_claims,
)
from .textprep import build_nbow, normalize_and_tokenize, remove_stopwords, stopwords_from
from .transport import RWMD_VARIANTS, SYMMETRIC_MAX, rwmd_distance


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return int(text)


def _int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def _read_doc_tokens(path: str, label: str, stopwords) -> list[str]:
    return remove_stopwords(normalize_and_tokenize(read_text(path, label)), stopwords.words)


def _write_out(data: bytes, out: str | None):
    if out:
        try:
            with open(out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.buffer.write(data)


def _print_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False))


def _cmd_run(args) -> int:
    report = run_experiment(load_manifest(args.manifest))
    significance = args.command == "run"
    _write_out(emit_report(report, args.format, include_significance=significance), args.out)
    return 0


def _cmd_dist(args) -> int:
    stopwords = stopwords_from(args.stopwords)
    query = _read_doc_tokens(args.query_file, "query file", stopwords)
    candidate = _read_doc_tokens(args.candidate_file, "candidate file", stopwords)
    table = load_embeddings(args.embeddings, args.expected_dim)
    a = build_nbow(query, table)
    b = build_nbow(candidate, table)
    res = rwmd_distance(a, b, table, args.variant)
    _print_json(
        {"distance": res.distance, "similarity": res.similarity, "variant": res.variant}
    )
    return 0


def _cmd_extract(args) -> int:
    cfg = SelectorConfig(
        method=args.selector, top_k=args.top_k, n_topics=args.k, alpha=args.alpha,
        beta=args.beta, iterations=args.iters, window=args.window,
        cue_words=tuple(args.cues.split(",")) if args.cues else None,
    )
    text = read_text(args.file, "input file")
    stopwords = stopwords_from(args.stopwords)
    if cfg.method == "ma" and not args.embeddings:
        raise _UsageError("--embeddings is required with --selector ma")
    table = load_embeddings(args.embeddings) if cfg.method == "ma" else None
    selected = select_claims(text, cfg, stopwords, table, args.seed)
    _print_json(
        [{"index": s.index, "score": s.score, "text": s.text} for s in selected]
    )
    return 0


def _cmd_preprocess(args) -> int:
    tokens = normalize_and_tokenize(read_text(args.file, "input file"))
    filtered = remove_stopwords(tokens, stopwords_from(args.stopwords).words)
    doc = {"tokens": tokens, "filtered_tokens": filtered, "nbow": None}
    if args.embeddings:
        table = load_embeddings(args.embeddings)
        nbow = build_nbow(filtered, table)
        doc["nbow"] = {
            "words": list(nbow.words),
            "weights": [float(w) for w in nbow.weights],
            "oov_dropped": nbow.oov_dropped,
        }
    _print_json(doc)
    return 0


def _cmd_embeddings_info(args) -> int:
    table = load_embeddings(args.path)
    print(f"dimension: {table.dimension}")
    print(f"vocabulary_size: {len(table)}")
    print(f"zero_rows_dropped: {table.n_zero_dropped}")
    print(f"duplicate_tokens_ignored: {table.n_duplicates}")
    return 0


def _cmd_bench(args) -> int:
    _write_out(bench_scaling(args.sizes, args.pairs, args.seed), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="claimdist", description=__doc__)
    parser.add_argument("--version", action="version", version=f"claimdist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the full experiment from a manifest")
    p.add_argument("manifest")
    p.add_argument("--format", choices=REPORT_FORMATS, default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("rank", help="rank candidates against the query (no significance block)")
    p.add_argument("manifest")
    p.add_argument("--format", choices=REPORT_FORMATS, default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("dist", help="distance between two text files")
    p.add_argument("query_file")
    p.add_argument("candidate_file")
    p.add_argument("--embeddings", required=True, help="word-vector file (text format)")
    p.add_argument("--expected-dim", type=_positive_int, default=None)
    p.add_argument("--variant", choices=RWMD_VARIANTS, default=SYMMETRIC_MAX)
    p.add_argument("--stopwords", default=None)
    p.set_defaults(fn=_cmd_dist)

    p = sub.add_parser("extract", help="select knowledge-claim sentences from a document")
    p.add_argument("file")
    p.add_argument("--selector", choices=SELECTOR_METHODS, required=True)
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--k", type=int, default=5, help="topic count (lda)")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--cues", default=None, help="comma-separated cue words (lda)")
    p.add_argument("--window", type=int, default=3, help="smoothing window (ma)")
    p.add_argument("--embeddings", default=None, help="word-vector file (required for ma)")
    p.add_argument("--stopwords", default=None)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("preprocess", help="show tokens and bag-of-words weights for a file")
    p.add_argument("file")
    p.add_argument("--embeddings", default=None)
    p.add_argument("--stopwords", default=None)
    p.set_defaults(fn=_cmd_preprocess)

    p = sub.add_parser("embeddings", help="embedding-file utilities")
    esub = p.add_subparsers(dest="embeddings_command", required=True)
    pi = esub.add_parser("info", help="print dimension, vocabulary size, and load counts")
    pi.add_argument("path")
    pi.set_defaults(fn=_cmd_embeddings_info)

    p = sub.add_parser("bench", help="scaling benchmark: exact solver vs batched relaxation")
    p.add_argument("--sizes", type=_int_list, default="8,16,32,64")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seed", type=_non_negative_int, default=42)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (_UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
