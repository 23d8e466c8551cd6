"""Traced in-process experiment: spans and counters per layer.

One operation per process, run as a child of ``run.py``::

    python3 perfbench/trace.py --manifest DIR/manifest.json --traced 1 \
        --report report.json --out op.json

The operation is ``load_manifest``, ``run_experiment`` and
``emit_report(..., "json")`` in this process. With ``--traced 1`` the
module attributes that ``claimdist.pipeline.run_experiment`` looks up
(``NAMES``) are first swapped for timing wrappers, and spans are recorded
around them, ``run_experiment`` and ``emit_report``: name, start, end,
parent span and the growth of the process peak RSS during the call. A
fresh process per operation keeps that growth, and the first-call costs
a CLI run pays, comparable between operations. Spans and counters stay in
memory and are written to ``--out`` at the end, with the independent
dense RWMD check of every scored candidate. With ``--traced 0`` only the
``run_experiment`` time is recorded, for the tracing overhead.

A name missing from ``claimdist.pipeline`` is listed under ``absent`` and
not wrapped.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path

import check

NAMES = (
    "load_embeddings",
    "load_corpus",
    "split_sentences",
    "fit_lda",
    "lda_select",
    "ma_select",
    "build_nbow",
    "lc_rwmd_batch",
    "median_iqr",
    "kruskal_wallis",
    "wilcoxon_rank_sum_exact",
    "_file_sha256",
)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_load_embeddings(args, result, counters):
    counters["rows"] = len(result)
    counters["file_bytes"] = os.path.getsize(args["source"])


def _count_split_sentences(args, result, counters):
    counters["sentences"] += len(result)


def _count_fit_lda(args, result, counters):
    counters["lda_token_updates"] += args["iterations"] * sum(len(s.tokens) for s in args["sentences"])


def _count_build_nbow(args, result, counters):
    counters["nbow_calls"] += 1
    counters["oov_tokens"] += result.oov_dropped


def _count_lc_rwmd_batch(args, result, counters):
    cands = [c for c in args["candidates"] if c is not None]
    counters["query_words"] = len(args["query"])
    counters["candidates"] = len(args["candidates"])
    counters["union_words"] = len({w for c in cands for w in c.words})
    counters["dim"] = args["table"].dimension


def _count_wilcoxon(args, result, counters):
    counters["wilcoxon_exact_calls"] += result.method == "exact"


COUNTERS = {
    "load_embeddings": _count_load_embeddings,
    "split_sentences": _count_split_sentences,
    "fit_lda": _count_fit_lda,
    "build_nbow": _count_build_nbow,
    "lc_rwmd_batch": _count_lc_rwmd_batch,
    "wilcoxon_rank_sum_exact": _count_wilcoxon,
}


class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(
            ("sentences", "lda_token_updates", "nbow_calls", "oov_tokens", "wilcoxon_exact_calls"), 0
        )
        self.counter_errors: list[str] = []
        self.kernel_calls: list[tuple[dict, list]] = []

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        span = {"name": name, "parent": self.stack[-1] if self.stack else None}
        self.stack.append(len(self.spans))
        self.spans.append(span)
        rss0 = _maxrss_mb()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            span["rss_growth_mb"] = _maxrss_mb() - rss0
            self.stack.pop()
        count = COUNTERS.get(name)
        if count is not None:
            self._count(name, count, fn, args, kwargs, result)
        return result

    def _count(self, name, count, fn, args, kwargs, result):
        try:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            count(bound.arguments, result, self.counters)
            if name == "lc_rwmd_batch":
                self.kernel_calls.append((bound.arguments, result))
        except (KeyError, TypeError, AttributeError) as exc:
            # A renamed parameter or field loses a counter, not the run.
            self.counter_errors.append(f"{name}: {exc!r}")

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced


def dense_check(tracer: Tracer, report: bytes) -> tuple[int, float, list[str]]:
    """Recompute every scored candidate of the traced op with ``check.dense_similarity``."""
    if len(tracer.kernel_calls) != 1:
        return 0, 0.0, [f"expected one lc_rwmd_batch call, saw {len(tracer.kernel_calls)}"]
    args, results = tracer.kernel_calls[0]
    if args["variant"] != check.SYMMETRIC_MAX:
        return 0, 0.0, [f"kernel variant {args['variant']!r} is not {check.SYMMETRIC_MAX}"]
    table, query = args["table"], args["query"]
    kernel, dense = [], []
    for cand, res in zip(args["candidates"], results):
        if cand is None or res is None:
            continue
        kernel.append(res.similarity)
        dense.append(
            check.dense_similarity(query.words, query.weights, cand.words, cand.weights, table.matrix, table.vocabulary)
        )
    problems = []
    worst = max((abs(a - b) for a, b in zip(kernel, dense)), default=0.0)
    if worst > check.DENSE_TOLERANCE:
        problems.append(f"kernel differs from the dense per-pair RWMD by {worst:.3g}")
    reported = check.similarities(report)
    # Candidates reach the kernel without ids, so the report is matched as a multiset.
    worst_report = check.max_sorted_difference(reported, dense)
    if worst_report is None:
        problems.append(f"report scores {len(reported)} candidates, dense check {len(dense)}")
    elif worst_report > check.DENSE_TOLERANCE:
        problems.append(f"report differs from the dense per-pair RWMD by {worst_report:.3g}")
    return len(dense), max(worst, worst_report or 0.0), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), required=True)
    parser.add_argument("--report", type=Path, required=True, help="where to write the JSON report")
    parser.add_argument("--out", type=Path, required=True, help="where to write spans, counters and checks")
    args = parser.parse_args(argv)

    import claimdist
    import claimdist.pipeline as pipeline

    tracer = Tracer()
    originals = {n: getattr(pipeline, n) for n in NAMES if hasattr(pipeline, n)}
    result: dict = {"claimdist_file": claimdist.__file__, "absent": [n for n in NAMES if n not in originals]}
    manifest = pipeline.load_manifest(args.manifest)
    if args.traced:
        for name, fn in originals.items():
            setattr(pipeline, name, tracer.wrap(name, fn))
        report = tracer.call("run_experiment", pipeline.run_experiment, (manifest,), {})
        data = tracer.call("emit_report", pipeline.emit_report, (report, "json"), {})
        result["dense_checked"], result["dense_max_diff"], result["problems"] = dense_check(tracer, data)
        result.update(spans=tracer.spans, counters=tracer.counters, counter_errors=tracer.counter_errors)
    else:
        t0 = time.perf_counter()
        report = pipeline.run_experiment(manifest)
        result["run_experiment_s"] = time.perf_counter() - t0
        data = pipeline.emit_report(report, "json")
        result["problems"] = []
    args.report.write_bytes(data)
    args.out.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
