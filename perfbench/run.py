"""Paper-scale experiment benchmark for claimdist.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lda-claims --seed 1 --seconds 15 --trace 0

One operation is one real experiment, ``python -m claimdist.cli run
manifest.json --format json --out FILE``, in a child process, over inputs
that ``gen.py`` writes from ``--seed``. One client runs one operation at a
time (closed loop).

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over ``SETUP_REPS`` cold operations. Each runs on a
  freshly written copy of the inputs with fresh ``HOME``,
  ``XDG_CACHE_HOME`` and ``TMPDIR`` directories, so an on-disk cache starts
  empty. The input files are in the page cache (they were just written);
  dropping it would need machine settings the benchmark does not touch.
- ``experiment_s``: median wall time of the warm operations started within
  ``--seconds`` after set-up, from child spawn to exit, against the last
  set-up directory and environment.
- ``peak_rss_mb``: the largest ``ru_maxrss`` of any single child, read per
  child with ``os.wait4`` (MB = 2**20 bytes).

``--trace 1`` runs ``trace.py`` in a child and reports per-layer metrics
from its spans and counters (``LAYER_METRICS``), seconds per operation,
median over the traced operations.

Every operation's output is checked (``check.py``); an operation that
exits non-zero, times out or fails a check counts in ``failed`` and the
run goes on. ``failed / attempted`` is the failed-operation share. The
last line of standard output is the JSON result; the lines before it give
every metric with its unit and sample count, the input descriptors and
the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 3
# Bounds the worst case, three set-up operations and one warm one, to
# under 180 s; a normal operation takes at most about 12 s.
OP_TIMEOUT_S = 40.0
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


@dataclass
class Op:
    wall_s: float
    maxrss_mb: float
    problems: list[str] = field(default_factory=list)


def child_env(home: Path) -> dict[str, str]:
    """Environment of a child: sources from ``SRC``, BLAS threads capped, fresh home and cache under ``home``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(dict.fromkeys(BLAS_THREAD_VARS, str(NPROC)))
    for var, sub in (("HOME", "home"), ("XDG_CACHE_HOME", "cache"), ("TMPDIR", "tmp")):
        (home / sub).mkdir(parents=True, exist_ok=True)
        env[var] = str(home / sub)
    return env


def spawn(argv: list[str], cwd: Path, env: dict[str, str], log: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, its own ru_maxrss in MB, exit code)."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, code


def _tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return " | ".join(lines[-3:])


def copy_inputs(src: Path, dst: Path) -> None:
    """A freshly written copy of the generated inputs, flushed to disk."""
    for path in sorted(src.rglob("*")):
        target = dst / path.relative_to(src)
        if path.is_dir():
            target.mkdir(parents=True, exist_ok=True)
            continue
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, target)
        with open(target, "rb+") as fh:
            os.fsync(fh.fileno())


class Checker:
    """Output check shared by the operations of one run."""

    def __init__(self, descriptors: dict):
        self.descriptors = descriptors
        self.reference: bytes | None = None

    def __call__(self, data: bytes) -> list[str]:
        problems = check.check_report(data, self.descriptors["expected_group_order"], self.descriptors["n_candidates"])
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            problems.append("report is not byte-identical to the run's first operation")
        return problems


def cli_op(checker: Checker, cwd: Path, env: dict[str, str], name: str) -> Op:
    """One ``claimdist run`` in a child process, checked."""
    out = cwd / f"{name}.json"
    argv = [sys.executable, "-m", "claimdist.cli", "run", "manifest.json", "--format", "json", "--out", out.name]
    wall, rss, code = spawn(argv, cwd, env, cwd / f"{name}.stderr")
    if code != 0 or not out.is_file():
        return Op(wall, rss, [f"exit code {code}, report written: {out.is_file()}: {_tail(cwd / f'{name}.stderr')}"])
    op = Op(wall, rss, checker(out.read_bytes()))
    out.unlink()
    return op


def run_untraced(inputs: Path, work: Path, descriptors: dict, seconds: float) -> tuple[list[Op], dict]:
    checker = Checker(descriptors)
    setups: list[Op] = []
    for i in range(SETUP_REPS):
        cwd = work / f"setup{i}"
        copy_inputs(inputs, cwd)
        env = child_env(home=cwd / "env")
        setups.append(cli_op(checker, cwd, env, "report"))
    warm: list[Op] = []
    begin = time.perf_counter()
    while not warm or time.perf_counter() - begin < seconds:
        warm.append(cli_op(checker, cwd, env, f"warm{len(warm)}"))
    ops = setups + warm
    ok_warm = [o.wall_s for o in warm if not o.problems] or [o.wall_s for o in warm]
    ok_setup = [o.wall_s for o in setups if not o.problems] or [o.wall_s for o in setups]
    metrics = {
        "experiment_s": (statistics.median(ok_warm), "s", len(ok_warm)),
        "setup_s": (statistics.median(ok_setup), "s", len(ok_setup)),
        "peak_rss_mb": (max(o.maxrss_mb for o in ops), "MB", len(ops)),
    }
    return ops, metrics


# Per-layer metric -> (unit, wrapped name it needs or None). The values come from layer_values().
LAYER_METRICS = {
    "embeddings.load_embeddings.s": ("s", "load_embeddings"),
    "embeddings.us_per_row": ("us", "load_embeddings"),
    "embeddings.load_embeddings.rss_growth_mb": ("MB", "load_embeddings"),
    "embeddings.rows": ("count", "load_embeddings"),
    "embeddings.file_mb": ("MB", "load_embeddings"),
    "pipeline.file_sha256.s": ("s", "_file_sha256"),
    "claimselect.fit_lda.s": ("s", "fit_lda"),
    "claimselect.fit_lda.token_updates": ("count", "fit_lda"),
    "claimselect.fit_lda.us_per_update": ("us", "fit_lda"),
    "claimselect.lda_select.s": ("s", "lda_select"),
    "claimselect.split_sentences.s": ("s", "split_sentences"),
    "claimselect.sentences": ("count", "split_sentences"),
    "claimselect.ma_select.s": ("s", "ma_select"),
    "transport.lc_rwmd_batch.s": ("s", "lc_rwmd_batch"),
    "transport.lc_rwmd_batch.rss_growth_mb": ("MB", "lc_rwmd_batch"),
    "transport.query_words": ("count", "lc_rwmd_batch"),
    "transport.union_words": ("count", "lc_rwmd_batch"),
    "transport.candidates": ("count", "lc_rwmd_batch"),
    "transport.gflop_computed": ("GFLOP", "lc_rwmd_batch"),
    "transport.gflops": ("GFLOP/s", "lc_rwmd_batch"),
    "stats.wilcoxon_rank_sum_exact.s": ("s", "wilcoxon_rank_sum_exact"),
    "stats.wilcoxon_rank_sum_exact.exact_calls": ("count", "wilcoxon_rank_sum_exact"),
    "stats.kruskal_wallis.s": ("s", "kruskal_wallis"),
    "stats.median_iqr.s": ("s", "median_iqr"),
    "pipeline.load_corpus.s": ("s", "load_corpus"),
    "textprep.build_nbow.s": ("s", "build_nbow"),
    "textprep.build_nbow.calls": ("count", "build_nbow"),
    "textprep.oov_tokens": ("count", "build_nbow"),
    "pipeline.emit_report.s": ("s", None),
    "pipeline.run_experiment.s": ("s", None),
    "pipeline.run_experiment.self_s": ("s", None),
    "trace.coverage_frac": ("ratio", None),
    "trace.overhead_frac": ("ratio", None),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(traced: list[dict], untraced_s: list[float]) -> dict[str, float]:
    """Per-layer metric values from ``trace.py`` results.

    Seconds and peak-RSS growth are per operation, the median over the
    traced operations; counters come from the first one.
    """

    def per_op(fn) -> float:
        return statistics.median(fn(r["spans"]) for r in traced)

    def seconds(name: str) -> float:
        return per_op(lambda spans: sum(s["end"] - s["start"] for s in spans if s["name"] == name))

    def rss_growth(name: str) -> float:
        return per_op(lambda spans: max((s["rss_growth_mb"] for s in spans if s["name"] == name), default=0.0))

    def children_s(spans: list[dict]) -> float:
        root = next(i for i, s in enumerate(spans) if s["name"] == "run_experiment")
        return sum(s["end"] - s["start"] for s in spans if s["parent"] == root)

    c = traced[0]["counters"]
    run_s = seconds("run_experiment")
    children = per_op(children_s)
    load_s = seconds("load_embeddings")
    lda_s = seconds("fit_lda")
    kernel_s = seconds("lc_rwmd_batch")
    gflop = 2.0 * c.get("union_words", 0) * c.get("query_words", 0) * c.get("dim", 0) / 1e9
    return {
        "embeddings.load_embeddings.s": load_s,
        "embeddings.us_per_row": _ratio(load_s * 1e6, c.get("rows", 0)),
        "embeddings.load_embeddings.rss_growth_mb": rss_growth("load_embeddings"),
        "embeddings.rows": c.get("rows", 0),
        "embeddings.file_mb": c.get("file_bytes", 0) / 2**20,
        "pipeline.file_sha256.s": seconds("_file_sha256"),
        "claimselect.fit_lda.s": lda_s,
        "claimselect.fit_lda.token_updates": c["lda_token_updates"],
        "claimselect.fit_lda.us_per_update": _ratio(lda_s * 1e6, c["lda_token_updates"]),
        "claimselect.lda_select.s": seconds("lda_select"),
        "claimselect.split_sentences.s": seconds("split_sentences"),
        "claimselect.sentences": c["sentences"],
        "claimselect.ma_select.s": seconds("ma_select"),
        "transport.lc_rwmd_batch.s": kernel_s,
        "transport.lc_rwmd_batch.rss_growth_mb": rss_growth("lc_rwmd_batch"),
        "transport.query_words": c.get("query_words", 0),
        "transport.union_words": c.get("union_words", 0),
        "transport.candidates": c.get("candidates", 0),
        "transport.gflop_computed": gflop,
        "transport.gflops": _ratio(gflop, kernel_s),
        "stats.wilcoxon_rank_sum_exact.s": seconds("wilcoxon_rank_sum_exact"),
        "stats.wilcoxon_rank_sum_exact.exact_calls": c["wilcoxon_exact_calls"],
        "stats.kruskal_wallis.s": seconds("kruskal_wallis"),
        "stats.median_iqr.s": seconds("median_iqr"),
        "pipeline.load_corpus.s": seconds("load_corpus"),
        "textprep.build_nbow.s": seconds("build_nbow"),
        "textprep.build_nbow.calls": c["nbow_calls"],
        "textprep.oov_tokens": c["oov_tokens"],
        "pipeline.emit_report.s": seconds("emit_report"),
        "pipeline.run_experiment.s": run_s,
        "pipeline.run_experiment.self_s": run_s - children,
        "trace.coverage_frac": _ratio(children, run_s),
        "trace.overhead_frac": _ratio(run_s, statistics.median(untraced_s)) - 1.0 if untraced_s else 0.0,
    }


def trace_op(checker: Checker, manifest: Path, work: Path, traced: bool, name: str) -> tuple[Op, dict | None]:
    """One in-process experiment in a ``trace.py`` child, checked."""
    out, report = work / f"{name}.json", work / f"{name}.report"
    argv = [
        sys.executable, str(HERE / "trace.py"), "--manifest", str(manifest),
        "--traced", str(int(traced)), "--report", str(report), "--out", str(out),
    ]
    wall, rss, code = spawn(argv, work, child_env(home=work / "env"), work / f"{name}.stderr")
    if code != 0:
        return Op(wall, rss, [f"trace.py exit code {code}: {_tail(work / f'{name}.stderr')}"]), None
    result = json.loads(out.read_text())
    op = Op(wall, rss, checker(report.read_bytes()) + result["problems"])
    if not Path(result["claimdist_file"]).resolve().is_relative_to(SRC.resolve()):
        op.problems.append(f"imported claimdist from {result['claimdist_file']}, not {SRC}")
    return op, result


def run_traced(inputs: Path, work: Path, descriptors: dict, seconds: float, spans_out: Path) -> tuple[list[Op], dict, dict]:
    """Traced and untraced in-process operations, alternating, traced first.

    A checked but untimed warm-up operation goes first: the first process
    after input generation runs measurably slower, which would otherwise
    bias ``trace.overhead_frac``.
    """
    checker = Checker(descriptors)
    work.mkdir(parents=True, exist_ok=True)
    ops = [trace_op(checker, inputs / "manifest.json", work, False, "warmup")[0]]
    traced: list[dict] = []
    untraced_s: list[float] = []
    begin = time.perf_counter()
    while len(ops) < 3 or time.perf_counter() - begin < seconds:
        is_traced = len(ops) % 2 == 1
        op, result = trace_op(checker, inputs / "manifest.json", work, is_traced, f"op{len(ops)}")
        ops.append(op)
        if result is None or op.problems:
            continue
        if is_traced:
            traced.append(result)
        else:
            untraced_s.append(result["run_experiment_s"])
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps(traced) + "\n")
    if not traced:
        return ops, {}, {}
    absent = set(traced[0]["absent"])
    values = layer_values(traced, untraced_s)
    metrics = {
        name: (values[name], unit, len(traced)) for name, (unit, needs) in LAYER_METRICS.items() if needs not in absent
    }
    notes = {
        "absent": sorted(absent),
        "counter_errors": sorted({e for r in traced for e in r["counter_errors"]}),
        "dense_checked_per_op": [r["dense_checked"] for r in traced],
        "dense_max_abs_diff": max(r["dense_max_diff"] for r in traced),
        "spans": str(spans_out.relative_to(ROOT)),
    }
    return ops, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="claimdist experiment benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "claimdist" / "cli.py").is_file():
        print(f"error: no claimdist sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        inputs = work / "inputs"
        # Generation runs in a child so that this process, whose peak RSS
        # every child it starts inherits in ru_maxrss, never loads numpy.
        gen = subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed), "--out", str(inputs)],
            capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
        if gen.returncode != 0:
            print(f"error: input generation failed: {gen.stderr.strip()}", file=sys.stderr)
            return 2
        generated = json.loads(gen.stdout)
        descriptors = generated["descriptors"]
        if args.trace:
            spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            ops, metrics, extra = run_traced(inputs, work / "trace", descriptors, args.seconds, spans_out)
        else:
            ops, metrics = run_untraced(inputs, work, descriptors, args.seconds)
            extra = {"setup_note": "setup_s runs with the input files already in the page cache"}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for o in ops if o.problems)
    tag = f"[{args.workload} seed={args.seed} trace={args.trace}]"
    for o in ops:
        for problem in o.problems[:3]:
            print(f"{tag} FAILED op: {problem}", file=sys.stderr)
    info = dict(generated["environment"], blas_threads=NPROC, generation_s=round(generated["generation_s"], 3), **extra)
    print(f"{tag} info {json.dumps(info)}")
    print(f"{tag} inputs {json.dumps(descriptors)}")
    print(f"{tag} failed_ops_frac = {failed / max(1, len(ops)):.4f} ratio (n={len(ops)})")
    for name, (value, unit, n) in metrics.items():
        print(f"{tag} {name} = {value:.6g} {unit} (n={n})")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": max(1, len(ops)),
        "failed": failed if ops else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
