#!/usr/bin/env python3
"""Per-stage wall time and memory of one in-process ``run_experiment``.

Loads the manifest and runs ``claimdist.pipeline.run_experiment`` once in
this process, with the stages that ``perfbench/trace.py`` wraps (its
``NAMES``) swapped for wrappers that read the clock and the memory around
every call. For each stage, in the order of its first call, it prints the
number of calls, their total wall time, the process peak RSS
(``ru_maxrss``) before the first call and after the last, and the current
RSS (``/proc/self/statm``, so Linux only) after the last call. A stage
whose "after" peak is above its "before" peak set a new process peak.

Run from the root of a checkout::

    python3 scripts/stage_rss.py path/to/manifest.json

Run it on a fresh process per measurement: the peak RSS only grows, so
a second run in the same process would stay under the first one's peak.
"""

import importlib.util
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from claimdist import pipeline  # noqa: E402

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _trace_names() -> tuple[str, ...]:
    # perfbench/trace.py, loaded under another name: "trace" is also a
    # standard-library module.
    spec = importlib.util.spec_from_file_location("perfbench_trace", ROOT / "perfbench" / "trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.NAMES


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE_MB


def _wrap(name: str, fn, stages: dict[str, dict]):
    def measured(*args, **kwargs):
        stage = stages.get(name)
        if stage is None:
            stage = stages[name] = {"calls": 0, "s": 0.0, "peak_before": _peak_mb()}
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stage["s"] += time.perf_counter() - start
            stage["calls"] += 1
            stage["peak_after"] = _peak_mb()
            stage["rss_after"] = _rss_mb()

    return measured


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 scripts/stage_rss.py MANIFEST", file=sys.stderr)
        return 1
    stages: dict[str, dict] = {}
    for name in _trace_names():
        if hasattr(pipeline, name):
            setattr(pipeline, name, _wrap(name, getattr(pipeline, name), stages))
    start_peak, start_rss = _peak_mb(), _rss_mb()
    manifest = pipeline.load_manifest(argv[0])
    _wrap("run_experiment", pipeline.run_experiment, stages)(manifest)

    print(f"at start: peak {start_peak:.1f} MB, rss {start_rss:.1f} MB")
    print(f"{'stage':<24} {'calls':>5} {'s':>8} {'peak before':>12} {'peak after':>11} {'rss after':>10}")
    for name, st in stages.items():
        print(
            f"{name:<24} {st['calls']:>5} {st['s']:>8.3f} {st['peak_before']:>9.1f} MB"
            f" {st['peak_after']:>8.1f} MB {st['rss_after']:>7.1f} MB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
