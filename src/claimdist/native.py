"""claimdist's compiled code: one C source, built once into one library.

Three hot loops have a C version: ``claimdist_sweep``, one sweep of the
topic model's Gibbs chain (:mod:`claimdist.claimselect`),
``claimdist_parse_batch``, one pass over a batch of a table's lines
(:mod:`claimdist.embeddings`), and ``claimdist_gather_max``, the RWMD
kernel's per-candidate max over one block of cosines
(:mod:`claimdist.transport`). All three are in :data:`_SOURCE`, which the
first caller compiles with ``cc`` into the on-disk cache beside the
table entries (``native-<sha256>.so``) and loads with ctypes. The
``run`` and ``dist`` commands start that build on a background thread
(:func:`start_build`), so that ``cc`` works while they read their
inputs; :func:`library` waits for the build of its own file. Where it
cannot be built or loaded, :func:`library` returns None and each caller
runs its Python or numpy code instead (a table is then read line by
line), which gives the same results.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import logging
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

log = logging.getLogger(__name__)

_SOURCE = r"""
#include <stdint.h>

/* One sweep of the chain in place, in the Python sweep's float order and
   search (see claimselect._gibbs_counts). word_topic is word-major (V x k). */
void claimdist_sweep(int64_t n, int64_t k, const int64_t *word, const int64_t *sentence,
                     int64_t *z, int64_t *word_topic, int64_t *sentence_topic,
                     int64_t *totals, double *cum, double alpha, double beta,
                     double beta_total, const double *draws)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t *wt = word_topic + word[i] * k, *st = sentence_topic + sentence[i] * k;
        int64_t t = z[i];
        wt[t]--, st[t]--, totals[t]--;
        double sum = 0.0;
        for (int64_t j = 0; j < k; j++) {
            sum += ((double)wt[j] + beta) / ((double)totals[j] + beta_total)
                   * ((double)st[j] + alpha);
            cum[j] = sum;
        }
        double u = draws[i] * sum;
        int64_t lo = 0, hi = k;  /* bisect_right(cum, u) */
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (u < cum[mid]) hi = mid; else lo = mid + 1;
        }
        t = lo < k - 1 ? lo : k - 1;  /* u can round up to cum[k - 1] */
        wt[t]++, st[t]++, totals[t]++;
        z[i] = t;
    }
}

static const double powers_of_ten[] = {
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
};

#define IS_DIGIT(c) ((unsigned)((c) - '0') <= 9)
/* The ASCII whitespace str.split splits on, but for \x1c-\x1f: ' ', '\t',
   '\n', '\v', '\f' and '\r'. Python finds a token holding those four or
   other whitespace. */
#define IS_SPACE(c) ((c) == ' ' || (unsigned)((c) - '\t') <= 4)
#define IS_BLANK(c) (IS_SPACE(c) && (c) != '\n')

/* The number at p, before end, into *out: [+-]digits[.digits], .digits
   or digits., with an optional [eE][+-]digits, and at most 19 significant
   digits making a mantissa m of at most 2^53, and a decimal exponent e
   within +-22. Then m and 10^|e| are exact doubles, so one IEEE multiply
   or divide rounds m * 10^e correctly (Clinger's fast path) and gives
   the bits strtod gives. Returns the end of the number, or NULL when it
   is not such a number or is not followed by whitespace or end. */
static const char *parse_number(const char *p, const char *end, double *out)
{
    int negative = *p == '-';
    if (*p == '-' || *p == '+') p++;
    const char *start = p;
    while (p < end && *p == '0') p++;  /* leading zeros */
    const char *first = p;
    uint64_t m = 0;  /* wraps past 19 digits, which are declined */
    for (; p < end && IS_DIGIT(*p); p++) m = m * 10 + (uint64_t)(*p - '0');
    int64_t significant = p - first, digits = p - start, e = 0;
    if (p < end && *p == '.') {
        const char *fraction = ++p;
        if (m == 0)
            while (p < end && *p == '0') p++;
        first = p;
        for (; p < end && IS_DIGIT(*p); p++) m = m * 10 + (uint64_t)(*p - '0');
        significant += p - first;
        digits += p - fraction;
        e = fraction - p;
    }
    if (!digits || significant > 19) return 0;
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        int negative_exponent = p < end && *p == '-';
        if (p < end && (*p == '-' || *p == '+')) p++;
        if (p == end || !IS_DIGIT(*p)) return 0;
        int64_t x = 0;
        for (; p < end && IS_DIGIT(*p); p++)
            if (x < 1000) x = x * 10 + (*p - '0');  /* saturates; fails below */
        e += negative_exponent ? -x : x;
    }
    if (p < end && !IS_SPACE(*p)) return 0;
    if (m > (UINT64_C(1) << 53) || e < -22 || e > 22) return 0;
    double v = e < 0 ? (double)m / powers_of_ten[-e] : (double)m * powers_of_ten[e];
    *out = negative ? -v : v;
    return p;
}

/* One pass over a batch of table lines in [p, end). A line is blank or
   a token and its numbers (parse_number), separated by blanks (' ',
   '\t', '\r', '\v', '\f'), with as many numbers on every row as on the
   first. Writes each row's numbers to values (row-major, at most
   max_values), its token to tokens (at most max_token_bytes, the tokens
   joined by '\n'), its line's index in the batch (the number of '\n'
   before it) to lines (at most max_rows), and the row length, the token
   bytes and the batch's '\n' count to sizes. Returns the number of rows,
   or -1 - r when row r is not such a row or does not fit, declining the
   batch. */
int64_t claimdist_parse_batch(const char *p, const char *end, double *values,
                              int64_t max_values, char *tokens, int64_t max_token_bytes,
                              int64_t *lines, int64_t max_rows, int64_t *sizes)
{
    int64_t rows = 0, dim = 0, line = 0, token_bytes = 0;
    while (p < end) {
        if (IS_BLANK(*p)) {
            p++;
            continue;
        }
        if (*p == '\n') {
            line++, p++;
            continue;
        }
        const char *token = p;
        while (p < end && !IS_SPACE(*p)) p++;
        if (rows == max_rows || p - token + (rows > 0) > max_token_bytes - token_bytes)
            return -1 - rows;
        if (rows) tokens[token_bytes++] = '\n';
        for (; token < p; token++) tokens[token_bytes++] = *token;
        lines[rows] = line;
        int64_t f = 0;
        for (;;) {
            while (p < end && IS_BLANK(*p)) p++;
            if (p == end || *p == '\n') break;
            if (rows * dim + f == max_values || (rows && f == dim)) return -1 - rows;
            p = parse_number(p, end, values + rows * dim + f++);
            if (!p) return -1 - rows;
        }
        if (f == 0 || (rows && f != dim)) return -1 - rows;  /* no numbers, or too few */
        dim = f;
        rows++;
    }
    sizes[0] = dim, sizes[1] = token_bytes, sizes[2] = line;
    return rows;
}

/* For each of n (candidate, row) pairs, best[cand] = max(best[cand],
   sims[row]) column by column, over rows of q doubles. The columns go in
   tiles of 256, so that a tile of the block stays in cache across the
   pairs. A max is exact, so any order gives numpy's bits. -O2 does not
   vectorize this loop; the attribute lets it, for this function only. */
__attribute__((optimize("tree-vectorize", "vect-cost-model=dynamic")))
void claimdist_gather_max(int64_t n, int64_t q, const int64_t *cand, const int64_t *row,
                          const double *restrict sims, double *restrict best)
{
    for (int64_t start = 0; start < q; start += 256) {
        int64_t width = q - start < 256 ? q - start : 256;
        for (int64_t i = 0; i < n; i++) {
            double *b = best + cand[i] * q + start;
            const double *s = sims + row[i] * q + start;
            for (int64_t j = 0; j < width; j++) b[j] = s[j] > b[j] ? s[j] : b[j];
        }
    }
}
"""

# -ffp-contract=off rules out fused multiply-adds; on these 64-bit machines
# doubles are not kept in extended precision, so C rounds as Python does.
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_MACHINES = ("x86_64", "aarch64", "arm64")


def cache_dir() -> Path:
    """The directory of claimdist's on-disk cache: table entries and the library (may not exist yet)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "claimdist"


def _supported(machine: str) -> bool:
    """Whether the library is built on ``machine`` for this Python (64-bit only)."""
    return machine in _MACHINES and sys.maxsize == 2**63 - 1


def _path(machine: str) -> Path:
    """The library's file for ``machine`` in the cache directory."""
    key = hashlib.sha256("\0".join((_SOURCE, *_FLAGS, machine)).encode()).hexdigest()
    return cache_dir() / f"native-{key}.so"


# The concurrent.futures.Future of each build start_build started, by its
# library file, until library() waits for it (another cache's stays here).
_builds = {}


def start_build():
    """Start building the library in the background, where :func:`library` would build it.

    Nothing starts when this process has already settled the library,
    when this machine has no compiled code, when a build of the file was
    started already, or when the file exists (so a warm run starts no
    thread and imports neither ``subprocess`` nor
    ``concurrent.futures``). The build runs on the worker of a
    one-worker thread pool, which is not a daemon: the interpreter waits
    for it, and for ``cc`` and the removal of the temporary directory, on
    every way out. :func:`library` waits for the build.
    """
    machine = platform.machine()
    if library.cache_info().currsize or not _supported(machine):
        return
    path = _path(machine)
    if path in _builds or path.exists():
        return
    from concurrent.futures import ThreadPoolExecutor  # only a build starts a thread

    builder = ThreadPoolExecutor(1, thread_name_prefix="claimdist-build")
    _builds[path] = builder.submit(_build, path)
    builder.shutdown(wait=False)


@functools.cache
def library() -> ctypes.CDLL | None:
    """The compiled library with its three functions declared, or None where it is not available.

    It is ``cache_dir()/native-<key>.so``, the key being the SHA-256 of
    the C source, the compiler flags and the machine. It is built with
    ``cc`` when missing, or waited for when :func:`start_build` started
    its build, whose error counts here (a build for another cache
    directory is neither waited for nor reported), and loaded only if the
    current user owns it. On another machine, or when it cannot be built
    or loaded, one WARNING is logged and None is returned. Memoized per
    process.
    """
    machine = platform.machine()
    path = _path(machine)
    build = _builds.pop(path, None)
    try:
        if not _supported(machine):
            raise OSError(f"no compiled code on this {machine} Python")
        if build is not None and build.exception() is not None:  # waits for the build
            raise build.exception()
        if not path.exists():
            _build(path)
        if path.stat().st_uid != os.getuid():
            raise OSError(f"{path} is owned by another user")
        lib = ctypes.CDLL(str(path))
        sweep, parse_batch = lib.claimdist_sweep, lib.claimdist_parse_batch
        gather_max = lib.claimdist_gather_max
    except (OSError, AttributeError) as exc:
        log.warning(
            "the Gibbs sweeps run in Python, tables are parsed line by line and "
            "the scoring kernel's per-candidate max runs in numpy, which is slower: %s", exc,
        )
        return None
    int64, pointer, double = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    sweep.argtypes = [int64, int64, *[pointer] * 7, double, double, double, pointer]
    sweep.restype = None
    parse_batch.argtypes = [pointer, pointer, pointer, int64, pointer, int64, pointer, int64, pointer]
    parse_batch.restype = int64
    gather_max.argtypes = [int64, int64, *[pointer] * 4]
    gather_max.restype = None
    return lib


def _build(path: Path):
    """Compile the source into ``path`` in a temporary directory beside it, then move it there.

    Then remove the current user's libraries of other keys from that
    directory, including those of earlier versions (``sweep-*.so``).
    """
    import subprocess  # only a build starts a process

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=path.parent, prefix=".native-"))
    try:
        (tmp / "native.c").write_text(_SOURCE)
        cc = ["cc", *_FLAGS, "-o", str(tmp / "native.so"), str(tmp / "native.c")]
        done = subprocess.run(cc, capture_output=True, text=True)
        if done.returncode:
            raise OSError(f"cc exited with {done.returncode}: {done.stderr.strip()}")
        os.replace(tmp / "native.so", path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for other in (*path.parent.glob("native-*.so"), *path.parent.glob("sweep-*.so")):
        try:
            if other != path and other.stat().st_uid == os.getuid():
                other.unlink()
        except OSError:
            pass
