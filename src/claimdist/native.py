"""claimdist's compiled code: one C source, built once into one library.

Two hot loops have a C version: ``claimdist_sweep``, one sweep of the
topic model's Gibbs chain (:mod:`claimdist.claimselect`), and
``claimdist_parse_rows``, the number parse of a table's plain rows
(:mod:`claimdist.embeddings`). Both are in :data:`_SOURCE`, which the
first caller compiles with ``cc`` into the on-disk cache beside the
table entries (``native-<sha256>.so``) and loads with ctypes. Where it
cannot be built or loaded, :func:`library` returns None and each caller
runs its Python or numpy code instead, which gives the same results.
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

/* The n rows of dim numbers in [p, end), rows separated by '\n' and
   fields by ASCII spaces, into out (row-major). Each field must be
   [+-]digits[.digits], .digits or digits., with an optional
   [eE][+-]digits: at most 19 significant digits making a mantissa m of
   at most 2^53, and a decimal exponent e within +-22. Then m and 10^|e|
   are exact doubles, so one IEEE multiply or divide rounds m * 10^e
   correctly (Clinger's fast path) and gives the bits strtod gives.
   Returns n when the text is n such rows, or else the number of rows
   before the first that is not one. */
int64_t claimdist_parse_rows(const char *p, const char *end, int64_t n, int64_t dim,
                             double *out)
{
    for (int64_t r = 0; r < n; r++) {
        for (int64_t f = 0; f < dim; f++) {
            while (p < end && *p == ' ') p++;
            int negative = p < end && *p == '-';
            if (p < end && (*p == '-' || *p == '+')) p++;
            uint64_t m = 0;
            int64_t e = 0;
            int digits = 0, significant = 0, point = 0;
            for (; p < end; p++) {
                if (*p == '.' && !point) {
                    point = 1;
                    continue;
                }
                if (!IS_DIGIT(*p)) break;
                digits++;
                e -= point;
                if (m == 0 && *p == '0') continue;  /* a leading zero */
                if (++significant > 19) return r;
                m = m * 10 + (uint64_t)(*p - '0');
            }
            if (!digits) return r;
            if (p < end && (*p == 'e' || *p == 'E')) {
                p++;
                int negative_exponent = p < end && *p == '-';
                if (p < end && (*p == '-' || *p == '+')) p++;
                if (p == end || !IS_DIGIT(*p)) return r;
                int64_t x = 0;
                for (; p < end && IS_DIGIT(*p); p++)
                    if (x < 1000) x = x * 10 + (*p - '0');  /* saturates; fails below */
                e += negative_exponent ? -x : x;
            }
            if (p < end && *p != ' ' && *p != '\n') return r;
            if (m > (UINT64_C(1) << 53) || e < -22 || e > 22) return r;
            double v = e < 0 ? (double)m / powers_of_ten[-e] : (double)m * powers_of_ten[e];
            out[r * dim + f] = negative ? -v : v;
        }
        while (p < end && *p == ' ') p++;
        if (p < end && *p++ != '\n') return r;  /* more than dim fields */
    }
    return p == end ? n : 0;  /* 0: more than n rows */
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


@functools.cache
def library() -> ctypes.CDLL | None:
    """The compiled library with both functions declared, or None where it is not available.

    It is ``cache_dir()/native-<key>.so``, the key being the SHA-256 of
    the C source, the compiler flags and the machine. It is built with
    ``cc`` when missing and loaded only if the current user owns it. On
    another machine, or when it cannot be built or loaded, one WARNING is
    logged and None is returned. Memoized per process.
    """
    machine = platform.machine()
    key = hashlib.sha256("\0".join((_SOURCE, *_FLAGS, machine)).encode()).hexdigest()
    path = cache_dir() / f"native-{key}.so"
    try:
        if machine not in _MACHINES or sys.maxsize < 2**63 - 1:
            raise OSError(f"no compiled code on this {machine} Python")
        if not path.exists():
            _build(path)
        if path.stat().st_uid != os.getuid():
            raise OSError(f"{path} is owned by another user")
        lib = ctypes.CDLL(str(path))
        sweep, parse_rows = lib.claimdist_sweep, lib.claimdist_parse_rows
    except (OSError, AttributeError) as exc:
        log.warning(
            "the Gibbs sweeps run in Python and tables are parsed by numpy alone, "
            "which is slower: %s", exc,
        )
        return None
    int64, pointer, double = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    sweep.argtypes = [int64, int64, *[pointer] * 7, double, double, double, pointer]
    sweep.restype = None
    parse_rows.argtypes = [pointer, pointer, int64, int64, pointer]
    parse_rows.restype = int64
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
