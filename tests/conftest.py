import json
import math
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from claimdist import native
from claimdist.embeddings import EmbeddingTable, Vocabulary
from claimdist.textprep import NBow


@pytest.fixture(autouse=True)
def private_cache_home(tmp_path, monkeypatch):
    """Point the on-disk cache (tables, the compiled library) at the test's directory, not ``~/.cache``.

    The library builds that a test started in the background and nothing
    waited for, one per cache directory, end with the test, not during a
    later one.
    """
    cache = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    yield cache
    wait_for_builds()


def wait_for_builds():
    """Wait for every library build started in the background and not waited for, then forget them."""
    for build in native._builds.values():
        build.exception(timeout=60)
    native._builds.clear()


@pytest.fixture
def rebuilt_library():
    """Forget the process's compiled library before and after the test, so that it is loaded again."""
    native.library.cache_clear()
    yield
    native.library.cache_clear()


def require_library():
    """The compiled library: a test that needs it fails where it should load and skips elsewhere."""
    lib = native.library()
    if lib is None:
        if platform.machine() in native._MACHINES:
            pytest.fail(f"the compiled library did not load on {platform.machine()}")
        pytest.skip(f"no compiled library on {platform.machine()}")
    return lib


# Decimals that one IEEE multiply or divide rounds correctly: a mantissa of
# at most 2**53 and a decimal exponent within +-22.
FAST_FIELDS = [
    "9007199254740992", "-9007199254740992e-22", "9007199254740992E+22",
    "0.9007199254740992", "1234567890123456", "0000000000000000000000012", "0.000001",
    "1e22", "1e-22", "-1E+22", "0.1e23", "-1.5e+23", "-0.0", "-0", "+0", "00", ".5", "5.",
    "-.25", "+.5e-3", "1.e5", "+1", "1E5", "1e05", "0.04656", "-0.1685",
]
# Fields the compiled parser leaves to the line parser: a mantissa above
# 2**53 (where the naive product of a rounded mantissa can round twice),
# more than 19 significant digits, an exponent beyond +-22, or a form
# outside [+-]digits[.digits][e[+-]digits].
DECLINED_FIELDS = [
    "9007199254740993", "9007199254740993e-22", "0.0009007199254740993", "18014398509481984",
    "1234567890123456789", "12345678901234567890", "0.12345678901234567890",
    "1.0000000000000000", "1e23", "1e-23", "-1.5e+24", "0.1e-22", "123e-24",
    "1_0", "inf", "-Infinity", "nan", "0x1p1", "1e", "1e+", "e5", ".", "-", "+-1", "--1",
    "1.2.3", "1,5", "#0", "1e99999999999999999999",
]


@dataclass(frozen=True)
class ReferenceTable:
    """What loading a table gives: its kept rows and dropped-row counts, or its error line.

    ``error_line`` is None for a table that loads, and 0 for one that
    fails with no line to name (it has no usable rows).
    """

    words: tuple[str, ...] = ()
    matrix: np.ndarray | None = None
    norms: np.ndarray | None = None
    n_duplicates: int = 0
    n_zero_dropped: int = 0
    error_line: int | None = None


def reference_table(data: bytes) -> ReferenceTable:
    """Reference parse of a text-format table, line by line from the README's rules.

    Written from the documented format, not from the loader, as the
    oracle the loader's parsers are compared with. A line is a token and
    its values, separated by whitespace, each value read with ``float``;
    a blank line is skipped, and so is a first line of two integers (a
    header). Every row is as long as the first. The first row kept for a
    token wins: a later row of that token is counted as a duplicate and
    skipped, though its values must still be numbers. A row whose norm
    (``np.linalg.norm(row, axis=1)``) is zero is counted and dropped; one
    whose norm is not finite is an error. So is a line that is not UTF-8
    or has a token but no values. The first bad line is the error.
    """
    rows: dict[str, list[float]] = {}
    dim = None
    n_duplicates = n_zero = 0
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        try:
            fields = raw.decode("utf-8").split()
        except UnicodeDecodeError:
            return ReferenceTable(error_line=lineno)
        if not fields or (lineno == 1 and len(fields) == 2 and all(map(_is_int, fields))):
            continue
        token, values = fields[0], fields[1:]
        try:
            row = [float(v) for v in values]
        except ValueError:
            return ReferenceTable(error_line=lineno)
        dim = dim or len(row)
        if not row or len(row) != dim:
            return ReferenceTable(error_line=lineno)
        if token in rows:
            n_duplicates += 1
            continue
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(np.array([row]), axis=1)[0])
        if not math.isfinite(norm):
            return ReferenceTable(error_line=lineno)
        if norm == 0.0:
            n_zero += 1
        else:
            rows[token] = row
    if not rows:
        return ReferenceTable(error_line=0)
    matrix = np.array(list(rows.values()), dtype=np.float64)
    return ReferenceTable(
        words=tuple(rows),
        matrix=matrix,
        norms=np.linalg.norm(matrix, axis=1),
        n_duplicates=n_duplicates,
        n_zero_dropped=n_zero,
    )


def _is_int(field: str) -> bool:
    try:
        int(field)
    except ValueError:
        return False
    return True


def make_table(words, matrix, name="<fixture>") -> EmbeddingTable:
    matrix = np.asarray(matrix, dtype=np.float64)
    return EmbeddingTable(
        dimension=matrix.shape[1],
        vocabulary=Vocabulary.from_words(words),
        matrix=matrix,
        row_norms=np.linalg.norm(matrix, axis=1),
        source_name=name,
    )


def cosine_similarity(u, v) -> float:
    """Reference cos(u, v) of two nonzero vectors, clamped to [-1, 1] against round-off.

    The per-pair oracle that ``similarity_matrix`` is checked against.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    c = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return max(-1.0, min(1.0, c))


def random_unit_table(rng, n_words, dim, prefix="w") -> EmbeddingTable:
    vecs = rng.normal(size=(n_words, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return make_table([f"{prefix}{i}" for i in range(n_words)], vecs)


def lcg_token_lists(n_lists, n_words, seed, max_len=12) -> list[list[str]]:
    """Fixed token lists ``w0``..``w{n_words-1}`` of length 0..max_len.

    A 31-bit linear congruential generator makes them, so golden values
    do not depend on numpy's random streams. Low word indices are more
    frequent.
    """
    state = seed

    def draw(n):
        nonlocal state
        state = (1103515245 * state + 12345) % 2**31
        return (state >> 8) % n

    return [
        [f"w{draw(draw(n_words) + 1)}" for _ in range(draw(max_len + 1))]
        for _ in range(n_lists)
    ]


def random_nbow(rng, vocab, n_words) -> NBow:
    words = tuple(rng.choice(vocab, size=n_words, replace=False))
    weights = rng.random(n_words) + 1e-3
    return NBow(words=words, weights=weights / weights.sum())


def dense_rwmd(a: NBow, b: NBow, table: EmbeddingTable, variant="symmetric-max") -> float:
    """Reference per-pair relaxed distance from a full dense cost matrix.

    Written independently of the package kernel so tests can compare
    the kernel against it.
    """

    def unit_rows(words):
        rows = table.matrix[[table.vocabulary[w] for w in words]]
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    cost = 1.0 - np.clip(unit_rows(a.words) @ unit_rows(b.words).T, 0.0, 1.0)
    from_a = float(a.weights @ cost.min(axis=1))
    if variant == "one-sided-query":
        return from_a
    return max(from_a, float(b.weights @ cost.min(axis=0)))


@pytest.fixture
def ortho_table() -> EmbeddingTable:
    return make_table(["w0", "w1", "w2", "w3"], np.eye(4))


@pytest.fixture
def gram_table() -> EmbeddingTable:
    """Four unit vectors realizing cross-cosines 0.9/0.8/0.7/0.6.

    Built by Cholesky factorization of a verified-PSD Gram matrix, so
    ground costs between {a, b} and {c, d} are exactly
    [[0.1, 0.2], [0.3, 0.4]] up to factorization round-off.
    """
    gram = np.array(
        [
            [1.0, 0.85, 0.9, 0.8],
            [0.85, 1.0, 0.7, 0.6],
            [0.9, 0.7, 1.0, 0.95],
            [0.8, 0.6, 0.95, 1.0],
        ]
    )
    vectors = np.linalg.cholesky(gram)
    table = make_table(["a", "b", "c", "d"], vectors)
    sims = vectors @ vectors.T
    np.testing.assert_allclose(
        sims[np.ix_([0, 1], [2, 3])], [[0.9, 0.8], [0.7, 0.6]], atol=1e-12
    )
    return table


def write_corpus(
    root: Path,
    groups=("alpha", "beta"),
    docs_per_group=5,
    seed=7,
    n_words=40,
    dim=6,
    manifest_extra=None,
) -> Path:
    """Write a self-contained synthetic corpus; returns the manifest path."""
    rng = np.random.default_rng(seed)
    words = [f"word{i}" for i in range(n_words)]
    vecs = rng.normal(size=(n_words, dim))
    lines = [w + " " + " ".join(f"{x:.6f}" for x in v) for w, v in zip(words, vecs)]
    (root / "emb.txt").write_text("\n".join(lines) + "\n")
    (root / "docs").mkdir(exist_ok=True)

    def make_doc(path, k):
        path.write_text(" ".join(rng.choice(words, size=k)) + ".")

    make_doc(root / "docs" / "query.txt", 30)
    documents = []
    for g in groups:
        for i in range(1, docs_per_group + 1):
            rel = f"docs/{g}{i}.txt"
            make_doc(root / rel, 20)
            documents.append({"id": str(i), "group": g, "path": rel})
    manifest = {
        "query": {"id": "q", "path": "docs/query.txt"},
        "documents": documents,
        "embedding": {"path": "emb.txt"},
        "options": {"variant": "symmetric-max", "seed": 3},
    }
    if manifest_extra:
        for key, value in manifest_extra.items():
            if isinstance(value, dict) and isinstance(manifest.get(key), dict):
                manifest[key].update(value)
            else:
                manifest[key] = value
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1))
    return path


@pytest.fixture
def corpus_manifest(tmp_path) -> Path:
    return write_corpus(tmp_path)
