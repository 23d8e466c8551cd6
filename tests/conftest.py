import json
from pathlib import Path

import numpy as np
import pytest

from claimdist.embeddings import EmbeddingTable
from claimdist.textprep import NBow


@pytest.fixture(autouse=True)
def private_cache_home(tmp_path, monkeypatch):
    """Point the embedding cache at the test's own directory, never ``~/.cache``."""
    cache = tmp_path / "xdg-cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache


def make_table(words, matrix, name="<fixture>") -> EmbeddingTable:
    matrix = np.asarray(matrix, dtype=np.float64)
    return EmbeddingTable(
        dimension=matrix.shape[1],
        vocabulary={w: i for i, w in enumerate(words)},
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
