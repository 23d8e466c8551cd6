"""Output checks for benchmark operations.

``check_report`` validates one JSON report against what the generator
built; ``dense_similarity`` is an independent per-pair RWMD written with
numpy alone, used to recheck the scoring kernel without calling
``claimdist.transport``.
"""

from __future__ import annotations

import json
import math

SYMMETRIC_MAX = "symmetric-max"
DENSE_TOLERANCE = 1e-9


def check_report(data: bytes, expected_groups: list[str], n_candidates: int) -> list[str]:
    """Problems found in a ``claimdist run --format json`` report; empty when it passes.

    The report must parse, score all ``n_candidates`` candidates with
    none skipped, keep ``expected_groups`` in order with strictly
    decreasing group medians, and use the exact Wilcoxon path for every
    pair of groups.
    """
    try:
        doc = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    try:
        if doc["group_order"] != expected_groups:
            problems.append(f"group order {doc['group_order']} is not {expected_groups}")
            return problems
        groups = doc["groups"]
        scored = sum(len(groups[g]["documents"]) for g in expected_groups)
        if scored != n_candidates or doc["skipped"]:
            problems.append(f"{scored} of {n_candidates} candidates scored, {len(doc['skipped'])} skipped")
        sims = [d["similarity"] for g in expected_groups for d in groups[g]["documents"]]
        if not all(isinstance(s, float) and math.isfinite(s) and 0.0 <= s <= 1.0 for s in sims):
            problems.append("a similarity is not a finite number in [0, 1]")
        medians = [groups[g]["summary"]["median"] for g in expected_groups]
        if not all(a > b for a, b in zip(medians, medians[1:])):
            problems.append(f"group medians {medians} do not decrease in generator order")
        methods = [t["method"] for t in doc["significance"]["pairwise_wilcoxon_exact"]]
        n_pairs = len(expected_groups) * (len(expected_groups) - 1) // 2
        if methods != ["exact"] * n_pairs:
            problems.append(f"pairwise Wilcoxon methods {methods} are not all exact")
        if doc["provenance"]["rwmd_variant"] != SYMMETRIC_MAX:
            problems.append(f"variant {doc['provenance']['rwmd_variant']!r} is not {SYMMETRIC_MAX}")
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks or mistypes {exc}")
    return problems


def similarities(data: bytes) -> list[float]:
    """Every scored candidate's similarity in a JSON report."""
    doc = json.loads(data)
    return [d["similarity"] for g in doc["group_order"] for d in doc["groups"][g]["documents"]]


def max_sorted_difference(a: list[float], b: list[float]) -> float | None:
    """Largest difference between two equally long multisets, paired in sorted order."""
    if len(a) != len(b):
        return None
    return max((abs(x - y) for x, y in zip(sorted(a), sorted(b))), default=0.0)


def dense_similarity(q_words, q_weights, c_words, c_weights, matrix, vocabulary) -> float:
    """Symmetric-max relaxed WMD similarity of one pair from its full cost matrix.

    Cost is ``1 - clip(cos, 0, 1)``; each side ships all its mass to its
    cheapest counterpart and the distance is the larger of the two sides.
    """
    # Imported here: run.py imports this module and must not load numpy,
    # because the children it starts inherit its peak RSS in ru_maxrss.
    import numpy as np

    q = matrix[[vocabulary[w] for w in q_words]]
    c = matrix[[vocabulary[w] for w in c_words]]
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    c = c / np.linalg.norm(c, axis=1, keepdims=True)
    cost = 1.0 - np.clip(q @ c.T, 0.0, 1.0)
    distance = max(float(np.asarray(q_weights) @ cost.min(axis=1)), float(np.asarray(c_weights) @ cost.min(axis=0)))
    return 1.0 - min(1.0, max(0.0, distance))
