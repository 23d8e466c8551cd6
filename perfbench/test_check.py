"""The benchmark's output checks catch corrupted reports.

Run with ``python3 -m pytest perfbench`` or ``python3 perfbench/test_check.py``.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402

GROUPS = ["g1-high", "g2-mid", "g3-none"]


def make_report(per_group: int = 4) -> dict:
    groups = {}
    for g_index, group in enumerate(GROUPS):
        sims = [0.9 - 0.2 * g_index - 0.01 * i for i in range(per_group)]
        groups[group] = {
            "documents": [{"id": f"{group}-{i}", "similarity": s, "oov_dropped": 0} for i, s in enumerate(sims)],
            "summary": {"n": per_group, "median": float(np.median(sims)), "q1": min(sims), "q3": max(sims)},
        }
    pairs = [(a, b) for i, a in enumerate(GROUPS) for b in GROUPS[i + 1 :]]
    return {
        "group_order": list(GROUPS),
        "groups": groups,
        "significance": {
            "kruskal_wallis": {"method": "chi-square-approx"},
            "pairwise_wilcoxon_exact": [{"method": "exact", "groups": list(p)} for p in pairs],
        },
        "skipped": [],
        "provenance": {"rwmd_variant": "symmetric-max"},
    }


def encode(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


class CheckReportTest(unittest.TestCase):
    n = 3 * 4

    def problems(self, doc: dict) -> list[str]:
        return check.check_report(encode(doc), GROUPS, self.n)

    def test_valid_report_passes(self):
        self.assertEqual(self.problems(make_report()), [])

    def test_corruptions_fail(self):
        def drop_candidate(d):
            d["groups"]["g2-mid"]["documents"].pop()

        def skip_one(d):
            d["skipped"].append({"id": "x", "group": "g1-high", "reason": "empty"})

        def swap_medians(d):
            g = d["groups"]
            g["g1-high"]["summary"]["median"], g["g3-none"]["summary"]["median"] = (
                g["g3-none"]["summary"]["median"],
                g["g1-high"]["summary"]["median"],
            )

        def approx_test(d):
            d["significance"]["pairwise_wilcoxon_exact"][1]["method"] = "normal-approx-tie-corrected"

        def nan_score(d):
            d["groups"]["g1-high"]["documents"][0]["similarity"] = float("nan")

        def lose_key(d):
            del d["groups"]["g3-none"]["summary"]

        for corrupt in (drop_candidate, skip_one, swap_medians, approx_test, nan_score, lose_key):
            doc = make_report()
            corrupt(doc)
            with self.subTest(corrupt.__name__):
                self.assertNotEqual(self.problems(doc), [])

    def test_truncated_report_fails(self):
        data = encode(make_report())
        self.assertNotEqual(check.check_report(data[: len(data) // 2], GROUPS, self.n), [])

    def test_changed_bytes_fail_against_first_operation(self):
        checker = run.Checker({"expected_group_order": GROUPS, "n_candidates": self.n})
        first = make_report()
        self.assertEqual(checker(encode(first)), [])
        changed = copy.deepcopy(first)
        changed["groups"]["g2-mid"]["documents"][0]["similarity"] += 1e-12
        self.assertEqual(len(checker(encode(changed))), 1)
        self.assertEqual(checker(encode(first)), [])


class DenseCheckTest(unittest.TestCase):
    def test_dense_similarity_by_hand(self):
        matrix = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        vocab = {"a": 0, "b": 1, "c": 2}
        # a->c and c->a cost 1 - cos45; b->c costs the same; the query side is the larger.
        got = check.dense_similarity(["a", "b"], [0.5, 0.5], ["c"], [1.0], matrix, vocab)
        self.assertAlmostEqual(got, 1.0 - (1.0 - np.sqrt(0.5)), places=12)

    def test_sorted_difference_catches_a_corrupted_score(self):
        scores = [0.1, 0.5, 0.3]
        self.assertEqual(check.max_sorted_difference(scores, [0.3, 0.1, 0.5]), 0.0)
        self.assertGreater(check.max_sorted_difference(scores, [0.3, 0.1, 0.5 + 1e-8]), check.DENSE_TOLERANCE)
        self.assertIsNone(check.max_sorted_difference(scores, scores[:2]))


class CliOperationTest(unittest.TestCase):
    """A child that exits 0 but writes a corrupted report counts as a failed operation."""

    def test_corrupted_child_report_is_a_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            fake = tmp / "fake" / "claimdist"
            fake.mkdir(parents=True)
            (fake / "__init__.py").write_text("")
            bad = make_report()
            bad["groups"]["g1-high"]["documents"].pop()
            (fake / "cli.py").write_text(
                textwrap.dedent(
                    f"""
                    import sys
                    out = sys.argv[sys.argv.index("--out") + 1]
                    open(out, "wb").write({encode(bad)!r})
                    """
                )
            )
            cwd = tmp / "op"
            cwd.mkdir()
            env = dict(os.environ, PYTHONPATH=str(fake.parent))
            checker = run.Checker({"expected_group_order": GROUPS, "n_candidates": 12})
            op = run.cli_op(checker, cwd, env, "report")
            self.assertNotEqual(op.problems, [])
            self.assertGreater(op.wall_s, 0.0)

            (fake / "cli.py").write_text("import sys\nsys.exit(2)\n")
            op = run.cli_op(checker, cwd, env, "again")
            self.assertTrue(op.problems and op.problems[0].startswith("exit code 2,"))


if __name__ == "__main__":
    unittest.main()
