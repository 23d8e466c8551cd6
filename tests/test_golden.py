"""Golden report bytes: the SHA-256 of every canonical CLI output.

Each case builds a small manifest from the conftest table and runs
``run`` in json, text and csv form and ``rank --format json``. Every
output is produced twice in one cache directory, so with the embedding
cache the first run parses the table and the second reads the cache
entry; both must give the pinned bytes. Nothing is stripped from the
reports: provenance carries the table and stopword hashes, so a loader
that read a different file, or a row in another order, changes them.

The digests were captured before the embedding store was rewritten.
They depend on the exact float64 results of the kernel and statistics,
so a change that moves any reported value in its last bit fails here.
"""

import hashlib
import json

import pytest

from claimdist.cli import main

from conftest import write_corpus

OUTPUTS = (
    ("run", "json"),
    ("run", "text"),
    ("run", "csv"),
    ("rank", "json"),
)

QUERY_TEXT = (
    "We propose word0 word1 word2 word3 for ranking. "
    "Existing word4 word5 word6 count citations. "
    "Our word7 word8 word9 word10 weights recent work. "
    "Data word11 word12 word13 were collected. "
    "Results show word14 word15 word16 word17 gains. "
    "We introduce word18 word19 word20 here. "
    "Limitations include word21 word22 word23 bias. "
    "A novel word24 word25 word26 word27 method. "
)


def _lda(root):
    path = write_corpus(
        root,
        manifest_extra={
            "query": {
                "selector": {"method": "lda", "iterations": 5, "n_topics": 3, "top_k": 4}
            }
        },
    )
    (root / "docs" / "query.txt").write_text(QUERY_TEXT)
    return path


def _ma(root):
    path = write_corpus(
        root, manifest_extra={"query": {"selector": {"method": "ma", "window": 3, "top_k": 3}}}
    )
    (root / "docs" / "query.txt").write_text(QUERY_TEXT)
    return path


def _skipped(root):
    path = write_corpus(root)
    (root / "docs" / "oov.txt").write_text("zzzz qqqq xxxx")
    doc = json.loads(path.read_text())
    doc["documents"].append({"id": "oov", "group": "alpha", "path": "docs/oov.txt"})
    path.write_text(json.dumps(doc))
    return path


def _duplicate_and_zero_rows(root):
    path = write_corpus(root)
    with open(root / "emb.txt", "a") as fh:
        fh.write("word3 9 9 9 9 9 9\nnothing 0 0 0 0 0 0\nword0 -1 -1 -1 -1 -1 -1\n")
    return path


CASES = {
    "plain": write_corpus,
    "lda": _lda,
    "ma": _ma,
    "one-sided-query": lambda root: write_corpus(
        root, manifest_extra={"options": {"variant": "one-sided-query"}}
    ),
    "single-group": lambda root: write_corpus(root, groups=("solo",), docs_per_group=4),
    "skipped-document": _skipped,
    "duplicate-and-zero-rows": _duplicate_and_zero_rows,
}

GOLDEN = {
    "plain": (
        "3ae25594acd0310f21fe4c74170e32901c2836fb4fcae56cae151bf98abd5e19",
        "ed0b9edde79c2e83a24b928b04612663d6b536d32118c4d4f71e8c42641034c9",
        "dfca39487cdc368b8a5940c2a56319d2487889324793843f88d1ea970c9d385a",
        "ba44bef73d4abb80f8fb4d385850e966d1a71604a5d3918cf87c32aaaf3d9a24",
    ),
    "lda": (
        "feacfdd394de6f95d0d83b972bd22b9d0c3ad1a144b1f2f307f324fb0b76d70c",
        "5b6ec57e119789641be9c265e5cb1fba81c291e9b2ca91ed4764ac18470ff594",
        "8b78d4ad4ea540a223e01dfe73c83e64c56e5552abfcccb81fa88ad80557932f",
        "03776c7cdac73871eefb1d7482595002dcda5806d9ee0375465db882fa3b2f4c",
    ),
    "ma": (
        "e6b358184736a602db2ca69b6c2823f7bc4752027e8c3b61fbcfa3a153711d3e",
        "461d6210e52bfcb32471bbedf8454522fe099aa0ae4b7d9c3e9b6ba339693664",
        "cccdcc56dc14296db2e153e66974d92e9e490ee620ba587838fcac6a6b7ea905",
        "a74d6215061c5cbe20d05df8fc63ee80c7ca487e46a3836a8fcaf8bd72143594",
    ),
    "one-sided-query": (
        "d3b7e42b15cc837ead80b618719f410d13463e6926283fa0ba78084ac36ff26a",
        "980343e841be9eb0e2c6c751a55ccf3795ed6ee24d623fccf95808a5cd93e667",
        "dfca39487cdc368b8a5940c2a56319d2487889324793843f88d1ea970c9d385a",
        "411c92cbd973a0db33b13238141e68b3022f78a799c09db9e6d7fe910941a8ef",
    ),
    "single-group": (
        "9c1f0a517ee0fffcba98f28fb759229e6b899d4af3df82def2d4170818949245",
        "b4efa3081d26eb6420bfc540259dc3b26ccff1e0b91a82497311e57ab5b98e58",
        "827d3726b2a90a473a5c436fdd062700894ac2e2cd9250530aa02b57f3e97310",
        "57882aafea2a4717b5be0a871ee28f4432175b9e387699bd6e79195ed18dee82",
    ),
    "skipped-document": (
        "e12da2147e1f5b6c0e70856dbe6f8d4a32e0ef8bdf64368ac1457eb9bfaf49d7",
        "eddbb068559b91fd970c538fc22bf3419d21987c9c7923a29cf5ef84bbd1bdcf",
        "dfca39487cdc368b8a5940c2a56319d2487889324793843f88d1ea970c9d385a",
        "1cf699ca409d2bdc2a836802bc17c16cc886c515cfce3e548f3e0faff839ecfb",
    ),
    "duplicate-and-zero-rows": (
        "a7e10a2fde8b1cb5645965b1cbbf44a8923d3458c7a7db1eeeea8e4ca849d1da",
        "ed0b9edde79c2e83a24b928b04612663d6b536d32118c4d4f71e8c42641034c9",
        "dfca39487cdc368b8a5940c2a56319d2487889324793843f88d1ea970c9d385a",
        "0e271ee3c470e37779c10c97e3b10b8c4be680c664cc5927c0242c392936d4dc",
    ),
}


def _outputs(manifest, capsysbinary) -> list[str]:
    digests = []
    for command, fmt in OUTPUTS:
        rc = main([command, str(manifest), "--format", fmt])
        captured = capsysbinary.readouterr()
        assert rc == 0, captured.err
        digests.append(hashlib.sha256(captured.out).hexdigest())
    return digests


@pytest.mark.parametrize("case", list(CASES))
def test_report_bytes_pinned(tmp_path, capsysbinary, case):
    manifest = CASES[case](tmp_path)
    first = _outputs(manifest, capsysbinary)
    second = _outputs(manifest, capsysbinary)
    assert second == first
    assert tuple(first) == GOLDEN[case]

