"""Golden report bytes: the SHA-256 of every canonical CLI output.

Each case builds a small manifest from the conftest table and runs
``run`` in json, text and csv form and ``rank`` in json and text form
(the one text view without the significance block). Every
output is produced twice in one cache directory, so with the embedding
cache the first run parses the table and the second reads the cache
entry; both must give the pinned bytes. Nothing is stripped from the
reports: provenance carries the table and stopword hashes, so a loader
that read a different file, or a row in another order, changes them.

The digests were captured before the embedding store was rewritten;
the ``rank`` text digests and the ``tied-groups`` case, whose pairwise
test falls back to the tie-corrected normal approximation, before the
report became its JSON document; the ``multi-block`` case before the
kernel capped the union rows of one block.
They depend on the exact float64 results of the kernel and statistics,
so a change that moves any reported value in its last bit fails here.
"""

import hashlib
import json

import numpy as np
import pytest

from claimdist.cli import main

from conftest import write_corpus

OUTPUTS = (
    ("run", "json"),
    ("run", "text"),
    ("run", "csv"),
    ("rank", "json"),
    ("rank", "text"),
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


def _tied_groups(root):
    # beta's documents are alpha's files, so every pairwise sample has ties
    path = write_corpus(root)
    doc = json.loads(path.read_text())
    for entry in doc["documents"]:
        entry["path"] = f"docs/alpha{entry['id']}.txt"
    path.write_text(json.dumps(doc))
    return path


def _multi_block(root):
    # A union of 2,600 words at dimension 300 against a query of at most 30
    # distinct words: a candidate union that spans several kernel blocks,
    # with the GloVe dimension, so the GEMM splits its inner products as
    # it does on a real table.
    path = write_corpus(root, n_words=2600, dim=300)
    rng = np.random.default_rng(11)
    words = rng.permutation([f"word{i}" for i in range(2600)])
    entries = json.loads(path.read_text())["documents"]
    for entry, part in zip(entries, np.array_split(words, len(entries))):
        (root / entry["path"]).write_text(" ".join([*part, *rng.choice(words, 40)]) + ".")
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
    "tied-groups": _tied_groups,
    "multi-block": _multi_block,
}

GOLDEN = {
    "plain": (
        "3ae25594acd0310f21fe4c74170e32901c2836fb4fcae56cae151bf98abd5e19",
        "ed0b9edde79c2e83a24b928b04612663d6b536d32118c4d4f71e8c42641034c9",
        "dfca39487cdc368b8a5940c2a56319d2487889324793843f88d1ea970c9d385a",
        "ba44bef73d4abb80f8fb4d385850e966d1a71604a5d3918cf87c32aaaf3d9a24",
        "0746fd4550a9308678897ebd0b32063972ea413301f3f6a443fa36c44f1bdb42",
    ),
    "lda": (
        "feacfdd394de6f95d0d83b972bd22b9d0c3ad1a144b1f2f307f324fb0b76d70c",
        "5b6ec57e119789641be9c265e5cb1fba81c291e9b2ca91ed4764ac18470ff594",
        "8b78d4ad4ea540a223e01dfe73c83e64c56e5552abfcccb81fa88ad80557932f",
        "03776c7cdac73871eefb1d7482595002dcda5806d9ee0375465db882fa3b2f4c",
        "f5a54ea49d55f3e20961db951b12dc981a3d1964aa0997b29e8747306a3687e6",
    ),
    "ma": (
        "e6b358184736a602db2ca69b6c2823f7bc4752027e8c3b61fbcfa3a153711d3e",
        "461d6210e52bfcb32471bbedf8454522fe099aa0ae4b7d9c3e9b6ba339693664",
        "cccdcc56dc14296db2e153e66974d92e9e490ee620ba587838fcac6a6b7ea905",
        "a74d6215061c5cbe20d05df8fc63ee80c7ca487e46a3836a8fcaf8bd72143594",
        "e91ccab06241b040cc5dd02d565c0ed2452bf04487cf5aff367cdd77113ed7cc",
    ),
    "one-sided-query": (
        "d3b7e42b15cc837ead80b618719f410d13463e6926283fa0ba78084ac36ff26a",
        "980343e841be9eb0e2c6c751a55ccf3795ed6ee24d623fccf95808a5cd93e667",
        "dfca39487cdc368b8a5940c2a56319d2487889324793843f88d1ea970c9d385a",
        "411c92cbd973a0db33b13238141e68b3022f78a799c09db9e6d7fe910941a8ef",
        "69bf39a1d4c0ab03b40f5a82726be80f442f49e1145b872aee3799833e2a05d2",
    ),
    "single-group": (
        "9c1f0a517ee0fffcba98f28fb759229e6b899d4af3df82def2d4170818949245",
        "b4efa3081d26eb6420bfc540259dc3b26ccff1e0b91a82497311e57ab5b98e58",
        "827d3726b2a90a473a5c436fdd062700894ac2e2cd9250530aa02b57f3e97310",
        "57882aafea2a4717b5be0a871ee28f4432175b9e387699bd6e79195ed18dee82",
        "f34533aa104f0162212ba0188300a8eb93aa40560fc944c752ed04831ac0f87b",
    ),
    "skipped-document": (
        "e12da2147e1f5b6c0e70856dbe6f8d4a32e0ef8bdf64368ac1457eb9bfaf49d7",
        "eddbb068559b91fd970c538fc22bf3419d21987c9c7923a29cf5ef84bbd1bdcf",
        "dfca39487cdc368b8a5940c2a56319d2487889324793843f88d1ea970c9d385a",
        "1cf699ca409d2bdc2a836802bc17c16cc886c515cfce3e548f3e0faff839ecfb",
        "00abc658b7a876cf64ab7c1e009516c561e898385dafa254459f620116ede13a",
    ),
    "duplicate-and-zero-rows": (
        "a7e10a2fde8b1cb5645965b1cbbf44a8923d3458c7a7db1eeeea8e4ca849d1da",
        "ed0b9edde79c2e83a24b928b04612663d6b536d32118c4d4f71e8c42641034c9",
        "dfca39487cdc368b8a5940c2a56319d2487889324793843f88d1ea970c9d385a",
        "0e271ee3c470e37779c10c97e3b10b8c4be680c664cc5927c0242c392936d4dc",
        "0746fd4550a9308678897ebd0b32063972ea413301f3f6a443fa36c44f1bdb42",
    ),
    "tied-groups": (
        "574df2bdd1242065b3e6b903cf9a2aea4a3b266339f3e135855084cbbe3b57d1",
        "7e287830ff2a0a4541444ef4d3d0d96d1ff2a7c32d4b6d2db266177070f54229",
        "14e7d17dea7a5b1365ab960a8dcbae043025266303b37c3c4ea4f1ef610e0cd8",
        "8fbb86e95148013b0898f65b96ee901a666c31c92e853a1e379fbb14d72a9cbe",
        "b283ffbe183c8487f81abc6f8f3150f4b6d3863a33885bf8ff3612974df3f9fc",
    ),
    "multi-block": (
        "cc5b60977ebe98e6b427e020304de9500adc6ea6554c6a011409f06fd397414d",
        "7d326955a466799956d7d52696b244246deb26e01a01f009d1d7c97a351f673d",
        "74178f7516bc50292444461a5a779bc455df9eb1a42a5e074e4089620e011412",
        "a0f6769bfc6739f594ac30b0cef5be06a6f8a02bfa9c78e03b5d13a5ef858a5e",
        "ac7e26101881d17e244fa2dabd8f164ec9ee8268ff77b58309263c50aebbe710",
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

