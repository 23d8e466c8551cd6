import hashlib
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from claimdist import claimselect, native
from claimdist.claimselect import (
    SentenceRecord,
    fit_lda,
    lda_select,
    ma_select,
    moving_average,
    split_sentences,
)
from claimdist.errors import DataError

from conftest import lcg_token_lists, make_table, require_library


def records(*token_lists):
    return [
        SentenceRecord(index=i, text=" ".join(toks), tokens=tuple(toks))
        for i, toks in enumerate(token_lists)
    ]


@pytest.fixture
def sweep(request, monkeypatch):
    """How ``fit_lda`` runs its sweeps: "compiled" (it must load) or "python"."""
    if request.param == "python":
        monkeypatch.setattr(claimselect, "_compiled_sweep", lambda: None)
    else:
        require_library()
    return request.param


# Outermost, so that the sweep's name ends each test id.
BOTH_SWEEPS = pytest.mark.parametrize("sweep", ["compiled", "python"], indirect=True)
COMPILED_SWEEP = pytest.mark.parametrize("sweep", ["compiled"], indirect=True)


# Corpora for the golden and differential chain tests: one with
# empty sentences and words repeated within a sentence, the 40-sentence
# golden corpus, one of 2,000+ tokens so that counts grow large, and one
# of one-token sentences, each with its own word.
_CHAIN_CORPORA = {
    "handmade": [
        ["a", "a", "b"], [], ["c", "a", "a", "a"], ["b"], [],
        ["d", "d", "d", "d", "c"], ["e", "b", "e"], [], ["a"], ["c", "c", "f", "a"],
    ],
    "lcg40": lcg_token_lists(40, 60, seed=2024),
    "lcg-large": lcg_token_lists(400, 300, seed=11),
    "hapax": [[f"h{i}"] for i in range(120)],
}


class TestSplitSentences:
    def test_two_sentences(self):
        out = split_sentences("We propose X. It works.")
        assert [s.text for s in out] == ["We propose X.", "It works."]
        assert [s.index for s in out] == [0, 1]

    def test_abbreviation_guard(self):
        out = split_sentences("Hirsch et al. proposed it.")
        assert len(out) == 1

    def test_guard_with_following_capital(self):
        out = split_sentences("See Smith et al. They agree.")
        assert len(out) == 1

    def test_fig_guard(self):
        out = split_sentences("Results in Fig. 3 are strong. More follows.")
        assert len(out) == 2

    def test_guard_requires_word_boundary(self):
        # "config." is not the abbreviation "fig."
        out = split_sentences("Edit the config. Then rerun.")
        assert len(out) == 2

    def test_empty(self):
        assert split_sentences("") == []

    def test_question_and_exclamation(self):
        out = split_sentences("Why? Because! It matters.")
        assert len(out) == 3

    def test_lowercase_continuation_not_split(self):
        out = split_sentences("It works well. really well. Done.")
        assert [s.text for s in out] == ["It works well. really well.", "Done."]

    def test_tokens_normalized_and_filtered(self):
        out = split_sentences("The H-Index works.", stopwords={"the"})
        assert out[0].tokens == ("h", "index", "works")

    def test_large_text_in_linear_time(self):
        # Every sentence pair has a guarded "Fig." break candidate; a splitter
        # that copies the whole prefix at each candidate is quadratic and
        # takes tens of seconds on this input.
        text = " ".join(
            f"Sentence {i} cites Smith et al. and Fig. {i}. It ends here."
            for i in range(15_000)
        )
        t0 = time.perf_counter()
        out = split_sentences(text)
        elapsed = time.perf_counter() - t0
        assert len(out) == 30_000
        assert out[1].text == "It ends here."
        assert elapsed < 5.0, f"split took {elapsed:.1f}s"


class TestFitLda:
    def test_degenerate_single_topic(self):
        sents = records(["a", "b", "a"], ["c", "a"])
        model = fit_lda(sents, n_topics=1, iterations=5, seed=0)
        assert model.word_topic.sum() == 5
        assert model.topic_totals.tolist() == [5]
        np.testing.assert_array_equal(model.sentence_topic[:, 0], [3, 2])

    def test_seed_determinism(self):
        sents = records(["a", "b"], ["b", "c", "d"], ["a", "d"])
        m1, m2 = (fit_lda(sents, n_topics=3, iterations=30, seed=9) for _ in range(2))
        np.testing.assert_array_equal(m1.word_topic, m2.word_topic)
        np.testing.assert_array_equal(m1.sentence_topic, m2.sentence_topic)

    def test_token_conservation(self):
        rng = np.random.default_rng(1)
        vocab = [f"t{i}" for i in range(12)]
        sents = records(
            *[list(rng.choice(vocab, size=rng.integers(1, 8))) for _ in range(10)]
        )
        total = sum(len(s.tokens) for s in sents)
        for iters in (1, 7, 25):
            model = fit_lda(sents, n_topics=4, iterations=iters, seed=2)
            assert model.word_topic.sum() == total
            assert model.sentence_topic.sum() == total
            np.testing.assert_array_equal(
                model.sentence_topic.sum(axis=1), [len(s.tokens) for s in sents]
            )
            np.testing.assert_array_equal(
                model.word_topic.sum(axis=1), model.topic_totals
            )

    def test_separable_corpus_recovers_topics(self):
        set_a = ["alpha", "beta", "gamma", "delta"]
        set_b = ["red", "blue", "green", "yellow"]
        rng = np.random.default_rng(5)
        token_lists = []
        for i in range(12):
            src = set_a if i % 2 == 0 else set_b
            token_lists.append(list(rng.choice(src, size=6)))
        sents = records(*token_lists)
        model = fit_lda(sents, n_topics=2, iterations=200, seed=11)
        tops = [
            {model.vocabulary[i] for i in np.argsort(-model.word_topic[k], kind="stable")[:4]}
            for k in range(2)
        ]
        assert {frozenset(t) for t in tops} == {frozenset(set_a), frozenset(set_b)}

    def test_all_empty_sentences_error(self):
        with pytest.raises(DataError):
            fit_lda(records([], []), n_topics=2, iterations=1, seed=0)

    def test_parameter_validation(self):
        sents = records(["a"])
        with pytest.raises(ValueError):
            fit_lda(sents, n_topics=0)
        with pytest.raises(ValueError):
            fit_lda(sents, iterations=0)

    # Count tables of the seeded chain. topic_totals is literal; the (K, V)
    # word_topic and (S, K) sentence_topic tables are pinned by the SHA-256
    # of their little-endian int64 bytes. lcg40 has 197 tokens over 50 words
    # and 8 empty sentences. The last two cases pin the float order and the
    # search independently of the differential test below (see its cases).
    @BOTH_SWEEPS
    @pytest.mark.parametrize(
        "corpus, n_topics, alpha, beta, iterations, seed, totals, word_sha, sentence_sha",
        [
            ("lcg40", 1, 0.1, 0.01, 20, 0, [197],
             "822a295eb5b746f08310851eb231300a10fa7d4d4fab6042b4caf8d474221754",
             "25de294c60a8b6f03f0f1b110e6655f1e14e00123b96b5f7b4ccd5a890da3680"),
            ("lcg40", 8, 0.05, 0.001, 25, 42, [11, 51, 14, 9, 34, 27, 36, 15],
             "1803bcae6a9a0b662dba478887bfa756d2e910744aac18a1b85878e03497551e",
             "7e9237028b4e56e290850c07bcc068d68d3fd8c0c180bff93710673e1bcf79ca"),
            ("lcg40", 5, 0.1, 0.01, 40, 7, [33, 34, 60, 41, 29],
             "63e1302a16df4626d836fd42343c1c35f013b4f94c73117df4c3d3bb8977dae4",
             "4e233d923462b33c58a74b499628384b9daa12345c3b5ee96a342346d8145367"),
            ("lcg40", 3, 1.0, 0.5, 20, 123, [51, 77, 69],
             "808fa5a447b87436e5ea435d5e3e0c2deba8b0e2f8664522d7c747356970dbeb",
             "a10d3aa46a5de1369e4c8ced9a48aecddaf9a0487e34aa0ab5a103957df434b7"),
            ("hapax", 5, 1e-160, 1e-160, 10, 21, [22, 20, 25, 22, 31],
             "fa7830e6a4a1c73fbaa241544cf7ca13a7eb2af324d19ca8ebe62eff0957f660",
             "85e511af4d996431c4716c009586900fe679f49c1db46d7bd5869403d5e9dfec"),
            ("lcg-large", 5, 1e307, 0.5, 8, 20, [488, 500, 532, 530, 472],
             "d7b54ef54f54faa096f9a8d99318e7c54b63bc057ee1cb72acdc72a986987aec",
             "afd7de15acd1ea0883f21114c335f8d8db0a967968e132af43a222fe966f3ff1"),
        ],
        ids=["k1", "k8-sparse", "k5-default", "k3-smooth", "hapax", "lcg-large"],
    )
    def test_golden_count_tables(
        self, sweep, corpus, n_topics, alpha, beta, iterations, seed, totals, word_sha,
        sentence_sha,
    ):
        token_lists = _CHAIN_CORPORA[corpus]
        model = fit_lda(
            records(*token_lists),
            n_topics=n_topics, alpha=alpha, beta=beta, iterations=iterations, seed=seed,
        )
        n_words = len(set().union(*token_lists))
        tables = {
            "word_topic": (model.word_topic, (n_topics, n_words), word_sha),
            "sentence_topic": (model.sentence_topic, (len(token_lists), n_topics), sentence_sha),
        }
        for name, (table, shape, sha) in tables.items():
            assert (table.dtype, table.shape) == (np.int64, shape), name
            assert hashlib.sha256(table.astype("<i8").tobytes()).hexdigest() == sha, name
        assert (model.topic_totals.dtype, model.topic_totals.shape) == (np.int64, (n_topics,))
        assert model.topic_totals.tolist() == totals


_TABLES = ("word_topic", "sentence_topic", "topic_totals")


class TestFitLdaMatchesReference:
    """The compiled sweep against the Python sweep, the reference it was written from."""

    @COMPILED_SWEEP
    @pytest.mark.parametrize(
        "corpus, n_topics, alpha, beta, iterations, seed",
        [
            ("handmade", 1, 0.1, 0.01, 30, 0),
            ("handmade", 2, 0.05, 0.001, 30, 1),
            ("handmade", 5, 0.3, 2.0, 30, 2),
            ("handmade", 8, 50.0, 0.1, 30, 3),
            ("handmade", 2, 50.0, 0.1, 30, 4),
            ("handmade", 8, 0.05, 0.001, 30, 5),
            ("lcg40", 1, 0.05, 0.001, 25, 6),
            ("lcg40", 2, 0.3, 2.0, 25, 7),
            ("lcg40", 2, 0.1, 0.01, 25, 8),
            ("lcg40", 5, 0.05, 0.001, 25, 9),
            ("lcg40", 5, 50.0, 0.1, 25, 10),
            ("lcg40", 5, 0.3, 2.0, 25, 11),
            ("lcg40", 8, 0.3, 2.0, 25, 12),
            ("lcg40", 8, 0.05, 0.001, 25, 13),
            ("lcg40", 8, 50.0, 0.1, 25, 14),
            ("lcg40", 2, 0.07, 0.003, 25, 15),
            ("lcg-large", 5, 0.1, 0.01, 12, 16),
            ("lcg-large", 8, 0.05, 0.001, 8, 17),
            ("lcg-large", 2, 50.0, 0.1, 8, 18),
            ("lcg-large", 8, 0.3, 2.0, 8, 19),
            # A last-bit change in a weight moves a draw across a bin edge
            # about once in 2**52 updates, so the cases above cannot tell
            # float orders apart. Here (c + alpha) * (a + beta) overflows
            # once a + beta > 17.9, while the stated order stays finite.
            ("lcg-large", 5, 1e307, 0.5, 8, 20),
            # Each token is its sentence's only token and its word's only
            # occurrence, so every weight is the subnormal beta * alpha / (t +
            # beta_total), a few dozen ulps wide: draws land exactly on bin
            # edges, where bisect_right's "u < cum" and "u <= cum" differ.
            ("hapax", 5, 1e-160, 1e-160, 10, 21),
        ],
    )
    def test_same_count_tables_as_reference(
        self, monkeypatch, sweep, corpus, n_topics, alpha, beta, iterations, seed
    ):
        token_lists = _CHAIN_CORPORA[corpus]
        params = dict(n_topics=n_topics, alpha=alpha, beta=beta, iterations=iterations, seed=seed)
        model = fit_lda(records(*token_lists), **params)
        with monkeypatch.context() as patch:
            patch.setattr(claimselect, "_compiled_sweep", lambda: None)
            expected = fit_lda(records(*token_lists), **params)
        for name in _TABLES:
            table, want = getattr(model, name), getattr(expected, name)
            for t in (table, want):
                assert (t.dtype, t.flags.c_contiguous) == (np.dtype(np.int64), True), name
            assert table.shape == want.shape, name
            assert np.array_equal(table, want), name

    def test_large_corpus_is_large(self):
        assert sum(map(len, _CHAIN_CORPORA["lcg-large"])) >= 2000
        assert any(not toks for toks in _CHAIN_CORPORA["handmade"])


# Word numbers: a 0, b 1, c 2, d 3, e 4; sentence 2 is empty. _FIT_TABLES
# pins the chain's word_topic, sentence_topic and topic_totals.
_FIT_TOKENS = [["a", "b", "c"], ["b", "d"], [], ["a", "a", "e"]]
_FIT_PARAMS = dict(n_topics=2, alpha=0.1, beta=0.01, iterations=10, seed=3)
_FIT_TABLES = ([[0, 2, 1, 1, 0], [3, 0, 0, 0, 1]], [[2, 1], [2, 0], [0, 0], [0, 3]], [4, 4])


class TestCompiledSweep:
    @pytest.mark.parametrize("how", ["no-cc", "compile-error", "unwritable-cache", "other-owner"])
    def test_fallback_gives_the_same_tables_and_one_warning(
        self, tmp_path, monkeypatch, caplog, rebuilt_library, how
    ):
        if how == "no-cc":
            monkeypatch.setenv("PATH", str(tmp_path / "empty"))
        elif how == "compile-error":
            monkeypatch.setattr(native, "_SOURCE", native._SOURCE + "#error broken\n")
        elif how == "unwritable-cache":
            (tmp_path / "blocker").write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "blocker" / "cache"))
        else:
            if claimselect._compiled_sweep() is None:
                pytest.skip(f"no compiled sweep on {platform.machine()}")
            native.library.cache_clear()
            uid = os.getuid()
            monkeypatch.setattr(os, "getuid", lambda: uid + 1)
        models = [fit_lda(records(*_FIT_TOKENS), **_FIT_PARAMS) for _ in range(2)]
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "Gibbs sweeps run in Python" in caplog.messages[0]
        for model in models:
            for name, want in zip(_TABLES, _FIT_TABLES):
                assert getattr(model, name).tolist() == want, name

    def test_built_library_loads_without_a_compiler(self, private_cache_home, rebuilt_library):
        if claimselect._compiled_sweep() is None:
            pytest.skip(f"no compiled sweep on {platform.machine()}")
        cache = private_cache_home / "claimdist"
        [lib] = cache.iterdir()  # no temporary directory is left behind
        assert re.fullmatch(r"native-[0-9a-f]{64}\.so", lib.name)
        # A fresh process with no cc on PATH loads it and imports no subprocess.
        check = (
            "import sys; from claimdist import claimselect as c; "
            "assert c._compiled_sweep() is not None; assert 'subprocess' not in sys.modules"
        )
        src = str(Path(claimselect.__file__).parents[1])
        env = {**os.environ, "PATH": "", "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", check], env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert list(cache.iterdir()) == [lib]


class TestLdaSelect:
    def test_cue_anchored_selection(self):
        claim_vocab = ["novel", "metric", "quantify", "output"]
        background = ["data", "were", "collected", "measured"]
        rng = np.random.default_rng(3)
        token_lists = []
        for i in range(12):
            src = claim_vocab if i < 4 else background
            toks = list(rng.choice(src, size=6))
            token_lists.append(toks)
        sents = records(*token_lists)
        model = fit_lda(sents, n_topics=2, iterations=150, seed=4)
        out = lda_select(model, sents, top_k=4)
        assert {s.index for s in out} == {0, 1, 2, 3}

    def test_top_k_saturation(self):
        sents = records(["novel", "a"], ["b", "c"])
        model = fit_lda(sents, n_topics=2, iterations=20, seed=0)
        out = lda_select(model, sents, top_k=10)
        assert len(out) == 2

    def test_identical_sentences_tie_break(self):
        sents = records(*[["novel", "index"]] * 5)
        model = fit_lda(sents, n_topics=2, iterations=20, seed=0)
        out = lda_select(model, sents, top_k=3)
        assert [s.index for s in out] == [0, 1, 2]

    def test_no_cue_word_error(self):
        sents = records(["plain", "words"], ["more", "words"])
        model = fit_lda(sents, n_topics=2, iterations=10, seed=0)
        with pytest.raises(DataError, match="cue"):
            lda_select(model, sents, top_k=1)

    def test_selection_determinism(self):
        rng = np.random.default_rng(8)
        vocab = ["novel", "x", "y", "z", "w"]
        sents = records(
            *[list(rng.choice(vocab, size=5)) for _ in range(8)]
        )
        m1, m2 = (fit_lda(sents, n_topics=3, iterations=50, seed=7) for _ in range(2))
        s1 = lda_select(m1, sents, top_k=3)
        s2 = lda_select(m2, sents, top_k=3)
        assert [(s.index, s.score) for s in s1] == [(s.index, s.score) for s in s2]


class TestMovingAverage:
    def test_window_one_is_identity(self):
        raw = [0.3, 0.9, 0.1]
        np.testing.assert_array_equal(moving_average(raw, 1), raw)

    def test_hand_example_truncated_edges(self):
        smoothed = moving_average([0.1, 0.9, 0.5, 0.3, 0.7], 3)
        np.testing.assert_allclose(
            smoothed, [0.5, 0.5, 0.5666666666666667, 0.5, 0.5], atol=1e-12
        )

    def test_constant_signal_preserved(self):
        np.testing.assert_allclose(moving_average([0.4] * 6, 5), [0.4] * 6, atol=1e-15)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            moving_average([1.0, 2.0], 2)


class TestMaSelect:
    @pytest.fixture
    def table(self):
        vectors = np.vstack([np.eye(4), np.eye(4)[::-1]])
        return make_table([f"v{i}" for i in range(8)], vectors)

    def test_window_one_matches_raw_ranking(self, table):
        rng = np.random.default_rng(6)
        sents = records(
            *[[f"v{rng.integers(0, 8)}" for _ in range(4)] for _ in range(7)]
        )
        out1 = ma_select(sents, table, window=1, top_k=7)
        # raw ranking = smoothed ranking when window is 1
        scores = {s.index: s.score for s in out1}
        order = sorted(scores, key=lambda i: (-scores[i], i))
        assert [s.index for s in out1] == order

    def test_identical_sentences_first_top_k(self, table):
        sents = records(*[["v0", "v1"]] * 6)
        out = ma_select(sents, table, window=3, top_k=3)
        assert [s.index for s in out] == [0, 1, 2]
        assert all(abs(s.score) <= 1e-12 for s in out)

    def test_outlier_sentence_selected(self, table):
        # five sentences near v0, one orthogonal outlier
        sents = records(["v0"], ["v0"], ["v0"], ["v0"], ["v0"], ["v1"])
        out = ma_select(sents, table, window=1, top_k=1)
        assert out[0].index == 5

    def test_no_in_vocab_token_error(self, table):
        sents = records(["zzz"], ["qqq"])
        with pytest.raises(DataError):
            ma_select(sents, table, window=1, top_k=1)

    def test_returns_min_top_k_unique(self, table):
        sents = records(["v0"], ["v1"], ["v2"])
        out = ma_select(sents, table, window=1, top_k=10)
        assert len(out) == 3
        assert len({s.index for s in out}) == 3

    def test_even_window_rejected(self, table):
        with pytest.raises(ValueError):
            ma_select(records(["v0"]), table, window=2, top_k=1)

    def test_zero_document_centroid_scores_every_sentence_zero(self):
        table = make_table(["v0", "w0"], [[1.0, 2.0], [-1.0, -2.0]])
        out = ma_select(records(["v0"], ["w0"]), table, window=1, top_k=2)
        assert [(s.index, s.score) for s in out] == [(0, 0.0), (1, 0.0)]

    def test_sentence_with_zero_mean_scores_zero(self):
        table = make_table(["v0", "w0", "u0"], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        # document centroid (0.25, 0.25): v0 and u0 sit 45 degrees from it
        out = ma_select(records(["v0", "w0"], ["v0"], ["u0"]), table, window=1, top_k=3)
        assert [s.index for s in out] == [1, 2, 0]
        assert [s.score for s in out] == pytest.approx([1 - 0.5**0.5] * 2 + [0.0], abs=1e-12)
