import hashlib
import time

import numpy as np
import pytest

from claimdist.claimselect import (
    SentenceRecord,
    fit_lda,
    lda_select,
    ma_select,
    moving_average,
    split_sentences,
)
from claimdist.errors import DataError

from conftest import lcg_token_lists, make_table


def records(*token_lists):
    return [
        SentenceRecord(index=i, text=" ".join(toks), tokens=tuple(toks))
        for i, toks in enumerate(token_lists)
    ]


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
        m1 = fit_lda(sents, n_topics=3, iterations=30, seed=9)
        m2 = fit_lda(sents, n_topics=3, iterations=30, seed=9)
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

    # Count tables of the seeded chain on a fixed 40-sentence corpus (197
    # tokens over 50 words, 8 empty sentences). topic_totals is literal;
    # the (K, 50) word_topic and (40, K) sentence_topic tables are pinned
    # by the SHA-256 of their little-endian int64 bytes.
    @pytest.mark.parametrize(
        "n_topics, alpha, beta, iterations, seed, totals, word_sha, sentence_sha",
        [
            (1, 0.1, 0.01, 20, 0, [197],
             "822a295eb5b746f08310851eb231300a10fa7d4d4fab6042b4caf8d474221754",
             "25de294c60a8b6f03f0f1b110e6655f1e14e00123b96b5f7b4ccd5a890da3680"),
            (8, 0.05, 0.001, 25, 42, [11, 51, 14, 9, 34, 27, 36, 15],
             "1803bcae6a9a0b662dba478887bfa756d2e910744aac18a1b85878e03497551e",
             "7e9237028b4e56e290850c07bcc068d68d3fd8c0c180bff93710673e1bcf79ca"),
            (5, 0.1, 0.01, 40, 7, [33, 34, 60, 41, 29],
             "63e1302a16df4626d836fd42343c1c35f013b4f94c73117df4c3d3bb8977dae4",
             "4e233d923462b33c58a74b499628384b9daa12345c3b5ee96a342346d8145367"),
            (3, 1.0, 0.5, 20, 123, [51, 77, 69],
             "808fa5a447b87436e5ea435d5e3e0c2deba8b0e2f8664522d7c747356970dbeb",
             "a10d3aa46a5de1369e4c8ced9a48aecddaf9a0487e34aa0ab5a103957df434b7"),
        ],
        ids=["k1", "k8-sparse", "k5-default", "k3-smooth"],
    )
    def test_golden_count_tables(
        self, n_topics, alpha, beta, iterations, seed, totals, word_sha, sentence_sha
    ):
        sents = records(*lcg_token_lists(40, 60, seed=2024))
        model = fit_lda(
            sents, n_topics=n_topics, alpha=alpha, beta=beta, iterations=iterations, seed=seed
        )
        tables = {
            "word_topic": (model.word_topic, (n_topics, 50), word_sha),
            "sentence_topic": (model.sentence_topic, (40, n_topics), sentence_sha),
        }
        for name, (table, shape, sha) in tables.items():
            assert (table.dtype, table.shape) == (np.int64, shape), name
            assert hashlib.sha256(table.astype("<i8").tobytes()).hexdigest() == sha, name
        assert (model.topic_totals.dtype, model.topic_totals.shape) == (np.int64, (n_topics,))
        assert model.topic_totals.tolist() == totals


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
        m1 = fit_lda(sents, n_topics=3, iterations=50, seed=7)
        m2 = fit_lda(sents, n_topics=3, iterations=50, seed=7)
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
