import numpy as np
import pytest

from claimdist.errors import EmptyDocumentError
from claimdist.textprep import (
    build_nbow,
    default_stopwords,
    load_stopwords,
    normalize_and_tokenize,
    remove_stopwords,
)

from conftest import make_table


class TestNormalizeAndTokenize:
    def test_hyphen_split_and_lowercase(self):
        assert normalize_and_tokenize("The H-Index!") == ["the", "h", "index"]

    def test_whitespace_collapse(self):
        assert normalize_and_tokenize("  a  b ") == ["a", "b"]

    def test_empty(self):
        assert normalize_and_tokenize("") == []

    def test_digits_kept(self):
        assert normalize_and_tokenize("top 10 papers") == ["top", "10", "papers"]

    def test_underscore_and_slash_split(self):
        assert normalize_and_tokenize("a_b c/d") == ["a", "b", "c", "d"]

    def test_unicode_letters(self):
        assert normalize_and_tokenize("Müller's Index") == ["müller", "s", "index"]

    def test_idempotent_on_rejoined_output(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcXYZ019 .,;-_!?/'\"()")
        for _ in range(200):
            raw = "".join(rng.choice(alphabet, size=rng.integers(0, 60)))
            once = normalize_and_tokenize(raw)
            again = normalize_and_tokenize(" ".join(once))
            assert once == again


class TestRemoveStopwords:
    def test_basic(self):
        assert remove_stopwords(["the", "index"], {"the"}) == ["index"]

    def test_all_removed(self):
        assert remove_stopwords(["a", "the"], {"a", "the"}) == []

    def test_empty(self):
        assert remove_stopwords([], {"the"}) == []

    def test_order_preserved_and_idempotent(self):
        tokens = ["x", "the", "y", "of", "z"]
        once = remove_stopwords(tokens, {"the", "of"})
        assert once == ["x", "y", "z"]
        assert remove_stopwords(once, {"the", "of"}) == once


class TestBuildNbow:
    @pytest.fixture
    def table(self):
        return make_table(["a", "b"], [[1.0, 0.0], [0.0, 1.0]])

    def test_frequency_weights(self, table):
        nbow = build_nbow(["a", "a", "b"], table)
        assert nbow.words == ("a", "b")
        np.testing.assert_allclose(nbow.weights, [2 / 3, 1 / 3])
        assert nbow.oov_dropped == 0

    def test_all_oov_is_error(self, table):
        with pytest.raises(EmptyDocumentError):
            build_nbow(["x"], table)

    def test_renormalization_after_drop(self, table):
        nbow = build_nbow(["a", "x", "b"], table)
        assert nbow.words == ("a", "b")
        np.testing.assert_allclose(nbow.weights, [0.5, 0.5])
        assert nbow.oov_dropped == 1

    def test_order_invariance_same_multiset(self, table):
        n1 = build_nbow(["a", "a", "b"], table)
        n2 = build_nbow(["b", "a", "a"], table)
        assert dict(zip(n1.words, n1.weights)) == dict(zip(n2.words, n2.weights))

    def test_first_appearance_order(self, table):
        assert build_nbow(["b", "a"], table).words == ("b", "a")

    def test_weights_sum_to_one_fuzzed(self):
        rng = np.random.default_rng(2)
        vocab = [f"v{i}" for i in range(10)]
        table = make_table(vocab, rng.normal(size=(10, 3)) + 0.05)
        for _ in range(300):
            tokens = list(rng.choice(vocab + ["oov1", "oov2"], size=rng.integers(1, 30)))
            try:
                nbow = build_nbow(tokens, table)
            except EmptyDocumentError:
                assert all(t.startswith("oov") for t in tokens)
                continue
            assert abs(float(nbow.weights.sum()) - 1.0) <= 1e-9
            assert float(nbow.weights.min()) > 0.0
            assert len(set(nbow.words)) == len(nbow.words)


class TestStopwordLists:
    def test_bundled_list_identity(self):
        sw = default_stopwords()
        assert sw.name == "snowball_en.txt"
        assert len(sw.sha256) == 64
        assert "the" in sw.words
        assert "index" not in sw.words

    def test_bundled_file_has_175_entries(self):
        from importlib import resources

        text = (resources.files("claimdist") / "data" / "snowball_en.txt").read_text()
        assert len(text.split()) == 175

    def test_contraction_fragments_match_tokenizer_output(self):
        sw = default_stopwords()
        tokens = normalize_and_tokenize("it isn't the h-index")
        assert remove_stopwords(tokens, sw.words) == ["h", "index"]

    def test_user_file_override(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("foo\nbar\n")
        sw = load_stopwords(path)
        assert sw.name == "sw.txt"
        assert sw.words >= {"foo", "bar"}
        assert remove_stopwords(["foo", "baz"], sw.words) == ["baz"]
