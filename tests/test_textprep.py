import unicodedata

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


def reference_tokens(raw: str) -> list[str]:
    """The token rule, character by character: after lower(), deleting
    soft hyphens (U+00AD) and NFC, the runs of letters, digits and
    combining marks (general category M*), as the running Python's
    unicodedata classifies them."""
    tokens, current = [], ""
    for c in unicodedata.normalize("NFC", raw.lower().replace("\u00ad", "")):
        if c.isalnum() or unicodedata.category(c).startswith("M"):
            current += c
        elif current:
            tokens.append(current)
            current = ""
    return tokens + [current] if current else tokens


def seeded_strings(seed, alphabet, count, max_len):
    """``count`` strings of up to ``max_len`` characters from ``alphabet``.

    Indices are drawn, not a numpy string array, which would drop NUL.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        picks = rng.integers(len(alphabet), size=rng.integers(0, max_len))
        yield "".join(alphabet[i] for i in picks)


# ASCII with its odd separators oversampled; Latin-1, the combining
# diacritics, Devanagari, Arabic marks and letters, Hangul jamo and CJK;
# and single characters that spacing, case or composition treat specially
# (no-break space, soft hyphen, NEL, zero-width space and joiners, line
# separator, ideographic space, Kelvin sign, İ, titlecase Dž).
MIXED_SCRIPT_ALPHABET = (
    [chr(c) for c in range(128)]
    + list("_\x1c\x1d\x1e\x1f\v\f\r") * 4
    + [
        chr(c)
        for lo, hi in [
            (0x00A0, 0x0100), (0x0300, 0x0370), (0x0900, 0x0980),
            (0x0610, 0x0660), (0x1100, 0x1200), (0x4E00, 0x4E80),
        ]
        for c in range(lo, hi)
    ]
    + list("\u00a0\u00ad\u0085\u200b\u200c\u200d\u2028\u3000\u212a\u0130\u01c5") * 8
)


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

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("Café naïve", ["café", "naïve"]),
            ("Ångström", ["ångström"]),
            ("\u212bngstr\u00f6m", ["ångström"]),  # ANGSTROM SIGN composes to Å
        ],
    )
    def test_composed_and_decomposed_text_give_the_same_tokens(self, text, tokens):
        for form in ("NFC", "NFD"):
            assert normalize_and_tokenize(unicodedata.normalize(form, text)) == tokens
        assert normalize_and_tokenize(text) == tokens

    def test_idempotent_on_rejoined_output(self):
        rng = np.random.default_rng(0)
        alphabet = list("abcXYZ019 .,;-_!?/'\"()")
        for _ in range(200):
            raw = "".join(rng.choice(alphabet, size=rng.integers(0, 60)))
            once = normalize_and_tokenize(raw)
            again = normalize_and_tokenize(" ".join(once))
            assert once == again

    def test_ascii_path_matches_the_reference(self):
        # Every ASCII character, with "_", digits, uppercase and the
        # whitespace str.split splits on besides " \t\n" oversampled.
        alphabet = [chr(c) for c in range(128)] + list("_09AZaz\x1c\x1d\x1e\x1f\v\f\r") * 4
        for raw in seeded_strings(1, alphabet, 500, 80):
            assert normalize_and_tokenize(raw) == reference_tokens(raw)

    # After the first four, each text puts a character that is special in
    # a regex character class among its separators; in the last, an
    # unescaped "!-—" would be a range over every ASCII letter.
    @pytest.mark.parametrize(
        "text",
        [
            "Café naïve", "Café—naïve", "Cafe naive", "it’s",
            "é]x", "é\\x", "é^x", "é-x", "é[x y", "—a]—", "é[:x:]", "é&&b||c~~d", "a!b-c—d",
        ],
    )
    def test_non_ascii_text_matches_the_reference(self, text):
        assert normalize_and_tokenize(text) == reference_tokens(text)

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("co\u00adoperate", ["cooperate"]),
            ("Co\u00adoperate—and\u00ad", ["cooperate", "and"]),
            ("\u00ad", []),
            # deleted before NFC, which then composes the letter and its accent
            ("cafe\u00ad\u0301", ["café"]),
            # ZWSP, ZWNJ, ZWJ, word joiner, BOM
            *((f"co{cf}operate", ["co", "operate"]) for cf in "\u200b\u200c\u200d\u2060\ufeff"),
        ],
    )
    def test_a_soft_hyphen_is_deleted_and_other_format_characters_separate(self, text, tokens):
        assert normalize_and_tokenize(text) == tokens

    def test_seeded_mixed_script_strings_match_the_reference(self):
        mismatches = [
            raw
            for raw in seeded_strings(29, MIXED_SCRIPT_ALPHABET, 6000, 40)
            if normalize_and_tokenize(raw) != reference_tokens(raw)
        ]
        assert mismatches == []

    @pytest.mark.parametrize(
        "text, tokens",
        [
            # vowel signs and a virama (Mn, Mc) inside a Devanagari word
            ("हिन्दी भाषा", ["हिन्दी", "भाषा"]),
            # "İ".lower() is "i" and U+0307, which has no precomposed form
            ("İstanbul", ["i\u0307stanbul"]),
            ("x\u0301y, x\u0301", ["x\u0301y", "x\u0301"]),
        ],
    )
    def test_combining_marks_stay_in_their_token(self, text, tokens):
        assert normalize_and_tokenize(text) == tokens


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
            # the same bag as counting token by token in first-appearance order
            counts = {}
            for t in tokens:
                if t in vocab:
                    counts[t] = counts.get(t, 0) + 1
            total = sum(counts.values())
            assert nbow.words == tuple(counts)
            weights = np.array([n / total for n in counts.values()])
            assert nbow.weights.tobytes() == weights.tobytes()
            assert nbow.oov_dropped == len(tokens) - total


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

    def test_blank_lines_add_no_word(self, tmp_path):
        plain, blank = tmp_path / "plain.txt", tmp_path / "blank.txt"
        plain.write_text("foo\nbar\n")
        blank.write_text("\nfoo\n\n  \nbar\n\n")
        words = load_stopwords(blank).words
        assert words == load_stopwords(plain).words
        assert "" not in words
