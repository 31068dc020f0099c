from __future__ import annotations

import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcforecast.cli import run
from btcforecast.sentiment import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    Lexicon,
    RawPost,
    classify,
    load_stopwords,
    normalize_text,
    process_post,
    read_posts,
    remove_stopwords,
    score_polarity,
    tokenize,
    write_posts,
)


# The split/search/strip tokenizer and the four-substitution normalizer that
# tokenize and normalize_text replaced; kept as oracles for them.
_ORACLE_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_ORACLE_HASHTAG_RE = re.compile(r"#+(\w+)")
_ORACLE_MENTION_RE = re.compile(r"@+\w+")
_ORACLE_ELONGATION_RE = re.compile(r"([^\W\d_])\1{2,}")
_ORACLE_EDGE_PUNCT_RE = re.compile(r"^\W+|\W+$")
_ORACLE_WORD_RE = re.compile(r"\w")


def _normalize_oracle(text: str) -> str:
    text = _ORACLE_URL_RE.sub("URL", text)
    text = _ORACLE_HASHTAG_RE.sub(r"\1", text)
    text = _ORACLE_MENTION_RE.sub("User", text)
    return _ORACLE_ELONGATION_RE.sub(r"\1\1", text)


def _tokenize_oracle(text: str) -> list[str]:
    tokens = []
    for raw in text.split():
        if not _ORACLE_WORD_RE.search(raw):
            continue
        token = _ORACLE_EDGE_PUNCT_RE.sub("", raw)
        if token:
            tokens.append(token.lower())
    return tokens


# post-like text: arbitrary strings mixed with whitespace (also non-ASCII),
# the substitution triggers, edge punctuation, digits and non-ASCII letters
_POST_PIECES = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        [" ", "\t", "\n", "\u00a0", "\u2003", "#", "@", "_", ".", ":", "/", "'",
         "http", "https://", "www.", "7", "42", "é", "ß", "Ω", "日本", "٣", "ooo", "!!"]
    ),
)
_POST_TEXT = st.lists(_POST_PIECES, max_size=20).map("".join)


class TestAgainstOracles:
    @given(_POST_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_normalize_text_matches_four_substitutions(self, text):
        assert normalize_text(text) == _normalize_oracle(text)

    @given(_POST_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_tokenize_matches_split_search_strip(self, text):
        assert tokenize(text) == _tokenize_oracle(text)

    def test_fixture_posts_score_as_before(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "sentiment.csv"
        assert run(["sentiment", "--posts", str(fixtures_dir / "posts.csv"), "--out", str(out)]) == 0
        # sha256 of this output before the one-regex tokenizer
        digest = "17c84abf4667e168c0ff65f4294202ddb701b75fd1f51353286d49b851fb7e79"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestNormalizeText:
    def test_hashtag_stripped(self):
        assert normalize_text("#Microsoft") == "Microsoft"

    def test_mention_becomes_user(self):
        assert normalize_text("@Billgates") == "User"

    def test_elongation_collapsed(self):
        assert normalize_text("cooooool!") == "cool!"

    def test_url_replaced(self):
        assert normalize_text("see https://t.co/x now") == "see URL now"

    def test_www_url(self):
        assert normalize_text("www.example.com rocks") == "URL rocks"

    def test_combined(self):
        assert normalize_text("#bitcoin @user https://x.co") == "bitcoin User URL"

    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once


class TestTokenize:
    def test_plain_words(self):
        assert tokenize("Bitcoin is rising") == ["bitcoin", "is", "rising"]

    def test_empty(self):
        assert tokenize("") == []

    def test_symbol_only_tokens_removed(self):
        assert tokenize("btc \U0001F680 up") == ["btc", "up"]

    def test_edge_punctuation_stripped(self):
        assert tokenize("great!") == ["great"]

    @given(st.text(alphabet=" \t\n", max_size=30))
    def test_whitespace_only_is_empty(self, text):
        assert tokenize(text) == []


class TestRemoveStopwords:
    def test_drops_article(self):
        assert remove_stopwords(["a", "great", "coin"]) == ["great", "coin"]

    def test_empty(self):
        assert remove_stopwords([]) == []

    def test_canonical_stopwords(self):
        assert remove_stopwords(["the", "is", "a", "with"]) == []

    @given(st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=6), max_size=20))
    def test_never_increases_count(self, tokens):
        assert len(remove_stopwords(tokens)) <= len(tokens)


class TestScorePolarity:
    def test_single_match(self, example_lexicon):
        assert score_polarity(["good"], example_lexicon) == pytest.approx(0.7)

    def test_no_match_is_neutral(self, example_lexicon):
        assert score_polarity([], example_lexicon) == 0.0
        assert score_polarity(["zzz"], example_lexicon) == 0.0

    def test_symmetric_cancellation(self, example_lexicon):
        assert score_polarity(["good", "bad"], example_lexicon) == 0.0

    @given(st.lists(st.sampled_from(["good", "bad", "meh", "btc"]), max_size=30))
    def test_bounded_by_lexicon_weights(self, tokens):
        lexicon = Lexicon({"good": 0.7, "bad": -0.7})
        score = score_polarity(tokens, lexicon)
        assert -0.7 <= score <= 0.7
        assert -1.0 <= score <= 1.0


class TestClassify:
    def test_positive(self):
        assert classify(0.5) == POSITIVE

    def test_negative(self):
        assert classify(-0.1) == NEGATIVE

    def test_neutral(self):
        assert classify(0.0) == NEUTRAL

    @pytest.mark.parametrize("bad", [1.5, -1.01, 2.0])
    def test_out_of_domain(self, bad):
        with pytest.raises(ValueError):
            classify(bad)

    @given(st.lists(st.sampled_from(["good", "bad", "other"]), max_size=20))
    def test_label_sign_invariant(self, tokens):
        lexicon = Lexicon({"good": 0.7, "bad": -0.7})
        polarity = score_polarity(tokens, lexicon)
        label = classify(polarity)
        if polarity > 0:
            assert label == POSITIVE
        elif polarity < 0:
            assert label == NEGATIVE
        else:
            assert label == NEUTRAL


class TestProcessPost:
    def test_positive_post(self, example_lexicon):
        rec = process_post(RawPost(100, "bitcoin is good"), example_lexicon)
        assert rec.timestamp == 100
        assert rec.polarity == pytest.approx(0.7)
        assert rec.label == POSITIVE

    def test_empty_post_neutral(self, example_lexicon):
        rec = process_post(RawPost(5, ""), example_lexicon)
        assert rec.timestamp == 5
        assert rec.polarity == 0.0
        assert rec.label == NEUTRAL

    def test_stage_by_stage_trace(self, example_lexicon):
        rec = process_post(RawPost(9, "#bitcoin @user https://x.co"), example_lexicon)
        assert rec.tokens == ("bitcoin", "user", "url")
        assert rec.polarity == 0.0
        assert rec.label == NEUTRAL


class TestLexicon:
    def test_bundled_loads(self):
        lex = Lexicon.bundled()
        assert len(lex) >= 200
        assert all(-1.0 <= w <= 1.0 for w in lex.entries.values())
        assert "good" in lex and "bad" in lex

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError):
            Lexicon({"word": 1.5})

    def test_rejects_uppercase_key(self):
        with pytest.raises(ValueError):
            Lexicon({"Word": 0.5})

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("alpha,0.5\nbeta,-0.25\n", encoding="utf-8")
        lex = Lexicon.from_file(path)
        assert lex.entries == {"alpha": 0.5, "beta": -0.25}


def test_stopword_list_has_canonical_words():
    stopwords = load_stopwords()
    assert {"a", "is", "the", "with"} <= stopwords


def test_posts_file_roundtrip(tmp_path):
    posts = [
        RawPost(10, 'btc says "buy"', "twitter"),
        RawPost(20, "plain text, with commas", "reddit"),
    ]
    path = tmp_path / "posts.csv"
    write_posts(path, posts)
    assert read_posts(path) == posts
