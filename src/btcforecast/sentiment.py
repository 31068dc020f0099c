"""Tweet/post preprocessing and lexicon-based polarity scoring.

The pipeline is normalize -> tokenize -> stopword removal -> polarity
score -> label, each stage a pure function. A post is a (timestamp, text)
row, and its score is the log row (timestamp, polarity, label).
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from functools import cache
from importlib import resources
from operator import itemgetter
from pathlib import Path

from .table import int64_field, polarity_field, read_table, time_ordered, write_table

POSITIVE = "Positive"
NEGATIVE = "Negative"
NEUTRAL = "Neutral"

# Replacements run in this order; elongation collapse goes last so that
# stripped hashtags etc. are collapsed in the same pass (keeps
# normalize_text idempotent).
_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_HASHTAG_RE = re.compile(r"#+(\w+)")
_MENTION_RE = re.compile(r"@+\w+")
_ELONGATION_RE = re.compile(r"([^\W\d_])\1{2,}")

# A token runs from the first to the last word character of a
# whitespace-separated chunk; chunks without one (emoticons etc.) give none.
_TOKEN_RE = re.compile(r"\w(?:\S*\w)?")


class Lexicon:
    """Map from token, as tokenize yields it, to polarity weight in [-1, 1]."""

    def __init__(self, entries: dict[str, float]):
        for word, weight in entries.items():
            _check_entry(word, weight)
        self.entries = dict(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    @classmethod
    def from_file(cls, path: str | Path) -> "Lexicon":
        """Load a lexicon from a file with one ``word,weight`` pair per line
        (blank lines skipped). A bad line, or a key given twice, is a
        one-line ValueError naming the file and the line."""
        entries: dict[str, float] = {}
        first_line: dict[str, int] = {}
        try:
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    line = line.strip()
                    if not line:
                        continue
                    word, comma, weight = line.rpartition(",")
                    try:
                        if not comma:
                            raise ValueError("expected word,weight")
                        if word in first_line:
                            raise ValueError(f"repeated lexicon key {word!r} (first on line {first_line[word]})")
                        first_line[word] = lineno
                        entries[word] = float(weight)
                        _check_entry(word, entries[word])
                    except ValueError as e:
                        raise ValueError(f"{path}:{lineno}: {e}") from None
        except UnicodeDecodeError as e:  # decoded a chunk ahead: no line to name
            raise ValueError(f"{path}: {e}") from None
        return cls(entries)

    @classmethod
    def bundled(cls) -> "Lexicon":
        """The lexicon shipped with the package (a few hundred entries)."""
        with resources.as_file(resources.files("btcforecast.data") / "lexicon.csv") as path:
            return cls.from_file(path)


def _check_entry(word: str, weight: float) -> None:
    # a key no post can yield as a token (upper case, whitespace, a BOM, an
    # emoticon) would never score
    if tokenize(word) != [word]:
        raise ValueError(f"bad lexicon key {word!r}: not a token that a post can produce")
    if word in load_stopwords():  # process_post drops stopwords before scoring
        raise ValueError(f"bad lexicon key {word!r}: a stopword, which is never scored")
    if not -1.0 <= weight <= 1.0:
        raise ValueError(f"lexicon weight out of range for {word!r}: {weight}")


@cache
def load_stopwords() -> frozenset[str]:
    """The bundled English stopword list (includes a, is, the, with)."""
    text = resources.files("btcforecast.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


def normalize_text(text: str) -> str:
    """Rewrite raw post text: URLs -> "URL", #word -> word, @handle -> "User",
    and runs of 3+ identical letters collapsed to 2, in that order.

    Idempotent: applying it twice gives the same result.
    """
    # a substitution is skipped when its trigger is absent (nothing can
    # match); group callables are cheaper than template expansion
    if "http" in text or "www." in text:
        text = _URL_RE.sub("URL", text)
    if "#" in text:
        text = _HASHTAG_RE.sub(itemgetter(1), text)
    if "@" in text:
        text = _MENTION_RE.sub("User", text)
    return _ELONGATION_RE.sub(_doubled_letter, text)


def _doubled_letter(match: re.Match) -> str:
    return match[1] * 2


def tokenize(text: str) -> list[str]:
    """Split normalized text on whitespace, drop symbol-only tokens
    (emoticons etc.), strip leading/trailing punctuation, lowercase."""
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def remove_stopwords(tokens: list[str]) -> list[str]:
    """Drop tokens found in the bundled stopword list, preserving order."""
    stopwords = load_stopwords()
    return [t for t in tokens if t not in stopwords]


def score_polarity(tokens: list[str], lexicon: Lexicon) -> float:
    """Arithmetic mean of lexicon weights over the tokens present in the
    lexicon; 0.0 when nothing matches."""
    weights = [lexicon.entries[t] for t in tokens if t in lexicon.entries]
    if not weights:
        return 0.0
    mean = math.fsum(weights) / len(weights)
    # the float mean can drift one ulp past the weight range; pin it so the
    # [min weight, max weight] (and hence [-1, 1]) bound holds exactly
    return min(max(mean, min(weights)), max(weights))


def classify(polarity: float) -> str:
    """Positive for polarity > 0, Negative for < 0, Neutral for = 0."""
    polarity_field(polarity)  # a polarity outside [-1, 1], or NaN, is an error
    if polarity > 0:
        return POSITIVE
    if polarity < 0:
        return NEGATIVE
    return NEUTRAL


def process_post(post: tuple[int, str], lexicon: Lexicon) -> tuple[int, float, str]:
    """Score one (timestamp, text) post through the full pipeline (the
    bundled stopword list, the given lexicon): its log row (timestamp,
    polarity, label)."""
    timestamp, text = post
    polarity = score_polarity(remove_stopwords(tokenize(normalize_text(text))), lexicon)
    return timestamp, polarity, classify(polarity)


def read_posts(path: str | Path) -> list[tuple[int, str]]:
    """The (timestamp, text) rows of a posts file: header
    ``timestamp,source,text``, text quoted; source is required, not read."""
    columns = {"timestamp": int64_field, "source": str, "text": str}
    return [(t, text) for _, (t, _, text) in read_table(path, columns)]


def write_sentiment_log(path: str | Path, rows: Iterable[tuple[int, float, str]]) -> None:
    """Write (timestamp, polarity, label) rows as a ``timestamp,polarity,label``
    log in time order, which merge requires; the sort is stable, so rows of
    one time keep their order."""
    write_table(path, ["timestamp", "polarity", "label"], sorted(rows, key=itemgetter(0)))


def read_sentiment_log(path: str | Path) -> list[tuple[int, float]]:
    """The (timestamp, polarity) pairs of a log, which merge buckets in time
    order: a time that goes back, or a polarity outside [-1, 1], is an error
    on its line (merge averages polarities per bucket, so a bad one could
    otherwise hide in a mean that lies in [-1, 1])."""
    columns = {"timestamp": int64_field, "polarity": polarity_field, "label": str}
    return [(t, p) for _, (t, p, _) in time_ordered(path, read_table(path, columns), "sentiment")]
