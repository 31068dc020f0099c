"""Tweet/post preprocessing and lexicon-based polarity scoring.

The pipeline is normalize -> tokenize -> stopword removal -> polarity
score -> label. All functions are pure; records are immutable.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from importlib import resources
from operator import itemgetter
from pathlib import Path

from .table import read_table

POSITIVE = "Positive"
NEGATIVE = "Negative"
NEUTRAL = "Neutral"

POST_COLUMNS = ("timestamp", "source", "text")

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


@dataclass(frozen=True)
class RawPost:
    """One raw tweet or reddit post. Empty text is allowed (scores neutral)."""

    timestamp: int
    text: str
    source: str = "twitter"


@dataclass(frozen=True)
class SentimentRecord:
    """A processed post: surviving tokens, polarity in [-1, 1], and label."""

    timestamp: int
    tokens: tuple[str, ...]
    polarity: float
    label: str


class Lexicon:
    """Map from lowercase word to polarity weight in [-1, 1]."""

    def __init__(self, entries: dict[str, float]):
        for word, weight in entries.items():
            if word != word.lower() or _has_whitespace(word):
                raise ValueError(f"bad lexicon key: {word!r}")
            if not -1.0 <= weight <= 1.0:
                raise ValueError(f"lexicon weight out of range for {word!r}: {weight}")
        self.entries = dict(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    @classmethod
    def from_file(cls, path: str | Path) -> "Lexicon":
        """Load a lexicon from a file with one ``word,weight`` pair per line."""
        entries: dict[str, float] = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                word, weight = line.rsplit(",", 1)
                entries[word] = float(weight)
        return cls(entries)

    @classmethod
    def bundled(cls) -> "Lexicon":
        """The lexicon shipped with the package (a few hundred entries)."""
        text = resources.files("btcforecast.data").joinpath("lexicon.csv").read_text("utf-8")
        entries = {}
        for line in text.splitlines():
            if line.strip():
                word, weight = line.rsplit(",", 1)
                entries[word] = float(weight)
        return cls(entries)


def _has_whitespace(s: str) -> bool:
    return s != "".join(s.split())


def load_stopwords() -> frozenset[str]:
    """The bundled English stopword list (includes a, is, the, with)."""
    text = resources.files("btcforecast.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w for w in text.split() if w)


_BUNDLED_STOPWORDS: frozenset[str] | None = None


def _stopwords() -> frozenset[str]:
    global _BUNDLED_STOPWORDS
    if _BUNDLED_STOPWORDS is None:
        _BUNDLED_STOPWORDS = load_stopwords()
    return _BUNDLED_STOPWORDS


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


def remove_stopwords(tokens: list[str], stopwords: frozenset[str] | None = None) -> list[str]:
    """Drop tokens found in the stopword list, preserving order."""
    if stopwords is None:
        stopwords = _stopwords()
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
    if not -1.0 <= polarity <= 1.0:
        raise ValueError(f"polarity outside [-1, 1]: {polarity}")
    if polarity > 0:
        return POSITIVE
    if polarity < 0:
        return NEGATIVE
    return NEUTRAL


def process_post(
    post: RawPost,
    lexicon: Lexicon,
    stopwords: frozenset[str] | None = None,
) -> SentimentRecord:
    """Run the full pipeline on one post, preserving its timestamp."""
    tokens = remove_stopwords(tokenize(normalize_text(post.text)), stopwords)
    polarity = score_polarity(tokens, lexicon)
    return SentimentRecord(
        timestamp=post.timestamp,
        tokens=tuple(tokens),
        polarity=polarity,
        label=classify(polarity),
    )


def read_posts(path: str | Path) -> list[RawPost]:
    """Read a posts file: header ``timestamp,source,text``, text quoted."""
    columns = dict(zip(POST_COLUMNS, (int, str, str)))
    return [
        RawPost(timestamp=t, text=text, source=source)
        for _, (t, source, text) in read_table(path, columns)
    ]


def write_posts(path: str | Path, posts: list[RawPost]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(POST_COLUMNS)
        for p in posts:
            writer.writerow([p.timestamp, p.source, p.text])


def write_sentiment_log(path: str | Path, records: list[SentimentRecord]) -> None:
    """Write scored records as ``timestamp,polarity,label`` rows."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["timestamp", "polarity", "label"])
        for r in records:
            writer.writerow([r.timestamp, repr(r.polarity), r.label])


def read_sentiment_log(path: str | Path) -> list[tuple[int, float, str]]:
    columns = {"timestamp": int, "polarity": float, "label": str}
    return [tuple(values) for _, values in read_table(path, columns)]
