"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and writes files; the program under
test only ever sees those files. The same seed writes the same bytes. The
generators use numpy and the csv module, never btcforecast itself, so a
change to the program cannot change its own inputs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

DAY = 86400
BITSTAMP_COLUMNS = ("high", "last", "timestamp", "bid", "vwap", "volume", "low", "ask", "open", "datetime")
FIRST_TICK = 1_500_000_000

# Words taken from the bundled lexicon, so that posts score non-neutral.
LEXICON_WORDS = (
    "amazing", "ath", "bankrupt", "bleak", "broken", "catastrophe", "confidence",
    "crashed", "damage", "dip", "dropped", "enjoy", "fail", "fast", "fraud",
    "garbage", "green", "hate", "horrible", "innovation", "joy", "legit", "losses",
    "mistake", "optimistic", "penalty", "potential", "prosperity", "recover",
    "rise", "scam", "selloff", "stability", "success", "suspicious", "trouble",
    "unstable", "weakness", "worrying", "awesome", "bearish", "best", "bad",
)
STOPWORDS = ("a", "about", "after", "again", "all", "and", "are", "at", "be", "but", "for", "i", "is", "it", "the", "this", "with")
NEUTRAL_WORDS = ("bitcoin", "btc", "price", "market", "today", "chart", "exchange", "wallet", "block", "miners")
ELONGATED = ("sooooo", "moooon", "noooo", "yesss", "hodllll", "wowww")


def _fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def merged_csv(path: Path, seed: int, n: int = 5000) -> None:
    """time,price,sentiment rows: a daily sine (period 40, amplitude 1500,
    base 8000) plus N(0, 25^2) price noise, and N(0, 0.5^2) sentiment
    clipped to [-1, 1]."""
    rng = np.random.default_rng([seed, 1])
    i = np.arange(n)
    price = 8000.0 + 1500.0 * np.sin(2.0 * np.pi * i / 40.0) + rng.normal(0.0, 25.0, n)
    sentiment = np.clip(rng.normal(0.0, 0.5, n), -1.0, 1.0)
    _write_merged(path, (i + 1) * DAY, price, sentiment)


def arima_csv(path: Path, seed: int, n: int = 700) -> None:
    """time,price,sentiment rows whose prices follow ARIMA(1,1,1) with
    phi=0.6, theta=0.3, sigma=20 from a level of 9000; sentiment is zero."""
    rng = np.random.default_rng([seed, 2])
    burn = 100
    eps = rng.normal(0.0, 20.0, n + burn)
    w = np.zeros(n + burn)
    for t in range(1, n + burn):
        w[t] = 0.6 * w[t - 1] + eps[t] + 0.3 * eps[t - 1]
    price = 9000.0 + np.cumsum(w[burn:])
    _write_merged(path, (np.arange(n) + 1) * DAY, price, np.zeros(n))


def _write_merged(path: Path, time, price, sentiment) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["time", "price", "sentiment"])
        for t, p, s in zip(time.tolist(), price.tolist(), sentiment.tolist()):
            writer.writerow([t, repr(p), repr(s)])


def _ticks(rng: np.random.Generator, n: int, first_ts: int, start_price: float):
    """n bitstamp ticker rows (as lists of strings, in log-column order) with
    strictly increasing timestamps 1..29 s apart and a random-walk price."""
    ts = first_ts + np.cumsum(rng.integers(1, 30, n))
    last = start_price + np.cumsum(rng.normal(0.0, 2.0, n))
    spread = rng.uniform(0.1, 2.0, n)
    volume = rng.uniform(1000.0, 9000.0, n)
    rows = []
    for t, p, s, v in zip(ts.tolist(), last.tolist(), spread.tolist(), volume.tolist()):
        stamp = _datetime(t)
        rows.append([
            _fmt(p + 40.0), _fmt(p), str(t), _fmt(p - s), _fmt(p - 3.0), _fmt(v, 8),
            _fmt(p - 40.0), _fmt(p + s), _fmt(p + 5.0), stamp,
        ])
    return rows


def _datetime(t: int) -> str:
    days, rem = divmod(t, DAY)
    # day count since the epoch rendered as a fixed-width pseudo-date; the
    # schema keeps datetime as an opaque string
    return f"d{days:06d} {rem // 3600:02d}:{rem % 3600 // 60:02d}:{rem % 60:02d}"


def tick_log_and_payloads(log_path: Path, payload_dir: Path, seed: int, n_log: int = 80_000, n_payloads: int = 300) -> list[int]:
    """Write a bitstamp_ticker record log of n_log ticks, and n_payloads
    ticker payloads (payload_dir/bitstamp_ticker/NNN.json) that continue it
    with later timestamps. Returns every tick timestamp, log first."""
    rng = np.random.default_rng([seed, 3])
    rows = _ticks(rng, n_log + n_payloads, FIRST_TICK, 6500.0)
    with open(log_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(BITSTAMP_COLUMNS)
        writer.writerows(rows[:n_log])
    schema_dir = payload_dir / "bitstamp_ticker"
    schema_dir.mkdir(parents=True, exist_ok=True)
    for k, row in enumerate(rows[n_log:]):
        payload = dict(zip(BITSTAMP_COLUMNS, row))
        (schema_dir / f"{k:03d}.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return [int(row[2]) for row in rows]


def posts_csv(path: Path, seed: int, first_ts: int, last_ts: int, n: int = 50_000) -> None:
    """timestamp,source,text posts spread over [first_ts, last_ts]. Texts mix
    lexicon words, stopwords and neutral words with URLs, hashtags,
    mentions and elongations."""
    rng = np.random.default_rng([seed, 4])
    times = np.sort(rng.integers(first_ts, last_ts + 1, n)).tolist()
    sources = ("twitter", "reddit")
    lengths = rng.integers(3, 16, n).tolist()
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(["timestamp", "source", "text"])
        for t, length in zip(times, lengths):
            writer.writerow([t, sources[int(rng.integers(2))], _post_text(rng, length)])


def _post_text(rng: np.random.Generator, length: int) -> str:
    words = []
    for kind in rng.integers(0, 10, length).tolist():
        if kind < 3:
            words.append(LEXICON_WORDS[int(rng.integers(len(LEXICON_WORDS)))])
        elif kind < 6:
            words.append(STOPWORDS[int(rng.integers(len(STOPWORDS)))])
        elif kind == 6:
            words.append(NEUTRAL_WORDS[int(rng.integers(len(NEUTRAL_WORDS)))])
        elif kind == 7:
            words.append("#" + (LEXICON_WORDS + NEUTRAL_WORDS)[int(rng.integers(len(LEXICON_WORDS) + len(NEUTRAL_WORDS)))])
        elif kind == 8:
            words.append(f"@user{int(rng.integers(1000))}")
        else:
            words.append(ELONGATED[int(rng.integers(len(ELONGATED)))] if rng.random() < 0.5
                         else f"https://t.co/{int(rng.integers(1 << 30)):x}")
    return " ".join(words) + ("!" if rng.random() < 0.3 else "")


def bucket_count(timestamps: list[int], bucket_s: int) -> int:
    """Rows a merge produces: one per right-closed bucket holding a tick."""
    return len({-(-t // bucket_s) for t in timestamps})
