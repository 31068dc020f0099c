"""Each generator writes identical bytes for one seed and different bytes
for another; the merge row count it predicts matches the program."""

import json
from pathlib import Path

import pytest

import generate

REPO = Path(__file__).resolve().parents[2]


def _merged(d, seed):
    generate.merged_csv(d / "x.csv", seed, n=200)
    return [d / "x.csv"]


def _arima(d, seed):
    generate.arima_csv(d / "x.csv", seed, n=200)
    return [d / "x.csv"]


def _ticks(d, seed):
    generate.tick_log_and_payloads(d / "log.csv", d / "payloads", seed, n_log=200, n_payloads=5)
    return [d / "log.csv", *sorted((d / "payloads" / "bitstamp_ticker").glob("*.json"))]


def _posts(d, seed):
    generate.posts_csv(d / "posts.csv", seed, generate.FIRST_TICK, generate.FIRST_TICK + 3600, n=200)
    return [d / "posts.csv"]


def _bytes(tmp_path, name, generator, seed):
    d = tmp_path / name
    d.mkdir()
    return [p.read_bytes() for p in generator(d, seed)]


@pytest.mark.parametrize("generator", [_merged, _arima, _ticks, _posts])
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, generator):
    first = _bytes(tmp_path, "a", generator, 3)
    assert first == _bytes(tmp_path, "b", generator, 3)
    assert first != _bytes(tmp_path, "c", generator, 4)


def test_generated_inputs_are_accepted_by_the_program(tmp_path):
    from btcforecast.cli import run
    from btcforecast.dataset import MergedSeries
    from btcforecast.ingest import BITSTAMP_TICKER, RecordLog, parse_payload

    ticks = generate.tick_log_and_payloads(tmp_path / "log.csv", tmp_path / "p", 1, n_log=500, n_payloads=3)
    assert len(RecordLog(tmp_path / "log.csv", BITSTAMP_TICKER).read()) == 500
    for payload in sorted((tmp_path / "p" / "bitstamp_ticker").glob("*.json")):
        parse_payload(BITSTAMP_TICKER, json.loads(payload.read_text("utf-8")))
    generate.posts_csv(tmp_path / "posts.csv", 1, ticks[0], ticks[-1], n=300)
    assert run(["sentiment", "--posts", str(tmp_path / "posts.csv"), "--out", str(tmp_path / "s.csv")]) == 0
    assert run(["merge", "--prices", str(tmp_path / "log.csv"), "--sentiment", str(tmp_path / "s.csv"),
                "--bucket-s", "60", "--out", str(tmp_path / "m.csv")]) == 0
    merged = MergedSeries.from_csv(tmp_path / "m.csv")
    assert len(merged) == generate.bucket_count(ticks[:500], 60)
    generate.merged_csv(tmp_path / "long.csv", 1, n=50)
    long = MergedSeries.from_csv(tmp_path / "long.csv")
    assert len(long) == 50 and (abs(long.sentiment) <= 1.0).all()


def test_posts_mix_every_token_kind(tmp_path):
    generate.posts_csv(tmp_path / "posts.csv", 0, 0, 1000, n=300)
    text = (tmp_path / "posts.csv").read_text("utf-8")
    for marker in ("https://", "#", "@user", "ooo", " the ", "bitcoin"):
        assert marker in text
    assert any(word in text for word in generate.LEXICON_WORDS)
