from __future__ import annotations

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcforecast import BLAS_THREAD_VARS, arima, cli, lstm
from btcforecast.arima import ArimaOrder
from btcforecast.cli import build_parser, run, run_comparison
from btcforecast.dataset import PRICE_AND_SENTIMENT, PRICE_ONLY, MergedSeries, fill_missing
from btcforecast.lstm import LstmConfig
from btcforecast.synthetic import sine_series

REPO_ROOT = Path(__file__).resolve().parents[1]
FAST_LSTM = ["--epochs", "8", "--hidden", "6", "--lag", "2"]


@pytest.fixture()
def small_sine(tmp_path) -> Path:
    path = tmp_path / "sine.csv"
    sine_series(n=120, period=24).to_csv(path)
    return path


def _evaluate(tmp_path, small_sine, out_name, extra=()):
    out_dir = tmp_path / out_name
    code = run(
        ["evaluate", "--data", str(small_sine), "--seed", "7", "--out-dir", str(out_dir)]
        + FAST_LSTM
        + ["--order", "4,1,0", *extra]
    )
    assert code == 0
    return out_dir


class TestParserDefaults:
    def test_flag_defaults_match_module_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.hidden == 32
        assert args.lag == 1
        assert args.epochs == 200
        assert args.learning_rate == 0.01
        assert args.seed == 0
        assert args.train_fraction == 0.7
        assert args.order == "10,1,0"
        assert args.refit == "always"
        args = build_parser().parse_args(["merge", "--prices", "p", "--out", "o"])
        assert args.bucket_s == 86400

    def test_help_lists_defaults(self, capsys):
        for sub in ("train-lstm", "train-arima", "evaluate", "merge"):
            with pytest.raises(SystemExit) as exc:
                run([sub, "--help"])
            assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for needle in ("default: 0.01", "default: 200", "default: 32", "default: 10,1,0", "default: 86400"):
            assert needle in help_text

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("polls", ["0", "-3"])
    def test_max_polls_below_1_exits_2_before_any_log(self, tmp_path, polls, capsys):
        config = tmp_path / "sources.json"
        config.write_text(json.dumps([_SOURCE]), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run(["ingest", "--config", str(config), "--out-dir", str(tmp_path / "logs"), "--max-polls", polls])
        assert exc.value.code == 2
        assert "--max-polls" in capsys.readouterr().err
        assert not (tmp_path / "logs").exists()

    def test_readme_commands_parse(self):
        """Every `btcforecast ...` command in README.md parses, so a removed
        subcommand or flag cannot stay behind in the docs."""
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8").replace("\\\n", " ")
        commands = [shlex.split(line, comments=True)[1:]
                    for line in text.splitlines() if line.startswith("btcforecast ")]
        assert commands
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: btcforecast {shlex.join(argv)}")


def _assert_one_line_error(capfd, code, *names):
    out, err = capfd.readouterr()
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    for name in names:
        assert name in err
    assert "Traceback" not in out + err
    return out


# a valid ingest source; nothing listens on port 1
_SOURCE = {"name": "a", "base_url": "http://127.0.0.1:1/", "schema": "bitstamp_ticker"}


class TestErrorPaths:
    def test_missing_input_exits_1_with_path(self, tmp_path, capsys):
        code = run(["train-lstm", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_bad_order_exits_1(self, small_sine, tmp_path, capfd):
        for order in ("1,2", "a,1,0", "1,,0"):
            code = run(
                ["train-arima", "--data", str(small_sine), "--order", order, "--out-dir", str(tmp_path)]
            )
            _assert_one_line_error(capfd, code, repr(order))

    @staticmethod
    def _set_field(merged: Path, out: Path, column: int, value: str) -> Path:
        """A copy of a merged CSV with one field of line 51 replaced."""
        lines = merged.read_text().splitlines()
        fields = lines[50].split(",")
        fields[column] = value
        lines[50] = ",".join(fields)
        out.write_text("\n".join(lines) + "\n")
        return out

    def test_infinite_price_exits_1_without_lapack_noise(self, small_sine, tmp_path, capfd):
        bad = self._set_field(small_sine, tmp_path / "inf.csv", 1, "inf")
        code = run(["train-arima", "--data", str(bad), "--out-dir", str(tmp_path / "out")])
        out, err = capfd.readouterr()
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "inf.csv" in err
        assert "DLASCL" not in out + err

    def test_posts_without_source_column_exits_1(self, tmp_path, capfd):
        posts = tmp_path / "posts.csv"
        posts.write_text('timestamp,text\n1,"btc to the moon"\n')
        code = run(["sentiment", "--posts", str(posts), "--out", str(tmp_path / "s.csv")])
        out, err = capfd.readouterr()
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "posts.csv" in err and "'source'" in err
        assert "Traceback" not in out + err

    def test_ingest_on_torn_log_exits_1(self, tmp_path, replay_server, bitstamp_payload, capfd):
        from btcforecast.ingest import BITSTAMP_TICKER, RecordLog, parse_payload

        out_dir = tmp_path / "logs"
        out_dir.mkdir()
        tick = parse_payload(BITSTAMP_TICKER, bitstamp_payload)
        with RecordLog(out_dir / "bitstamp.csv", BITSTAMP_TICKER) as log:
            for i in range(4):
                log.append(tick | {"timestamp": tick["timestamp"] + 60 * i})
        # a crash mid-append left a partial record on line 6
        with open(out_dir / "bitstamp.csv", "a", encoding="utf-8") as f:
            f.write("6542.61,6502.61,15000")
        config = tmp_path / "sources.json"
        config.write_text(json.dumps([{
            "name": "bitstamp", "base_url": replay_server.url_for(BITSTAMP_TICKER),
            "poll_interval_s": 0.01, "schema": BITSTAMP_TICKER,
        }]), encoding="utf-8")
        code = run(["ingest", "--config", str(config), "--out-dir", str(out_dir), "--max-polls", "1"])
        out = _assert_one_line_error(capfd, code, "bitstamp.csv:6:")
        assert "records appended" not in out

    def test_posts_row_missing_a_field_exits_1(self, tmp_path, capfd):
        posts = tmp_path / "posts.csv"
        posts.write_text('timestamp,source,text\n1,twitter\n')
        code = run(["sentiment", "--posts", str(posts), "--out", str(tmp_path / "s.csv")])
        _assert_one_line_error(capfd, code, "posts.csv:2:")

    def test_posts_timestamp_past_64_bits_names_file_and_line(self, tmp_path, capfd):
        """merge refuses such a time in the sentiment log, so sentiment
        refuses it where it reads the post; the least int64 still scores."""
        posts = tmp_path / "posts.csv"
        posts.write_text(f'timestamp,source,text\n{-(2**63)},twitter,"btc up"\n99999999999999999999999,twitter,"btc up"\n')
        code = run(["sentiment", "--posts", str(posts), "--out", str(tmp_path / "s.csv")])
        _assert_one_line_error(capfd, code, "posts.csv:3:", "'timestamp'", "64-bit")
        assert not (tmp_path / "s.csv").exists()  # no post is written before every post has parsed
        posts.write_text(f'timestamp,source,text\n{-(2**63)},twitter,"btc up"\n')
        assert run(["sentiment", "--posts", str(posts), "--out", str(tmp_path / "s.csv")]) == 0

    def test_negative_seed_names_the_seed(self, small_sine, tmp_path, capfd):
        code = run(["train-lstm", "--data", str(small_sine), "--seed", "-1",
                    "--out-dir", str(tmp_path / "out"), *FAST_LSTM])
        _assert_one_line_error(capfd, code, "seed must be >= 0, got -1")

    def test_sentiment_log_without_polarity_exits_1(self, tmp_path, small_sine, capfd):
        sent = tmp_path / "sent.csv"
        sent.write_text("timestamp,label\n1,Positive\n")
        code = run(["merge", "--prices", str(small_sine), "--sentiment", str(sent),
                    "--out", str(tmp_path / "m.csv")])
        _assert_one_line_error(capfd, code, "sent.csv", "'polarity'")

    def test_sentiment_log_polarity_outside_unit_range_exits_1(self, tmp_path, small_sine, capfd):
        # the bucket mean of 1.5 and -0.5 would lie in [-1, 1]
        sent = tmp_path / "sent.csv"
        sent.write_text("timestamp,polarity,label\n1,1.5,Positive\n2,-0.5,Negative\n")
        code = run(["merge", "--prices", str(small_sine), "--sentiment", str(sent),
                    "--out", str(tmp_path / "m.csv")])
        _assert_one_line_error(capfd, code, "sent.csv:2:", "'polarity'")

    def test_price_row_missing_a_field_exits_1(self, tmp_path, capfd):
        prices = tmp_path / "prices.csv"
        prices.write_text("time,price\n1\n")
        code = run(["merge", "--prices", str(prices), "--out", str(tmp_path / "m.csv")])
        _assert_one_line_error(capfd, code, "prices.csv:2:")

    def test_unparseable_price_names_line_and_column(self, tmp_path, capfd):
        prices = tmp_path / "prices.csv"
        prices.write_text("time,price\n60,100.5\n120,abc\n")
        code = run(["merge", "--prices", str(prices), "--out", str(tmp_path / "m.csv")])
        _assert_one_line_error(capfd, code, "prices.csv:3:", "'price'")

    def test_sentiment_outside_unit_range_exits_1(self, small_sine, tmp_path, capfd):
        bad = self._set_field(small_sine, tmp_path / "sent3.csv", 2, "3.0")
        code = run(["train-arima", "--data", str(bad), "--out-dir", str(tmp_path / "out")])
        _assert_one_line_error(capfd, code, "sent3.csv", "[-1, 1]")

    @pytest.mark.parametrize(
        "row, column",
        [("120,inf", "'price'"), ("120,0", "'price'"), ("120,-5", "'price'"), ("1" + "0" * 24 + ",100.5", "'time'")],
    )
    def test_bad_price_row_names_file_line_and_column(self, tmp_path, row, column, capfd):
        prices = tmp_path / "prices.csv"
        prices.write_text(f"time,price\n60,100.5\n{row}\n")
        code = run(["merge", "--prices", str(prices), "--out", str(tmp_path / "m.csv")])
        _assert_one_line_error(capfd, code, "prices.csv:3:", column)

    @pytest.mark.parametrize("cycle", [("120", "-101", "0.0"), ("120", "nan")])
    def test_bad_merged_price_names_file_and_line(self, tmp_path, cycle, capfd):
        """A merged file takes the price rule of a price stream; only an
        empty field is a gap."""
        merged = tmp_path / "merged.csv"
        prices = (cycle * 60)[:60]
        merged.write_text("time,price,sentiment\n" + "".join(f"{60 * (i + 1)},{p},0.0\n" for i, p in enumerate(prices)))
        code = run(["train-arima", "--data", str(merged), "--order", "1,1,0", "--out-dir", str(tmp_path / "out")])
        _assert_one_line_error(capfd, code, "merged.csv:3:", "'price'", "finite and > 0")

    @pytest.mark.parametrize("header", ["time,price", "timestamp,last"])
    def test_price_time_going_back_names_file_and_line(self, tmp_path, header, capfd):
        prices = tmp_path / "prices.csv"
        prices.write_text(f"{header}\n100,1.0\n200,2.0\n200,2.5\n150,3.0\n")
        code = run(["merge", "--prices", str(prices), "--out", str(tmp_path / "m.csv")])
        _assert_one_line_error(capfd, code, "prices.csv:5:", "price input must be time-ordered")

    def test_sentiment_time_going_back_names_file_and_line(self, tmp_path, capfd):
        prices, log = tmp_path / "prices.csv", tmp_path / "sent.csv"
        prices.write_text("time,price\n100,1.0\n300,2.0\n")
        log.write_text("timestamp,polarity,label\n100,0.5,Positive\n300,0.0,Neutral\n200,-0.5,Negative\n")
        code = run(["merge", "--prices", str(prices), "--sentiment", str(log), "--out", str(tmp_path / "m.csv")])
        _assert_one_line_error(capfd, code, "sent.csv:4: sentiment input must be time-ordered (200 after 300)")

    def test_timestamp_past_64_bits_names_line(self, small_sine, tmp_path, capfd):
        bad = self._set_field(small_sine, tmp_path / "big.csv", 0, "9" * 25)
        code = run(["train-arima", "--data", str(bad), "--out-dir", str(tmp_path / "out")])
        _assert_one_line_error(capfd, code, "big.csv:51:", "'time'", "64-bit")

    @pytest.mark.parametrize("command", ["train-arima", "train-lstm", "evaluate"])
    @pytest.mark.parametrize("fraction", ["1e308", "nan", "-0.5", "0", "1.0"])
    def test_train_fraction_outside_unit_interval_exits_1(self, small_sine, tmp_path, command, fraction, capfd):
        code = run([command, "--data", str(small_sine), "--train-fraction", fraction,
                    "--out-dir", str(tmp_path / "out"), *([] if command == "train-arima" else FAST_LSTM)])
        _assert_one_line_error(capfd, code, "train_fraction")

    # on small_sine (120 rows), 0.005 leaves no training row and
    # 0.999999999999 no test row: the 1e-9 of the rounding lifts 119.99... to 120
    @pytest.mark.parametrize("command", ["train-arima", "train-lstm", "evaluate"])
    @pytest.mark.parametrize("fraction", ["0.005", "0.999999999999"])
    def test_train_fraction_leaving_a_side_empty_exits_1(self, small_sine, tmp_path, command, fraction, capfd):
        code = run([command, "--data", str(small_sine), "--train-fraction", fraction,
                    "--out-dir", str(tmp_path / "out"), *([] if command == "train-arima" else FAST_LSTM)])
        _assert_one_line_error(capfd, code, f"train_fraction {fraction} splits")

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_learning_rate_exits_1(self, small_sine, tmp_path, rate, capfd):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train-lstm", "--data", str(small_sine), "--learning-rate", rate,
                        "--out-dir", str(tmp_path / "out"), *FAST_LSTM])
        _assert_one_line_error(capfd, code, "learning_rate")
        assert [str(w.message) for w in caught] == []

    def test_last_step_that_overflows_the_forecast_exits_1(self, small_sine, tmp_path, capfd):
        """One Adam step at a rate of 1e308 leaves the parameters finite, near
        the float limit, but the forecast overflows: no result is written."""
        out_dir = tmp_path / "out"
        code = run(["evaluate", "--data", str(small_sine), "--epochs", "1", "--hidden", "6", "--lag", "2",
                    "--learning-rate", "1e308", "--out-dir", str(out_dir)])
        _assert_one_line_error(capfd, code, "non-finite forecast")
        assert not (out_dir / "metrics.csv").exists()

    @pytest.mark.parametrize("config, where", [
        (_SOURCE, "cfg.json: expected a JSON list"),
        ([1], "cfg.json: entry 0:"),
        ([{"name": "a", "schema": "bitstamp_ticker"}], "cfg.json: entry 0: 'base_url'"),
        ([dict(_SOURCE, poll_interval_s="often")], "cfg.json: entry 0: 'poll_interval_s'"),
        ([dict(_SOURCE, poll_interval_s=10**400)], "cfg.json: entry 0: 'poll_interval_s'"),
        ([dict(_SOURCE, poll_interval_s=math.nan)], "cfg.json: entry 0: poll_interval"),
        ([dict(_SOURCE, poll_interval_s=math.inf)], "cfg.json: entry 0: poll_interval"),
        ([_SOURCE, _SOURCE], "cfg.json: entry 1: duplicate name"),
        ([dict(_SOURCE, name="../a")], "cfg.json: entry 0: 'name'"),  # would write outside --out-dir
        ([dict(_SOURCE, poll_interval_s=True)], "cfg.json: entry 0: 'poll_interval_s'"),  # not 1 s
    ])
    def test_malformed_ingest_config_names_file_and_entry(self, tmp_path, config, where, capfd):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = run(["ingest", "--config", str(path), "--out-dir", str(tmp_path / "logs"), "--max-polls", "1"])
        _assert_one_line_error(capfd, code, where)

    def test_deeply_nested_ingest_config_exits_1(self, tmp_path, capfd):
        path = tmp_path / "cfg.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code = run(["ingest", "--config", str(path), "--out-dir", str(tmp_path / "logs"), "--max-polls", "1"])
        _assert_one_line_error(capfd, code, "cfg.json: ")

    @pytest.mark.parametrize("bad_body", [
        lambda payload: json.dumps(payload | {"last": 10**400}).encode("utf-8"),  # past the float range
        lambda payload: b"[" * 100_000,  # nested past the recursion limit
        lambda payload: json.dumps(payload | {"timestamp": "1e30"}).encode("utf-8"),  # past 64 bits
        lambda payload: json.dumps(payload | {"datetime": "2018-09-21\r10:43:00"}).encode("utf-8"),
        lambda payload: json.dumps(payload | {"datetime": "\ud800"}).encode("utf-8"),  # a lone surrogate
        lambda payload: json.dumps(payload | {"datetime": {"a": 1}}).encode("utf-8"),
    ], ids=["huge-integer", "deep-nesting", "timestamp-1e30", "text-cr", "text-surrogate", "text-object"])
    def test_ingest_skips_a_bad_payload(self, tmp_path, bitstamp_payload, bad_body, capfd):
        """A poll whose payload fails is logged and skipped: the loop goes
        on, exit 0, and the count line is printed."""
        from btcforecast.ingest import BITSTAMP_TICKER, RecordLog, client, parse_payload

        bodies = iter([bad_body(bitstamp_payload), json.dumps(bitstamp_payload).encode("utf-8")])
        config = tmp_path / "sources.json"
        config.write_text(json.dumps([dict(_SOURCE, name="bitstamp", poll_interval_s=0.01)]), encoding="utf-8")
        with mock.patch.object(client.urllib.request, "urlopen", lambda url, timeout: io.BytesIO(next(bodies))):
            code = run(["ingest", "--config", str(config), "--out-dir", str(tmp_path), "--max-polls", "2"])
        out, err = capfd.readouterr()
        assert code == 0 and err == "", err
        assert out == "bitstamp: 1 records appended\n"
        with RecordLog(tmp_path / "bitstamp.csv", BITSTAMP_TICKER) as log:
            assert log.read() == [parse_payload(BITSTAMP_TICKER, bitstamp_payload)]

    def test_failed_sink_write_stops_ingest_with_exit_1(self, tmp_path, replay_server, monkeypatch, capfd):
        """A poller that raises what poll calls fatal stops every poller;
        ingest exits 1 with one line naming the source."""
        from btcforecast.ingest import BITSTAMP_TICKER, MARKETCAP_SNAPSHOT, RecordLog

        append = RecordLog.append

        def full_disk(self, record):
            if self.path.name == "a.csv":
                raise OSError(28, "No space left on device")
            append(self, record)

        monkeypatch.setattr(RecordLog, "append", full_disk)
        config = tmp_path / "sources.json"
        config.write_text(json.dumps([
            {"name": "a", "base_url": replay_server.url_for(BITSTAMP_TICKER), "schema": BITSTAMP_TICKER,
             "poll_interval_s": 0.01},
            # without the stop, this poller would run for 10 s
            {"name": "b", "base_url": replay_server.url_for(MARKETCAP_SNAPSHOT), "schema": MARKETCAP_SNAPSHOT,
             "poll_interval_s": 0.01},
        ]), encoding="utf-8")
        code = run(["ingest", "--config", str(config), "--out-dir", str(tmp_path / "logs"), "--max-polls", "1000"])
        out = _assert_one_line_error(capfd, code, "error: a: ", "No space left on device")
        assert "records appended" not in out

    @pytest.mark.parametrize("line, where", [
        (b"bad", "lex.csv:2:"), (b"bad,x", "lex.csv:2:"), (b",0.5", "lex.csv:2:"), (b"Bad,0.5", "lex.csv:2:"),
        (b"bad,1.5", "lex.csv:2:"), (b"bad,nan", "lex.csv:2:"), (b"b\xffd,-0.5", "lex.csv: 'utf-8'"),
        # a repeated key once kept its last weight: "good good" scored Negative
        (b"good,-0.5", "lex.csv:2: repeated lexicon key 'good' (first on line 1)"),
    ])
    def test_bad_lexicon_line_names_file_and_line(self, tmp_path, fixtures_dir, line, where, capfd):
        lexicon = tmp_path / "lex.csv"
        lexicon.write_bytes(b"good,0.5\n" + line + b"\n")
        code = run(["sentiment", "--posts", str(fixtures_dir / "posts.csv"), "--lexicon", str(lexicon),
                    "--out", str(tmp_path / "s.csv")])
        _assert_one_line_error(capfd, code, where)

    def test_lexicon_with_a_byte_order_mark_exits_1(self, tmp_path, fixtures_dir, capfd):
        """A BOM sticks to the first key, which no post could then match."""
        lexicon = tmp_path / "lex.csv"
        lexicon.write_bytes(b"\xef\xbb\xbfgood,0.5\nbad,-0.5\n")
        code = run(["sentiment", "--posts", str(fixtures_dir / "posts.csv"), "--lexicon", str(lexicon),
                    "--out", str(tmp_path / "s.csv")])
        _assert_one_line_error(capfd, code, "lex.csv:1:", repr("\ufeffgood"))
        assert not (tmp_path / "s.csv").exists()


class TestPipelineCommands:
    def test_sentiment_command(self, tmp_path, fixtures_dir, capsys):
        out = tmp_path / "sent.csv"
        code = run(["sentiment", "--posts", str(fixtures_dir / "posts.csv"), "--out", str(out)])
        assert code == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 8
        assert {r["label"] for r in rows} <= {"Positive", "Negative", "Neutral"}
        assert "scored" in capsys.readouterr().out

    def test_merge_command_from_record_log(self, tmp_path, fixtures_dir, capsys):
        # build a tiny record log from the fixture payloads, then merge with
        # a sentiment log
        from btcforecast.ingest import BITSTAMP_TICKER, RecordLog, parse_payload

        log_path = tmp_path / "ticks.csv"
        with RecordLog(log_path, BITSTAMP_TICKER) as log:
            for i in range(3):
                payload = json.loads(
                    (fixtures_dir / "bitstamp_ticker" / f"{i:03d}.json").read_text()
                )
                log.append(parse_payload(BITSTAMP_TICKER, payload))
        sent = tmp_path / "sent.csv"
        run(["sentiment", "--posts", str(fixtures_dir / "posts.csv"), "--out", str(sent)])
        merged = tmp_path / "merged.csv"
        code = run(
            ["merge", "--prices", str(log_path), "--sentiment", str(sent),
             "--bucket-s", "60", "--out", str(merged)]
        )
        assert code == 0
        series = MergedSeries.from_csv(merged)
        assert len(series) == 3
        assert (series.sentiment != 0).any()

    def test_newest_first_posts_merge_as_the_ordered_file(self, tmp_path, fixtures_dir):
        # tweet exports list the newest post first; the log is written in
        # time order all the same, which merge requires
        header, *posts = (fixtures_dir / "posts.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        newest_first = tmp_path / "newest_first.csv"
        newest_first.write_text(header + "".join(reversed(posts)), encoding="utf-8")
        prices = tmp_path / "prices.csv"
        prices.write_text("time,price\n1537528980,1.0\n1537529040,2.0\n1537529100,3.0\n")
        outputs = []
        for name, posts_file in (("ordered", fixtures_dir / "posts.csv"), ("newest_first", newest_first)):
            log, merged = tmp_path / f"sent_{name}.csv", tmp_path / f"merged_{name}.csv"
            assert run(["sentiment", "--posts", str(posts_file), "--out", str(log)]) == 0
            assert run(["merge", "--prices", str(prices), "--sentiment", str(log),
                        "--bucket-s", "60", "--out", str(merged)]) == 0
            outputs.append((log.read_bytes(), merged.read_bytes()))
        assert outputs[1] == outputs[0]

    def test_train_lstm_writes_outputs(self, tmp_path, small_sine):
        out_dir = tmp_path / "out"
        code = run(["train-lstm", "--data", str(small_sine), "--out-dir", str(out_dir), *FAST_LSTM])
        assert code == 0
        assert (out_dir / "forecast_lstm_single.csv").exists()
        assert (out_dir / "loss_lstm_single.csv").exists()

    def test_train_arima_names_default_order(self, tmp_path, small_sine, capsys):
        code = run(
            ["train-arima", "--data", str(small_sine), "--order", "10,1,0",
             "--out-dir", str(tmp_path / "out")]
        )
        assert code == 0
        assert "arima(10,1,0)" in capsys.readouterr().out
        assert (tmp_path / "out" / "forecast_arima(10,1,0).csv").exists()

    def test_ingest_command(self, tmp_path, replay_server, capsys):
        config = [
            {
                "name": "bitstamp",
                "base_url": replay_server.url_for("bitstamp_ticker"),
                "poll_interval_s": 0.01,
                "schema": "bitstamp_ticker",
            }
        ]
        cfg_path = tmp_path / "sources.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "logs"
        code = run(["ingest", "--config", str(cfg_path), "--out-dir", str(out_dir), "--max-polls", "3"])
        assert code == 0
        assert "bitstamp: 3 records appended" in capsys.readouterr().out
        assert (out_dir / "bitstamp.csv").exists()



class TestEvaluate:
    def test_emits_all_artifacts(self, tmp_path, small_sine, capsys):
        out_dir = _evaluate(tmp_path, small_sine, "out")
        expected = [
            "normalized.csv",
            "forecast_lstm_single.csv",
            "forecast_lstm_multi.csv",
            "forecast_arima(4,1,0).csv",
            "forecast_naive_last_value.csv",
            "loss_lstm_single.csv",
            "loss_lstm_multi.csv",
            "metrics.csv",
            "comparison.csv",
            "comparison.txt",
        ]
        for name in expected:
            assert (out_dir / name).exists(), name
        stdout = capsys.readouterr().out
        assert "rmse" in stdout and "lstm_single" in stdout

    def test_comparison_contains_timings(self, tmp_path, small_sine):
        out_dir = _evaluate(tmp_path, small_sine, "out")
        with open(out_dir / "comparison.csv", newline="") as f:
            rows = {r["model"]: r for r in csv.DictReader(f)}
        for model in ("lstm_single", "lstm_multi", "arima(4,1,0)"):
            assert float(rows[model]["train_or_fit_time_ms"]) > 0.0

    def test_deterministic_reports(self, tmp_path, small_sine):
        """Same seed, same data -> byte-identical deterministic artifacts."""
        first = _evaluate(tmp_path, small_sine, "a")
        second = _evaluate(tmp_path, small_sine, "b")
        for name in (
            "metrics.csv",
            "normalized.csv",
            "forecast_lstm_single.csv",
            "forecast_lstm_multi.csv",
            "forecast_arima(4,1,0).csv",
            "forecast_naive_last_value.csv",
            "loss_lstm_single.csv",
            "loss_lstm_multi.csv",
        ):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


class TestOnePath:
    """evaluate, train-lstm, train-arima and demo 06 build their reports
    through cli.run_comparison and its parts."""

    def test_model_commands_write_what_evaluate_writes(self, tmp_path, small_sine):
        evaluated = _evaluate(tmp_path, small_sine, "eval")
        lstm_dir, arima_dir = tmp_path / "lstm", tmp_path / "arima"
        assert run(["train-lstm", "--data", str(small_sine), "--seed", "7", *FAST_LSTM,
                    "--features", "price_and_sentiment", "--out-dir", str(lstm_dir)]) == 0
        assert run(["train-arima", "--data", str(small_sine), "--order", "4,1,0",
                    "--out-dir", str(arima_dir)]) == 0
        written = [lstm_dir / "forecast_lstm_multi.csv", lstm_dir / "loss_lstm_multi.csv",
                   arima_dir / "forecast_arima(4,1,0).csv"]
        assert sorted(lstm_dir.iterdir()) + sorted(arima_dir.iterdir()) == written
        for path in written:
            assert path.read_bytes() == (evaluated / path.name).read_bytes(), path.name

    def test_run_comparison_gives_the_rmses_in_metrics(self, tmp_path, small_sine):
        evaluated = _evaluate(tmp_path, small_sine, "eval")
        with open(evaluated / "metrics.csv", newline="") as f:
            expected = {row["model"]: row["rmse"] for row in csv.DictReader(f)}
        series = fill_missing(MergedSeries.from_csv(small_sine))
        config = LstmConfig(hidden_size=6, lag=2, epochs=8, seed=7)
        reports = run_comparison(series, config, ArimaOrder(4, 1, 0))
        assert {r.model_name: repr(r.rmse) for r in reports} == expected

    def test_demo_06_prints_the_comparison(self):
        proc = _run_demo("06_model_comparison")
        assert proc.returncode == 0, proc.stderr
        for model, rmse in (("lstm_multi", "68.382784"), ("naive_last_value", "120.000000"),
                            ("arima(10,1,0)", "121.080060"), ("lstm_single", "176.692302")):
            assert re.search(rf"^{re.escape(model)} +{rmse} ", proc.stdout, re.M), model
        assert "cuts test RMSE by 61%" in proc.stdout
        # the demo prints this line before the worker forks, into a pipe's
        # buffer; the worker must not flush its copy of that buffer
        assert proc.stdout.count("sentiment leaks the sign") == 1


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


needs_two_cpus = pytest.mark.skipif(not hasattr(os, "fork") or _cpus() < 2, reason="needs fork and two CPUs")


def _comparison(small_sine) -> list:
    series = fill_missing(MergedSeries.from_csv(small_sine))
    return run_comparison(series, LstmConfig(hidden_size=6, lag=2, epochs=8, seed=7), ArimaOrder(4, 1, 0))


def _in_the_worker(monkeypatch, act) -> None:
    """Patch lstm.train to call act() first when it runs in a process other
    than this one, as the comparison's worker does."""
    parent, original = os.getpid(), lstm.train

    def train(config, dataset):
        if os.getpid() != parent:
            act()
        return original(config, dataset)

    monkeypatch.setattr(lstm, "train", train)


@pytest.fixture()
def report_pids(monkeypatch, tmp_path):
    """Patch cli.lstm_report to log the pid of the process that runs it, per
    feature mode. Returns a function that reads and clears the log."""
    log = tmp_path / "pids.txt"
    log.touch()
    original = cli.lstm_report

    def logged(series, features, *args):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{features} {os.getpid()}\n")
        return original(series, features, *args)

    def read() -> dict[str, int]:
        pids = {features: int(pid) for features, pid in map(str.split, log.read_text("utf-8").splitlines())}
        log.write_text("", encoding="utf-8")
        return pids

    monkeypatch.setattr(cli, "lstm_report", logged)
    return read


@pytest.fixture()
def a_live_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    yield
    stop.set()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestComparisonWorker:
    """run_comparison trains the multi-feature LSTM in a forked worker
    process when two CPUs are free, and in sequence otherwise."""

    @needs_two_cpus
    def test_the_multi_feature_lstm_trains_in_another_process(self, small_sine, report_pids):
        assert cli._can_fork()
        _comparison(small_sine)
        pids = report_pids()
        assert pids[PRICE_ONLY] == os.getpid() != pids[PRICE_AND_SENTIMENT]

    @pytest.mark.parametrize("condition", ["one_cpu", "a_live_thread", "blas_not_pinned"])
    def test_otherwise_the_same_reports_are_computed_in_sequence(
        self, small_sine, report_pids, monkeypatch, request, condition
    ):
        forked = _comparison(small_sine)
        report_pids()
        if condition == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif condition == "blas_not_pinned":
            monkeypatch.setattr(cli, "BLAS_PINNED", False)
        else:
            request.getfixturevalue(condition)
        assert not cli._can_fork()
        in_sequence = _comparison(small_sine)
        assert set(report_pids().values()) == {os.getpid()}
        assert [r.model_name for r in forked] == [r.model_name for r in in_sequence]
        for a, b in zip(forked, in_sequence):
            for name in ("times", "actual", "predicted"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (a.model_name, name)
            assert (repr(a.mse), a.losses) == (repr(b.mse), b.losses), a.model_name

    @needs_two_cpus
    def test_a_worker_error_keeps_its_type_and_exits_1_with_one_line(self, monkeypatch, small_sine, tmp_path,
                                                                      capfd):
        def diverge():
            raise lstm.TrainingDiverged("non-finite loss in the worker")

        _in_the_worker(monkeypatch, diverge)
        with pytest.raises(lstm.TrainingDiverged, match="in the worker"):
            _comparison(small_sine)
        code = run(["evaluate", "--data", str(small_sine), "--out-dir", str(tmp_path / "out"), *FAST_LSTM])
        _assert_one_line_error(capfd, code, "error: non-finite loss in the worker")

    @needs_two_cpus
    def test_a_killed_worker_exits_1_with_one_line(self, monkeypatch, small_sine, tmp_path, capfd):
        assert cli._can_fork()  # else the kill below would hit this process
        _in_the_worker(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        code = run(["evaluate", "--data", str(small_sine), "--out-dir", str(tmp_path / "out"), *FAST_LSTM])
        _assert_one_line_error(capfd, code, f"without a result (killed by signal {int(signal.SIGKILL)})")

    @needs_two_cpus
    @pytest.mark.parametrize("error", [arima.ArimaFitError("no fit"), KeyboardInterrupt()])
    def test_an_error_in_the_parent_kills_and_reaps_the_worker(self, monkeypatch, small_sine, tmp_path, capfd,
                                                                 error):
        _in_the_worker(monkeypatch, lambda: time.sleep(60))

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(arima, "rolling_forecast", fail)
        argv = ["evaluate", "--data", str(small_sine), "--out-dir", str(tmp_path / "out"), *FAST_LSTM]
        t0 = time.monotonic()
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                run(argv)
        else:
            _assert_one_line_error(capfd, run(argv), "error: no fit")
        assert time.monotonic() - t0 < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_worker_keeps_the_errstate(self, small_sine, tmp_path, capfd):
        # a learning rate of 1e30 saturates the gates: exp overflows, which
        # lstm_report silences in whichever process trains
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["evaluate", "--data", str(small_sine), "--out-dir", str(tmp_path / "out"),
                        "--learning-rate", "1e30", *FAST_LSTM])
        assert code == 0
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("command", ["train-lstm", "evaluate"])
    def test_an_allocation_too_large_exits_1_with_one_line(self, monkeypatch, small_sine, tmp_path, capfd,
                                                           command):
        # in evaluate the multi-feature model trains in the worker
        original = lstm.init

        def init(config):
            if config.n_features == 2:
                raise MemoryError()
            return original(config)

        monkeypatch.setattr(lstm, "init", init)
        argv = [command, "--data", str(small_sine), "--out-dir", str(tmp_path / "out"), *FAST_LSTM]
        if command == "train-lstm":
            argv += ["--features", PRICE_AND_SENTIMENT]
        _assert_one_line_error(capfd, run(argv), "error: MemoryError")


class TestForkDecision:
    """The comparison forks only where btcforecast could pin BLAS to one
    thread: imported before numpy, with no other count set."""

    @staticmethod
    def _can_fork(before: str, **env) -> bool:
        child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        child_env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"),
                                                   *filter(None, [os.environ.get("PYTHONPATH")])])
        proc = subprocess.run(
            [sys.executable, "-c", f"{before}import btcforecast.cli as m; print(m._can_fork())"],
            env={**child_env, **env}, capture_output=True, text=True, timeout=60, check=True,
        )
        return {"True\n": True, "False\n": False}[proc.stdout]

    def test_btcforecast_imported_first_forks_with_two_cpus(self):
        assert self._can_fork("") == (hasattr(os, "fork") and _cpus() >= 2)

    def test_numpy_imported_first_does_not_fork(self):
        assert not self._can_fork("import numpy; ")

    def test_a_blas_thread_count_set_by_the_caller_does_not_fork(self):
        assert not self._can_fork("", OPENBLAS_NUM_THREADS="2")


def _loaded_after(code: str, names: tuple[str, ...]) -> str:
    """The last line a fresh interpreter prints after running code: the
    list of the modules in names that it then holds."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"),
                                                        *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint([m for m in {names!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout.splitlines()[-1]


def test_importing_the_cli_loads_no_ingest_or_network_module():
    """Only the ingest command needs the ingest package and the urllib, http
    and ssl modules it pulls in; the CLI imports them in that command."""
    names = ("btcforecast.ingest", "urllib.request", "http.client", "ssl")
    assert _loaded_after("import btcforecast.cli", names) == "[]"


@pytest.mark.parametrize("command", ["train-lstm", "evaluate"])
def test_training_an_lstm_loads_no_numpy_random(small_sine, tmp_path, command):
    """lstm.init draws its seeded weights in pure Python, so a command that
    trains an LSTM never imports numpy.random."""
    argv = [command, "--data", str(small_sine), "--out-dir", str(tmp_path / "out"), *FAST_LSTM]
    code = f"from btcforecast.cli import run\nassert run({argv!r}) == 0"
    assert _loaded_after(code, ("numpy.random",)) == "[]"


def _run_demo(name: str) -> subprocess.CompletedProcess:
    pythonpath = [str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    # without PYTHONUNBUFFERED, stdout to the pipe is block-buffered, as it is
    # when a user pipes a demo's output
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / f"{name}.py")],
        capture_output=True, text=True, timeout=120,
        env=dict(env, PYTHONPATH=os.pathsep.join(pythonpath)),
    )


@pytest.mark.parametrize("demo", ["01_ingest_replay", "02_sentiment_pipeline", "03_merge_and_frame",
                                  "05_arima_rolling"])
def test_demo_runs(demo):
    """Each cheap demo runs to the end (04 trains for seconds; 06 has its
    own test above)."""
    proc = _run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def _perfbench_spans():
    """perfbench/spans.py, imported by path: it is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTraceGuard:
    """The benchmark's tracer wraps module attributes; a refactor that calls
    a layer through another name would make its per-layer metric read 0."""

    @staticmethod
    def _trace(*argvs) -> dict[str, list[tuple[bool, dict | None]]]:
        """Run each argv through cli.run under the benchmark's tracer; for
        each span name, whether each of its spans sits under a cli.run span,
        and the attributes it carries."""
        spans = _perfbench_spans()
        tracer = spans.Tracer()
        spans.instrument(tracer)
        try:
            codes = [cli.run(argv) for argv in argvs]
        finally:
            tracer.restore()
        assert codes == [0] * len(argvs)
        # each thread keeps its own stack of open spans: a layer called on
        # another thread has no cli.run above it, and the benchmark credits
        # its span to no stage
        by_id = {span[0]: span for span in tracer.spans}

        def under_cli_run(span) -> bool:
            while span[1] is not None:
                span = by_id[span[1]]
                if span[2] == "cli.run":
                    return True
            return False

        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span[2], []).append((under_cli_run(span), span[6]))
        return by_name

    @staticmethod
    def _assert_under_cli_run(by_name, names) -> None:
        for name in names:
            assert by_name.get(name), name
            assert all(under for under, _ in by_name[name]), name

    def test_evaluate_reaches_every_traced_layer(self, tmp_path, small_sine):
        by_name = self._trace(["evaluate", "--data", str(small_sine), "--out-dir", str(tmp_path / "out"),
                               "--order", "4,1,0", *FAST_LSTM])
        self._assert_under_cli_run(by_name, (
            "lstm.train", "lstm.adam_step", "lstm.predict_series", "arima.rolling_forecast",
            "arima.fit", "dataset.to_supervised", "evaluation.emit_plot_data",
        ))

    def test_sentiment_and_merge_reach_every_traced_layer(self, tmp_path):
        # the merge span counts its inputs with len(), so cli must pass lists
        for name in ("posts.csv", "prices.csv"):
            (tmp_path / name).write_bytes(_VALID_INPUTS[name])
        by_name = self._trace(
            ["sentiment", "--posts", str(tmp_path / "posts.csv"), "--out", str(tmp_path / "sent.csv")],
            ["merge", "--prices", str(tmp_path / "prices.csv"), "--sentiment", str(tmp_path / "sent.csv"),
             "--bucket-s", "60", "--out", str(tmp_path / "merged.csv")],
        )
        self._assert_under_cli_run(by_name, (
            "sentiment.read_posts", "sentiment.process_post", "sentiment.write_sentiment_log",
            "sentiment.read_sentiment_log", "dataset.merge",
        ))
        # 3 prices and 2 scored posts in, one row per 60 s price bucket out
        assert [attrs for _, attrs in by_name["dataset.merge"]] == [{"rows_in": 5, "rows_out": 3}]


# Runs the CLI with its argv, on one CPU (argv[1] its number) or on all
# (argv[1] "all"); the CPU set is fixed before btcforecast loads numpy.
_ON_CPUS = """
import os, sys
if sys.argv[1] != "all":
    os.sched_setaffinity(0, {int(sys.argv[1])})
from btcforecast import cli
sys.exit(cli.run(sys.argv[2:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and two CPUs")
def test_lstm_bits_do_not_depend_on_the_cpu_count(tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    one_cpu = str(min(os.sched_getaffinity(0)))
    for cpus in (one_cpu, "all"):
        proc = subprocess.run(
            [sys.executable, "-c", _ON_CPUS, cpus, "evaluate", "--data", str(REPO_ROOT / "fixtures" / "sine.csv"),
             "--seed", "7", "--lag", "10", "--epochs", "30", "--out-dir", str(tmp_path / cpus)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    for name in ("metrics.csv", "forecast_lstm_single.csv", "forecast_lstm_multi.csv",
                 "loss_lstm_single.csv", "loss_lstm_multi.csv"):
        assert (tmp_path / one_cpu / name).read_bytes() == (tmp_path / "all" / name).read_bytes(), name


# Valid inputs of the cheap commands; the fuzz test damages one of them.
_VALID_INPUTS = {
    "prices.csv": b"time,price\n60,100.5\n120,101.0\n180,99.75\n",
    "sent.csv": b"timestamp,polarity,label\n30,0.5,Positive\n90,-0.25,Negative\n150,0.0,Neutral\n",
    "posts.csv": b'timestamp,source,text\n1,twitter,"btc is good"\n2,reddit,"bad day, sell"\n',
    "lexicon.csv": b"good,0.5\nbad,-0.5\n",
    "merged.csv": b"time,price,sentiment\n60,100.5,0.25\n120,,-0.5\n180,101.0,0.0\n240,99.5,0.5\n"
                  b"300,100.25,-0.25\n360,102.0,0.0\n420,101.5,0.75\n480,100.0,-1.0\n540,101.25,0.0\n"
                  b"600,102.5,0.25\n",
}
# (input to damage, argv with paths relative to the input directory)
_FUZZ_CASES = [
    ("prices.csv", ["merge", "--prices", "prices.csv", "--sentiment", "sent.csv", "--bucket-s", "60",
                    "--out", "out.csv"]),
    ("sent.csv", ["merge", "--prices", "prices.csv", "--sentiment", "sent.csv", "--bucket-s", "60",
                  "--out", "out.csv"]),
    ("posts.csv", ["sentiment", "--posts", "posts.csv", "--lexicon", "lexicon.csv", "--out", "out.csv"]),
    ("lexicon.csv", ["sentiment", "--posts", "posts.csv", "--lexicon", "lexicon.csv", "--out", "out.csv"]),
    ("merged.csv", ["train-arima", "--data", "merged.csv", "--order", "1,1,0", "--out-dir", "out"]),
]
# bytes that break CSV structure, encoding or number syntax, and field
# values at or past a boundary (empty, non-finite, overflowing, off range)
_FRAGMENTS = [b"", b",", b"\n", b"\r", b'"', b"\x00", b"\xff", b"\xc3\xa9", b" ", b"-", b"nan", b"inf",
              b"-inf", b"1e999", b"-1e308", b"9" * 25, b"-2", b"1.5", b"0x1", b"1_0"]
_BYTES = st.one_of(st.binary(min_size=1, max_size=4), st.sampled_from(_FRAGMENTS))
_POS = st.integers(0, 200)
_MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("truncate"), _POS),
        st.tuples(st.just("delete"), _POS, st.integers(1, 8)),
        st.tuples(st.just("insert"), _POS, _BYTES),
        st.tuples(st.just("replace"), _POS, _BYTES),
        st.tuples(st.just("field"), _POS, _BYTES),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(data: bytes, mutations) -> bytes:
    for op, pos, *arg in mutations:
        if op == "field":  # replace one comma/newline-separated field
            parts = re.split(rb"([,\n])", data)
            parts[2 * (pos % ((len(parts) + 1) // 2))] = arg[0]
            data = b"".join(parts)
            continue
        pos %= len(data) + 1
        if op == "truncate":
            data = data[:pos]
        elif op == "delete":
            data = data[:pos] + data[pos + arg[0]:]
        elif op == "insert":
            data = data[:pos] + arg[0] + data[pos:]
        else:
            data = data[:pos] + arg[0] + data[pos + len(arg[0]):]
    return data


# edits of the ingest sources config, each to one key of one of its three
# entries: drop the key, set it to a JSON value, or damage the bytes of its
# value's text (breaking the JSON itself is left to the error-path tests)
_CONFIG_KEYS = ("name", "base_url", "poll_interval_s", "schema")
_CONFIG_EDITS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(_CONFIG_KEYS),
        st.one_of(
            st.just(("drop",)),
            st.tuples(st.just("set"), st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                                                st.text(max_size=4), st.lists(st.integers(), max_size=2))),
            st.tuples(st.just("damage"), _MUTATIONS),
        ),
    ),
    min_size=1,
    max_size=2,
)


def _edit_config(entries: list[dict], edits) -> list[dict]:
    for i, key, (op, *arg) in edits:
        if op == "drop":
            entries[i].pop(key, None)
        elif op == "set":
            entries[i][key] = arg[0]
        else:
            text = str(entries[i].get(key, "")).encode("utf-8")
            entries[i][key] = _mutate(text, arg[0]).decode("utf-8", "replace")
    return entries


@pytest.fixture(scope="module")
def module_replay_server(fixtures_dir):
    from btcforecast.ingest import ReplayServer

    with ReplayServer(fixtures_dir) as server:
        yield server


def _only_to(server):
    """Patch urlopen to reach nothing but server: a damaged base_url fails
    as an unreachable host would, without leaving this machine."""
    urlopen = urllib.request.urlopen

    def guarded(url, *args, **kwargs):
        if not url.startswith(server.base_url + "/"):
            raise urllib.error.URLError(f"not the replay server: {url!r}")
        return urlopen(url, *args, **kwargs)

    return mock.patch.object(urllib.request, "urlopen", guarded)


def _run_on_inputs(argv, target=None, mutations=()):
    """Run argv on _VALID_INPUTS written to a fresh directory, with target
    damaged by mutations; input and output names resolve inside it.
    Returns the exit code and the stderr lines."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in _VALID_INPUTS.items():
            (root / name).write_bytes(_mutate(data, mutations) if name == target else data)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = run([str(root / a) if a in _VALID_INPUTS or a.startswith("out") else a for a in argv])
    return code, err.getvalue().splitlines()


class TestInputFuzz:
    @pytest.mark.parametrize("target,argv", _FUZZ_CASES, ids=[target for target, _ in _FUZZ_CASES])
    def test_undamaged_input_exits_0(self, target, argv):
        assert _run_on_inputs(argv) == (0, [])

    @pytest.mark.parametrize("target,argv", _FUZZ_CASES, ids=[target for target, _ in _FUZZ_CASES])
    @settings(max_examples=30, deadline=None)
    @given(mutations=_MUTATIONS)
    def test_damaged_input_exits_0_or_1_with_one_line(self, target, argv, mutations):
        """A damaged input file is accepted (exit 0) or rejected with one
        error line (exit 1); no exception or warning escapes."""
        code, lines = _run_on_inputs(argv, target, mutations)
        assert code in (0, 1)
        assert (lines == []) if code == 0 else (len(lines) == 1 and lines[0].startswith("error:")), lines


    @settings(max_examples=50, deadline=None)
    @given(edits=_CONFIG_EDITS)
    def test_damaged_ingest_config_exits_0_or_1_with_one_line(self, module_replay_server, edits):
        """The same for the sources config of ingest, with one source per
        schema polled once against the replay server."""
        from btcforecast.ingest import SCHEMAS

        entries = [
            {"name": schema, "base_url": module_replay_server.url_for(schema), "poll_interval_s": 0.01,
             "schema": schema}
            for schema in SCHEMAS
        ]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "cfg.json").write_text(json.dumps(_edit_config(entries, edits)), encoding="utf-8")
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err), _only_to(module_replay_server):
                warnings.simplefilter("error")
                code = run(["ingest", "--config", str(root / "cfg.json"), "--out-dir", str(root / "logs"),
                            "--max-polls", "1"])
        assert code in (0, 1)
        lines = err.getvalue().splitlines()
        assert (lines == []) if code == 0 else (len(lines) == 1 and lines[0].startswith("error:")), lines


# Values of the model-command flags: each range reaches past its boundary
# (0, negative, non-finite, longer than the series), and every value is
# passed as --flag=value, so that argparse reads "-1,1,1" as a value.
_RATES = st.one_of(st.sampled_from(["0", "-0.01", "1e-320", "10", "1e30", "1e308"]), st.floats().map(repr))
_FRACTIONS = st.one_of(st.sampled_from(["0", "1", "0.5", "1e-9", "0.999999"]), st.floats().map(repr))
_ORDERS = st.one_of(
    st.sampled_from(["-1,1,1", "0,0,0", "1,2", "1,1,1,1", "a,1,0", "0,3,0"]),
    st.tuples(st.integers(-1, 3), st.integers(-1, 2), st.integers(-1, 1)).map(lambda o: ",".join(map(str, o))),
)
_LSTM_FLAGS = {
    "--lag": st.integers(-1, 130).map(str),
    "--hidden": st.integers(-1, 8).map(str),
    "--epochs": st.integers(-1, 8).map(str),
    "--learning-rate": _RATES,
}
_ARIMA_FLAGS = {"--order": _ORDERS}
_MODEL_COMMANDS = {
    "train-lstm": {**_LSTM_FLAGS, "--train-fraction": _FRACTIONS},
    "train-arima": {**_ARIMA_FLAGS, "--train-fraction": _FRACTIONS},
    "evaluate": {**_LSTM_FLAGS, **_ARIMA_FLAGS, "--train-fraction": _FRACTIONS},
}


@st.composite
def _model_argv(draw, command):
    """Flags of one model command; a flag left out keeps the FAST_LSTM
    value or, for --order, 1,1,0."""
    values = dict(zip(FAST_LSTM[::2], FAST_LSTM[1::2])) if command != "train-arima" else {}
    if command != "train-lstm":
        values["--order"] = "1,1,0"
    for flag, strategy in _MODEL_COMMANDS[command].items():
        value = draw(st.one_of(st.none(), strategy))
        if value is not None:
            values[flag] = value
    return [f"{flag}={value}" for flag, value in values.items()]


class TestModelFlagFuzz:
    @pytest.mark.parametrize("command", list(_MODEL_COMMANDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_model_flags_exit_0_or_1_with_one_line(self, command, data):
        """Any numeric value of a model flag trains and scores (exit 0,
        silent stderr, every forecast finite) or is rejected with one error
        line (exit 1), also when the error is raised in the comparison's
        worker process."""
        argv = data.draw(_model_argv(command))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            sine_series(n=120, period=24).to_csv(root / "sine.csv")
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("error")
                code = run([command, "--data", str(root / "sine.csv"), "--out-dir", str(root / "out"), *argv])
            predicted = [float(row["predicted"]) for path in sorted((root / "out").glob("forecast_*.csv"))
                         for row in csv.DictReader(path.read_text(encoding="utf-8").splitlines())]
        assert code in (0, 1)
        lines = err.getvalue().splitlines()
        assert (lines == []) if code == 0 else (len(lines) == 1 and lines[0].startswith("error:")), lines
        if code == 0:
            assert predicted and all(math.isfinite(v) for v in predicted)
