from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import pytest

from btcforecast.cli import build_parser, run
from btcforecast.dataset import MergedSeries
from btcforecast.synthetic import sine_series

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


def _assert_one_line_error(capfd, code, *names):
    out, err = capfd.readouterr()
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    for name in names:
        assert name in err
    assert "Traceback" not in out + err
    return out


class TestErrorPaths:
    def test_missing_input_exits_1_with_path(self, tmp_path, capsys):
        code = run(["train-lstm", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_bad_order_exits_1(self, small_sine, tmp_path, capsys):
        code = run(
            ["train-arima", "--data", str(small_sine), "--order", "1,2", "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_infinite_price_exits_1_without_lapack_noise(self, small_sine, tmp_path, capfd):
        lines = small_sine.read_text().splitlines()
        t, _, s = lines[50].split(",")
        lines[50] = f"{t},inf,{s}"
        bad = tmp_path / "inf.csv"
        bad.write_text("\n".join(lines) + "\n")
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
                log.append(dataclasses.replace(tick, timestamp=tick.timestamp + 60 * i))
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

    def test_sentiment_log_without_polarity_exits_1(self, tmp_path, small_sine, capfd):
        sent = tmp_path / "sent.csv"
        sent.write_text("timestamp,label\n1,Positive\n")
        code = run(["merge", "--prices", str(small_sine), "--sentiment", str(sent),
                    "--out", str(tmp_path / "m.csv")])
        _assert_one_line_error(capfd, code, "sent.csv", "'polarity'")

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

    def test_train_lstm_writes_outputs(self, tmp_path, small_sine):
        out_dir = tmp_path / "out"
        model_path = tmp_path / "model.txt"
        code = run(
            ["train-lstm", "--data", str(small_sine), "--out-dir", str(out_dir),
             "--save", str(model_path), *FAST_LSTM]
        )
        assert code == 0
        assert (out_dir / "forecast_lstm_single.csv").exists()
        assert (out_dir / "loss_lstm_single.csv").exists()
        assert model_path.exists()

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

    def test_plot_roundtrip(self, tmp_path, small_sine):
        out_dir = _evaluate(tmp_path, small_sine, "out")
        replot = tmp_path / "replot.csv"
        code = run(
            ["plot", "--kind", "forecast_overlay",
             "--in", str(out_dir / "forecast_lstm_single.csv"), "--out", str(replot)]
        )
        assert code == 0
        assert replot.read_bytes() == (out_dir / "forecast_lstm_single.csv").read_bytes()


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
