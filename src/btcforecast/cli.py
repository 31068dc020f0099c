"""Command-line entry point wiring the whole pipeline.

Subcommands: ingest, sentiment, merge, train-lstm, train-arima, evaluate,
plot. Exit codes: 0 success, 1 module error (diagnostic on stderr),
2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import threading
from pathlib import Path

from . import arima, evaluation, lstm, sentiment
from .dataset import (
    PRICE_AND_SENTIMENT,
    PRICE_ONLY,
    MergedSeries,
    fill_missing,
    fit_scaler,
    merge,
    scale,
    split,
    to_supervised,
    train_test_counts,
    unscale_column,
)
from .ingest import RecordLog, load_sources, poll
from .table import HeaderError, read_table

FIXTURES_ENV = "BTCFORECAST_FIXTURES"


def default_fixtures_dir() -> Path:
    return Path(os.environ.get(FIXTURES_ENV, "fixtures"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="btcforecast",
        description="Bitcoin price forecasting: ingest, score, merge, train, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("ingest", help="poll configured sources into record logs", formatter_class=fmt)
    p.add_argument("--config", required=True, help="JSON list of sources")
    p.add_argument("--out-dir", default="logs", help="directory for record logs")
    p.add_argument("--max-polls", type=int, default=None, help="stop each source after N polls")

    p = sub.add_parser("sentiment", help="score a posts file into a sentiment log", formatter_class=fmt)
    p.add_argument("--posts", required=True, help="posts CSV (timestamp,source,text)")
    p.add_argument("--lexicon", default=None, help="word,weight lexicon file (default: bundled)")
    p.add_argument("--out", required=True, help="output CSV (timestamp,polarity,label)")

    p = sub.add_parser("merge", help="merge prices and sentiment into one dataset", formatter_class=fmt)
    p.add_argument("--prices", required=True, help="record log or time,price CSV")
    p.add_argument("--sentiment", default=None, help="sentiment log (timestamp,polarity,label)")
    p.add_argument("--bucket-s", type=int, default=86400, help="bucket width in seconds")
    p.add_argument("--out", required=True, help="merged CSV (time,price,sentiment)")

    p = sub.add_parser("train-lstm", help="train and evaluate the LSTM forecaster", formatter_class=fmt)
    _add_data_split_flags(p)
    _add_lstm_flags(p)
    p.add_argument(
        "--features",
        choices=[PRICE_ONLY, PRICE_AND_SENTIMENT],
        default=PRICE_ONLY,
        help="input feature mode",
    )
    p.add_argument("--save", default=None, help="write the trained model to this file")
    p.add_argument("--out-dir", default="out", help="directory for forecast/loss files")

    p = sub.add_parser("train-arima", help="fit ARIMA and roll one-step forecasts", formatter_class=fmt)
    _add_data_split_flags(p)
    _add_arima_flags(p)
    p.add_argument("--out-dir", default="out", help="directory for the forecast file")

    p = sub.add_parser(
        "evaluate",
        help="run LSTM (single+multi), ARIMA, and the naive baseline; compare",
        formatter_class=fmt,
    )
    _add_data_split_flags(p)
    _add_lstm_flags(p)
    _add_arima_flags(p)
    p.add_argument("--out-dir", default="out", help="directory for reports and plot data")

    p = sub.add_parser("plot", help="re-emit plot data from a saved report", formatter_class=fmt)
    p.add_argument("--kind", required=True, choices=list(evaluation.PLOT_KINDS))
    p.add_argument("--in", dest="infile", required=True, help="saved report/data file")
    p.add_argument("--out", required=True, help="output plot-data file")

    return parser


def _add_data_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--data",
        default=None,
        help="merged CSV (time,price,sentiment); default: <fixtures>/sine.csv",
    )
    p.add_argument("--train-fraction", type=float, default=0.7, help="chronological split")


def _add_lstm_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", type=int, default=32, help="LSTM hidden units")
    p.add_argument("--lag", type=int, default=1, help="input window length")
    p.add_argument("--epochs", type=int, default=200, help="training epochs")
    p.add_argument("--learning-rate", type=float, default=0.01, help="Adam learning rate")
    p.add_argument("--seed", type=int, default=0, help="weight init seed")


def _add_arima_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", default="10,1,0", help="ARIMA order p,d,q")
    p.add_argument(
        "--refit",
        choices=[arima.REFIT_ALWAYS, arima.REFIT_ONCE],
        default=arima.REFIT_ALWAYS,
        help="refit per test point, or fit once",
    )


def _load_series(args) -> MergedSeries:
    path = Path(args.data) if args.data else default_fixtures_dir() / "sine.csv"
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    return fill_missing(MergedSeries.from_csv(path))


def _read_price_stream(path: Path) -> list[tuple[int, float]]:
    """Accept either an ingest record log (timestamp,last) or a plain
    time,price CSV."""
    for t_col, p_col in (("timestamp", "last"), ("time", "price")):
        try:
            return [(t, p) for _, (t, p) in read_table(path, {t_col: int, p_col: float})]
        except HeaderError:
            continue
    raise ValueError(f"{path}: expected timestamp/last or time/price columns")


def _train_lstm_report(series: MergedSeries, features: str, args):
    scaler = fit_scaler(series)
    scaled = scale(series, scaler)
    ds = to_supervised(scaled, args.lag, features, scaler)
    train_ds, test_ds = split(ds, args.train_fraction)
    config = lstm.LstmConfig(
        n_features=len(ds.feature_names),
        hidden_size=args.hidden,
        lag=args.lag,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    model, history = lstm.train(config, train_ds)
    predicted = lstm.predict_series(model, test_ds)
    actual = unscale_column(test_ds.targets, scaler, "price")
    name = "lstm_single" if features == PRICE_ONLY else "lstm_multi"
    report = evaluation.ForecastReport.create(
        name,
        test_ds.target_times,
        actual,
        predicted,
        build_time_ms=history.build_time_ms,
        train_or_fit_time_ms=history.train_time_ms,
    )
    return model, history, report


def _arima_report(series: MergedSeries, args) -> evaluation.ForecastReport:
    order = arima.ArimaOrder.parse(args.order)
    prices = series.price
    n_train, _ = train_test_counts(len(prices), args.train_fraction)
    # rolling_forecast fits the training prefix itself, so there is no
    # separate build step to time
    preds, fit_ms = evaluation.time_call(
        arima.rolling_forecast,
        prices,
        order,
        train_fraction=args.train_fraction,
        refit=args.refit,
    )
    return evaluation.ForecastReport.create(
        f"arima{order}",
        series.time[n_train:],
        prices[n_train:],
        preds,
        train_or_fit_time_ms=fit_ms,
    )


def _cmd_ingest(args) -> int:
    sources = load_sources(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stop = threading.Event()
    results: dict[str, int] = {}

    def run_source(cfg, sink):
        results[cfg.name] = poll(cfg, sink, stop, max_polls=args.max_polls)

    # every sink is opened (and its log validated) here, before any poller
    # starts, so a damaged log is a one-line error, not a thread traceback
    with contextlib.ExitStack() as stack:
        sinks = [stack.enter_context(RecordLog(out_dir / f"{cfg.name}.csv", cfg.schema)) for cfg in sources]
        threads = [threading.Thread(target=run_source, args=pair) for pair in zip(sources, sinks)]
        for t in threads:
            t.start()
        try:
            for t in threads:
                t.join()
        except KeyboardInterrupt:
            stop.set()
            for t in threads:
                t.join()
    for name, count in sorted(results.items()):
        print(f"{name}: {count} records appended")
    return 0


def _cmd_sentiment(args) -> int:
    lexicon = sentiment.Lexicon.from_file(args.lexicon) if args.lexicon else sentiment.Lexicon.bundled()
    posts = sentiment.read_posts(args.posts)
    records = [sentiment.process_post(p, lexicon) for p in posts]
    sentiment.write_sentiment_log(args.out, records)
    counts = {label: 0 for label in (sentiment.POSITIVE, sentiment.NEGATIVE, sentiment.NEUTRAL)}
    for r in records:
        counts[r.label] += 1
    print(
        f"{len(records)} posts scored -> {args.out} "
        f"({counts[sentiment.POSITIVE]} positive, {counts[sentiment.NEGATIVE]} negative, "
        f"{counts[sentiment.NEUTRAL]} neutral)"
    )
    return 0


def _cmd_merge(args) -> int:
    prices = _read_price_stream(Path(args.prices))
    sentiments = sentiment.read_sentiment_log(args.sentiment) if args.sentiment else []
    merged = merge(prices, [(t, p) for t, p, _ in sentiments], args.bucket_s)
    merged.to_csv(args.out)
    print(f"{len(merged)} rows -> {args.out}")
    return 0


def _cmd_train_lstm(args) -> int:
    series = _load_series(args)
    model, history, report = _train_lstm_report(series, args.features, args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    evaluation.emit_plot_data("forecast_overlay", report, out_dir / f"forecast_{report.model_name}.csv")
    evaluation.emit_plot_data("train_loss", history, out_dir / f"loss_{report.model_name}.csv")
    if args.save:
        lstm.save_model(model, args.save)
    print(
        f"{report.model_name}: test RMSE {report.rmse:.6f} USD "
        f"(build {report.build_time_ms:.3f} ms, train {report.train_or_fit_time_ms:.3f} ms)"
    )
    return 0


def _cmd_train_arima(args) -> int:
    series = _load_series(args)
    report = _arima_report(series, args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    evaluation.emit_plot_data("forecast_overlay", report, out_dir / f"forecast_{report.model_name}.csv")
    print(
        f"{report.model_name}: test RMSE {report.rmse:.6f} USD "
        f"(rolling {report.train_or_fit_time_ms:.3f} ms)"
    )
    return 0


def _cmd_evaluate(args) -> int:
    series = _load_series(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    scaler = fit_scaler(series)
    evaluation.emit_plot_data("normalized_series", scale(series, scaler), out_dir / "normalized.csv")

    reports = []
    for features in (PRICE_ONLY, PRICE_AND_SENTIMENT):
        _, history, report = _train_lstm_report(series, features, args)
        reports.append(report)
        evaluation.emit_plot_data(
            "forecast_overlay", report, out_dir / f"forecast_{report.model_name}.csv"
        )
        evaluation.emit_plot_data("train_loss", history, out_dir / f"loss_{report.model_name}.csv")

    arima_rep = _arima_report(series, args)
    reports.append(arima_rep)
    evaluation.emit_plot_data(
        "forecast_overlay", arima_rep, out_dir / f"forecast_{arima_rep.model_name}.csv"
    )

    naive = evaluation.naive_baseline(series.time, series.price, args.train_fraction)
    reports.append(naive)
    evaluation.emit_plot_data("forecast_overlay", naive, out_dir / f"forecast_{naive.model_name}.csv")

    table = evaluation.compare(reports)
    # metrics.csv stays free of wall-clock values so repeat runs are
    # byte-identical; timings live in comparison.{txt,csv}
    table.to_csv(out_dir / "metrics.csv", include_timings=False)
    table.to_csv(out_dir / "comparison.csv", include_timings=True)
    text = (
        table.to_text()
        + "\nnote: the min-max scaler is fitted on the full series before the"
        + "\nchronological split (normalize-then-split), so scaling parameters"
        + "\nsee the test range."
    )
    (out_dir / "comparison.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _cmd_plot(args) -> int:
    kind = args.kind
    if kind == "forecast_overlay":
        inputs = evaluation.read_forecast_csv(args.infile)
    elif kind == "train_loss":
        inputs = [loss for _, (loss,) in read_table(args.infile, {"loss": float})]
    else:
        inputs = MergedSeries.from_csv(args.infile)
    evaluation.emit_plot_data(kind, inputs, args.out)
    print(f"{kind} -> {args.out}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "sentiment": _cmd_sentiment,
    "merge": _cmd_merge,
    "train-lstm": _cmd_train_lstm,
    "train-arima": _cmd_train_arima,
    "evaluate": _cmd_evaluate,
    "plot": _cmd_plot,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
