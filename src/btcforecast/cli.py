"""Command-line entry point wiring the whole pipeline.

Subcommands: ingest, sentiment, merge, train-lstm, train-arima, evaluate.
Exit codes: 0 success, 1 module error (diagnostic on stderr),
2 usage error.

lstm_report, arima_report and run_comparison are the one path that builds
forecast reports: train-lstm, train-arima, evaluate and demo 06 all use it.
When two CPUs are free, run_comparison trains the multi-feature LSTM in a
forked worker process while this process trains the single-feature one and
runs ARIMA and the naive baseline; each LSTM trains on one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import pickle
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import BLAS_PINNED, arima, evaluation, lstm, sentiment
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
from .table import HeaderError, int64_field, price_field, read_table, time_ordered

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
    p.add_argument("--max-polls", type=_positive_int, default=None, help="stop each source after N polls")

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

    return parser


def _positive_int(field: str) -> int:
    value = int(field)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_data_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--data",
        default="fixtures/sine.csv",
        help="merged CSV (time,price,sentiment)",
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
    return fill_missing(MergedSeries.from_csv(args.data))


def _read_price_stream(path: Path) -> list[tuple[int, float]]:
    """Accept either an ingest record log (timestamp,last) or a plain
    time,price CSV. Each row is checked on its line, its time order too: a
    bad value would otherwise surface only after bucketing, with no line to
    name."""
    for t_col, p_col in (("timestamp", "last"), ("time", "price")):
        try:
            rows = read_table(path, {t_col: int64_field, p_col: price_field})
            return [(t, p) for _, (t, p) in time_ordered(path, rows, "price")]
        except HeaderError:
            continue
    raise ValueError(f"{path}: expected timestamp/last or time/price columns")


def lstm_report(
    series: MergedSeries, features: str, config: lstm.LstmConfig, train_fraction: float = 0.7
) -> evaluation.ForecastReport:
    """Train an LSTM on the chronological split of series and forecast its
    test range. The feature mode sets config.n_features."""
    scaler = fit_scaler(series)
    ds = to_supervised(scale(series, scaler), config.lag, features, scaler)
    train_ds, test_ds = split(ds, train_fraction)
    config = dataclasses.replace(config, n_features=len(ds.feature_names))
    # A large learning rate saturates the gates: exp overflows to inf and
    # the sigmoid reaches its exact limit 0. train stops on a non-finite
    # loss or parameter, predict_series on a non-finite forecast.
    with np.errstate(over="ignore"):
        model, history = lstm.train(config, train_ds)
        predicted = lstm.predict_series(model, test_ds)
    actual = unscale_column(test_ds.targets, scaler, "price")
    return evaluation.ForecastReport(
        "lstm_single" if features == PRICE_ONLY else "lstm_multi",
        test_ds.target_times,
        actual,
        predicted,
        build_time_ms=history.build_time_ms,
        train_or_fit_time_ms=history.train_time_ms,
        losses=history.losses,
    )


def arima_report(
    series: MergedSeries, order: arima.ArimaOrder, refit: str = arima.REFIT_ALWAYS, train_fraction: float = 0.7
) -> evaluation.ForecastReport:
    """Roll one-step ARIMA forecasts over the test range of series."""
    n_train, _ = train_test_counts(len(series), train_fraction)
    # rolling_forecast fits the training prefix itself, so there is no
    # separate build step to time. It is called through the module so that
    # a tracer that wraps arima.rolling_forecast sees the call.
    t0 = time.perf_counter()
    preds = arima.rolling_forecast(series.price, order, train_fraction=train_fraction, refit=refit)
    fit_ms = (time.perf_counter() - t0) * 1000.0
    return evaluation.ForecastReport(
        f"arima{order}", series.time[n_train:], series.price[n_train:], preds, train_or_fit_time_ms=fit_ms
    )


def run_comparison(
    series: MergedSeries, config: lstm.LstmConfig, order: arima.ArimaOrder,
    refit: str = arima.REFIT_ALWAYS, train_fraction: float = 0.7,
) -> list[evaluation.ForecastReport]:
    """The paper's comparison: single- and multi-feature LSTM, rolling ARIMA
    and the naive last-value baseline, each scored on one chronological
    split. The multi-feature LSTM trains in a worker process when
    _can_fork() holds; the reports are the same either way."""
    with _in_worker(lstm_report, series, PRICE_AND_SENTIMENT, config, train_fraction) as lstm_multi:
        single = lstm_report(series, PRICE_ONLY, config, train_fraction)
        arima_forecast = arima_report(series, order, refit, train_fraction)
        naive = evaluation.naive_baseline(series.time, series.price, train_fraction)
        return [single, lstm_multi(), arima_forecast, naive]


def _can_fork() -> bool:
    """Whether a model may train in a forked worker: a second CPU is free,
    BLAS runs one thread (a threaded BLAS in two processes oversubscribes
    the cores) and this process runs no other thread (a fork copies only the
    calling thread, so a lock another thread holds stays held in the child)."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and BLAS_PINNED
        and threading.active_count() == 1
    )


@contextlib.contextmanager
def _in_worker(fn, *args):
    """Yield a function that returns fn(*args) or raises its exception.

    When _can_fork() holds, fn runs in a forked worker process while the
    with block runs, and its outcome comes back pickled through a pipe.
    Otherwise fn runs when the yielded function is called. The worker is
    reaped before the block exits; if the block exits before it asked for
    the result (say, on an exception), the worker is killed first."""
    if not _can_fork():
        yield lambda: fn(*args)
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _worker_main(write_fd, fn, args)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    reaped = False

    def result():
        nonlocal reaped
        # read to EOF before waiting: a payload larger than the pipe buffer
        # keeps the worker blocked in its write until it is read
        payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
        reaped = True
        try:
            ok, value = pickle.loads(payload)
        except Exception:  # empty or cut short: the worker died first
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise RuntimeError(f"worker process ended without a result ({how})") from None
        if ok:
            return value
        raise value

    with pipe:
        try:
            yield result
        finally:
            if not reaped:
                import signal  # only on this path, so importing cli loads no more

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _worker_main(write_fd: int, fn, args) -> None:
    """The forked worker: send (True, result) or (False, exception) to the
    parent, then leave through os._exit, which runs no atexit handler and
    does not flush the stdio buffers copied from the parent. It exits 1 if
    the outcome could not be sent."""
    code = 1
    try:
        try:
            outcome = (True, fn(*args))
        except BaseException as e:  # the parent re-raises it
            outcome = (False, e)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe)
        code = 0
    finally:
        os._exit(code)


def _lstm_config(args) -> lstm.LstmConfig:
    return lstm.LstmConfig(
        hidden_size=args.hidden, lag=args.lag, epochs=args.epochs, learning_rate=args.learning_rate, seed=args.seed
    )


def _write_reports(reports: list[evaluation.ForecastReport], out_dir: Path) -> None:
    """forecast_<name>.csv for every report, loss_<name>.csv for each one
    with a loss curve."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for report in reports:
        evaluation.emit_plot_data("forecast_overlay", report, out_dir / f"forecast_{report.model_name}.csv")
        if report.losses is not None:
            evaluation.emit_plot_data("train_loss", report, out_dir / f"loss_{report.model_name}.csv")


def _cmd_ingest(args) -> int:
    # only this command loads the ingest package and the http, ssl and
    # email modules it pulls in
    from .ingest import RecordLog, load_sources, poll

    sources = load_sources(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stop = threading.Event()
    results: dict[str, int] = {}
    failures: list[tuple[str, Exception]] = []

    def run_source(cfg, sink):
        # a poller ends early only on what poll calls fatal (say, a failed
        # sink write); the other pollers stop, and the main thread raises it
        try:
            results[cfg.name] = poll(cfg, sink, stop, max_polls=args.max_polls)
        except Exception as e:
            failures.append((cfg.name, e))
            stop.set()

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
    if failures:
        name, e = failures[0]
        raise RuntimeError(f"{name}: {e}") from e
    for name, count in sorted(results.items()):
        print(f"{name}: {count} records appended")
    return 0


def _cmd_sentiment(args) -> int:
    lexicon = sentiment.Lexicon.from_file(args.lexicon) if args.lexicon else sentiment.Lexicon.bundled()
    rows = [sentiment.process_post(post, lexicon) for post in sentiment.read_posts(args.posts)]
    sentiment.write_sentiment_log(args.out, rows)
    counts = Counter(label for _, _, label in rows)
    print(
        f"{len(rows)} posts scored -> {args.out} "
        f"({counts[sentiment.POSITIVE]} positive, {counts[sentiment.NEGATIVE]} negative, "
        f"{counts[sentiment.NEUTRAL]} neutral)"
    )
    return 0


def _cmd_merge(args) -> int:
    prices = _read_price_stream(Path(args.prices))
    sentiments = sentiment.read_sentiment_log(args.sentiment) if args.sentiment else []
    merged = merge(prices, sentiments, args.bucket_s)
    merged.to_csv(args.out)
    print(f"{len(merged)} rows -> {args.out}")
    return 0


def _cmd_train_lstm(args) -> int:
    series = _load_series(args)
    report = lstm_report(series, args.features, _lstm_config(args), args.train_fraction)
    _write_reports([report], Path(args.out_dir))
    print(
        f"{report.model_name}: test RMSE {report.rmse:.6f} USD "
        f"(build {report.build_time_ms:.3f} ms, train {report.train_or_fit_time_ms:.3f} ms)"
    )
    return 0


def _cmd_train_arima(args) -> int:
    series = _load_series(args)
    report = arima_report(series, arima.ArimaOrder.parse(args.order), args.refit, args.train_fraction)
    _write_reports([report], Path(args.out_dir))
    print(
        f"{report.model_name}: test RMSE {report.rmse:.6f} USD "
        f"(rolling {report.train_or_fit_time_ms:.3f} ms)"
    )
    return 0


def _cmd_evaluate(args) -> int:
    series = _load_series(args)
    reports = run_comparison(
        series, _lstm_config(args), arima.ArimaOrder.parse(args.order), args.refit, args.train_fraction
    )
    out_dir = Path(args.out_dir)
    _write_reports(reports, out_dir)
    evaluation.emit_plot_data("normalized_series", scale(series, fit_scaler(series)), out_dir / "normalized.csv")
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


_COMMANDS = {
    "ingest": _cmd_ingest,
    "sentiment": _cmd_sentiment,
    "merge": _cmd_merge,
    "train-lstm": _cmd_train_lstm,
    "train-arima": _cmd_train_arima,
    "evaluate": _cmd_evaluate,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, RuntimeError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
