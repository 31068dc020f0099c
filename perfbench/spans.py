"""Span tracing from outside the program, and the per-layer metrics.

The tracer wraps module-level functions of btcforecast by attribute
substitution: nothing under src/ changes. Spans (id, parent, name, start,
end, error, attrs) stay in memory and are written once, when the traced
sample ends. Per-layer metrics are derived from those spans afterwards, so
the timed code pays only for two clock reads and one list append per call.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# name -> (unit, better) of every metric layer_metrics() derives from spans.
LAYER_METRICS = {
    "ingest.recordlog_open.ms": ("ms", "lower"),
    "ingest.fetch_once.ms_p50": ("ms", "lower"),
    "ingest.fetch_once.ms_p99": ("ms", "lower"),
    "ingest.append.ms_p50": ("ms", "lower"),
    "ingest.poll.period_ms_p50": ("ms", "lower"),
    "ingest.cadence_ratio": ("ratio", "higher"),
    "ingest.polls": ("count", "higher"),
    "ingest.appended": ("count", "higher"),
    "ingest.fetch_failed": ("count", "lower"),
    "ingest.dropped": ("count", "lower"),
    "sentiment.read_posts.ms": ("ms", "lower"),
    "sentiment.process_post.calls": ("count", "higher"),
    "sentiment.process_post.us_p50": ("us", "lower"),
    "sentiment.write_sentiment_log.ms": ("ms", "lower"),
    "dataset.merge.ms": ("ms", "lower"),
    "dataset.merge.rows_in": ("count", "higher"),
    "dataset.merge.rows_out": ("count", "higher"),
    "dataset.from_csv.ms": ("ms", "lower"),
    "dataset.to_supervised.ms": ("ms", "lower"),
    "lstm.train.single.ms": ("ms", "lower"),
    "lstm.train.multi.ms": ("ms", "lower"),
    "lstm.epoch.ms_mean": ("ms", "lower"),
    "lstm.adam_step.ms": ("ms", "lower"),
    "lstm.adam_step.calls": ("count", "lower"),
    "lstm.forward.us_per_sample": ("us", "lower"),
    "lstm.backward.ms_per_epoch_inferred": ("ms", "lower"),
    "arima.rolling_forecast.ms": ("ms", "lower"),
    "arima.fit.calls": ("count", "lower"),
    "arima.fit.ms_p50": ("ms", "lower"),
    "arima.fit.ms_p99": ("ms", "lower"),
    "arima.forecast_one.us_p50": ("us", "lower"),
    "arima.fit.failures": ("count", "lower"),
    "evaluation.emit_plot_data.ms": ("ms", "lower"),
    "evaluation.emit_plot_data.calls": ("count", "lower"),
    "evaluation.emit_plot_data.bytes": ("bytes", "lower"),
    "cli.self_ms": ("ms", "lower"),
}

_LSTM = ("lstm.train.single.ms", "lstm.train.multi.ms", "lstm.epoch.ms_mean", "lstm.adam_step.ms",
         "lstm.adam_step.calls", "lstm.forward.us_per_sample", "lstm.backward.ms_per_epoch_inferred")
_ARIMA = ("arima.rolling_forecast.ms", "arima.fit.calls", "arima.fit.ms_p50", "arima.fit.ms_p99",
          "arima.forecast_one.us_p50", "arima.fit.failures")
_EVALUATE = (*_LSTM, *_ARIMA, "dataset.from_csv.ms", "dataset.to_supervised.ms",
             "evaluation.emit_plot_data.ms", "evaluation.emit_plot_data.calls",
             "evaluation.emit_plot_data.bytes", "cli.self_ms")

# Metrics are reported per sample stage (one CLI command or the poll loop),
# so that the LSTM at lag 10 and at lag 1, or an OLS and a CSS fit, are not
# averaged together. Each stage reports the metrics of the layers it runs.
STAGE_METRICS = {
    "evaluate_sine": _EVALUATE,
    "evaluate_long": _EVALUATE,
    "arima_css": (*_ARIMA, "dataset.from_csv.ms", "evaluation.emit_plot_data.ms", "cli.self_ms"),
    "ingest": tuple(name for name in LAYER_METRICS if name.startswith("ingest.")),
    "sentiment": ("sentiment.read_posts.ms", "sentiment.process_post.calls",
                  "sentiment.process_post.us_p50", "sentiment.write_sentiment_log.ms", "cli.self_ms"),
    "merge": ("dataset.merge.ms", "dataset.merge.rows_in", "dataset.merge.rows_out", "cli.self_ms"),
}



def qualified(stage: str, name: str) -> str:
    """A stage's metric name: "stage.metric", or the metric itself when it
    already starts with the stage name (ingest.polls)."""
    return name if name.startswith(f"{stage}.") else f"{stage}.{name}"


# (name, unit, better) of every per-layer metric, in report order. A stage
# that a workload does not run reports 0.
PER_LAYER = tuple(
    (qualified(stage, name), *LAYER_METRICS[name]) for stage, names in STAGE_METRICS.items() for name in names
) + (("trace.overhead_s", "s", "lower"),)

# Names bound in btcforecast.cli by `from .dataset import ...`.
CLI_DATASET_NAMES = (
    "fill_missing", "fit_scaler", "merge", "scale", "split",
    "to_supervised", "train_test_counts", "unscale_column",
)


class Tracer:
    """Collects spans; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn, args, kwargs, describe=None):
        """Run fn(*args, **kwargs) inside a span; describe(args, kwargs,
        result) adds attributes after a successful call."""
        stack = self._stack()
        with self._lock:
            span_id = len(self.spans)
            record = [span_id, stack[-1] if stack else None, name, 0.0, 0.0, False, None]
            self.spans.append(record)
        stack.append(span_id)
        record[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            record[4] = time.perf_counter()
            record[5] = True
            raise
        finally:
            stack.pop()
        record[4] = time.perf_counter()
        if describe is not None:
            record[6] = describe(args, kwargs, result)
        return result

    def span(self, name: str, fn, *args, describe=None, **kwargs):
        """Call fn once inside a span named name (for the benchmark's own calls)."""
        return self._call(name, fn, args, kwargs, describe)

    def patch(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace owner.attr with a wrapper that records a span per call."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        target = original.__func__ if isinstance(original, classmethod) else original

        def wrapper(*args, **kwargs):
            return self._call(name, target, args, kwargs, describe)

        setattr(owner, attr, classmethod(wrapper) if isinstance(original, classmethod) else wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def instrument(tracer: Tracer) -> None:
    """Wrap the layer entry points the per-layer metrics are built from."""
    from btcforecast import arima, cli, dataset, evaluation, lstm, sentiment
    from btcforecast.ingest import client, recordlog

    tracer.patch(cli, "run", "cli.run")
    for name in CLI_DATASET_NAMES:
        describe = _merge_rows if name == "merge" else None
        tracer.patch(cli, name, f"dataset.{name}", describe)
    tracer.patch(dataset.MergedSeries, "from_csv", "dataset.from_csv")
    tracer.patch(lstm, "train", "lstm.train", _train_attrs)
    tracer.patch(lstm, "adam_step", "lstm.adam_step")
    tracer.patch(lstm, "predict_series", "lstm.predict_series", lambda a, k, r: {"samples": len(r)})
    tracer.patch(arima, "fit", "arima.fit")
    tracer.patch(arima, "rolling_forecast", "arima.rolling_forecast")
    tracer.patch(arima, "forecast_one", "arima.forecast_one")
    tracer.patch(evaluation, "emit_plot_data", "evaluation.emit_plot_data",
                 lambda a, k, r: {"bytes": os.path.getsize(r)})
    for name in ("read_posts", "process_post", "write_sentiment_log", "read_sentiment_log"):
        tracer.patch(sentiment, name, f"sentiment.{name}")
    tracer.patch(client, "fetch_once", "ingest.fetch_once")
    tracer.patch(recordlog.RecordLog, "append", "ingest.append")


def _merge_rows(args, kwargs, result) -> dict:
    prices, sentiments = args[0], args[1]
    return {"rows_in": len(prices) + len(sentiments), "rows_out": len(result)}


def _train_attrs(args, kwargs, result) -> dict:
    config, dataset = args[0], args[1]
    return {"variant": "single" if config.n_features == 1 else "multi",
            "epochs": config.epochs, "samples": len(dataset)}


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, parent, _, start, end, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _, _, start, end, *_ in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(span_id, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[span_id] = (end - start) - covered
    return out


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def stage_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of each stage a sample ran, named "stage.metric".
    A stage's spans are its "stage.<name>" span and all spans below it."""
    stage_of: dict[int, str] = {}
    grouped: dict[str, list] = defaultdict(list)
    for span in spans:  # a parent's id is allocated before its children's
        span_id, parent, name = span[:3]
        if name.startswith("stage."):
            stage_of[span_id] = name[len("stage."):]
        elif parent in stage_of:
            stage_of[span_id] = stage_of[parent]
            grouped[stage_of[span_id]].append(span)
    out = {}
    for stage, names in STAGE_METRICS.items():
        if stage in stage_of.values():
            metrics = layer_metrics(grouped[stage])
            out.update({qualified(stage, name): metrics[name] for name in names})
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Every LAYER_METRICS metric, from a set of spans."""
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def durations(name: str) -> list[float]:
        return [end - start for _, _, _, start, end, *_ in by_name[name]]

    def total_ms(name: str) -> float:
        return 1e3 * sum(durations(name))

    def attr_sum(name: str, key: str) -> float:
        return float(sum((s[6] or {}).get(key, 0) for s in by_name[name]))

    m: dict[str, float] = {}
    fetches = by_name["ingest.fetch_once"]
    appends = by_name["ingest.append"]
    fetch_starts = [s[3] for s in fetches]
    m["ingest.recordlog_open.ms"] = total_ms("ingest.recordlog_open")
    m["ingest.fetch_once.ms_p50"] = 1e3 * _pct(durations("ingest.fetch_once"), 50)
    m["ingest.fetch_once.ms_p99"] = 1e3 * _pct(durations("ingest.fetch_once"), 99)
    m["ingest.append.ms_p50"] = 1e3 * _pct(durations("ingest.append"), 50)
    m["ingest.poll.period_ms_p50"] = 1e3 * _pct(np.diff(fetch_starts), 50)
    polls = by_name["ingest.poll"]
    poll_s = sum(durations("ingest.poll"))
    m["ingest.cadence_ratio"] = (
        sum(s[6]["polls"] * s[6]["interval_s"] for s in polls) / poll_s if poll_s else 0.0
    )
    m["ingest.polls"] = float(len(fetches))
    m["ingest.appended"] = float(sum(not s[5] for s in appends))
    m["ingest.fetch_failed"] = float(sum(s[5] for s in fetches))
    m["ingest.dropped"] = float(sum(s[5] for s in appends))

    m["sentiment.read_posts.ms"] = total_ms("sentiment.read_posts")
    m["sentiment.process_post.calls"] = float(len(by_name["sentiment.process_post"]))
    m["sentiment.process_post.us_p50"] = 1e6 * _pct(durations("sentiment.process_post"), 50)
    m["sentiment.write_sentiment_log.ms"] = total_ms("sentiment.write_sentiment_log")

    m["dataset.merge.ms"] = total_ms("dataset.merge")
    m["dataset.merge.rows_in"] = attr_sum("dataset.merge", "rows_in")
    m["dataset.merge.rows_out"] = attr_sum("dataset.merge", "rows_out")
    m["dataset.from_csv.ms"] = total_ms("dataset.from_csv")
    m["dataset.to_supervised.ms"] = total_ms("dataset.to_supervised")

    trains = [s for s in by_name["lstm.train"] if not s[5]]
    for variant in ("single", "multi"):
        m[f"lstm.train.{variant}.ms"] = 1e3 * sum(
            s[4] - s[3] for s in trains if s[6]["variant"] == variant
        )
    epochs = sum(s[6]["epochs"] for s in trains)
    train_ms = 1e3 * sum(s[4] - s[3] for s in trains)
    adam_ms = total_ms("lstm.adam_step")
    adam_calls = len(by_name["lstm.adam_step"])
    predict_samples = attr_sum("lstm.predict_series", "samples")
    us_per_sample = 1e3 * total_ms("lstm.predict_series") / predict_samples if predict_samples else 0.0
    m["lstm.epoch.ms_mean"] = train_ms / epochs if epochs else 0.0
    m["lstm.adam_step.ms"] = adam_ms
    m["lstm.adam_step.calls"] = float(adam_calls)
    m["lstm.forward.us_per_sample"] = us_per_sample
    if epochs:
        # an epoch is forward + backward + Adam over the training samples;
        # forward is priced at the predict_series rate per sample
        forward_ms = sum(s[6]["epochs"] * s[6]["samples"] for s in trains) * us_per_sample / 1e3
        m["lstm.backward.ms_per_epoch_inferred"] = (train_ms - adam_ms - forward_ms) / epochs
    else:
        m["lstm.backward.ms_per_epoch_inferred"] = 0.0

    fit_ms = [1e3 * d for d in durations("arima.fit")]
    m["arima.rolling_forecast.ms"] = total_ms("arima.rolling_forecast")
    m["arima.fit.calls"] = float(len(fit_ms))
    m["arima.fit.ms_p50"] = _pct(fit_ms, 50)
    m["arima.fit.ms_p99"] = _pct(fit_ms, 99)
    m["arima.forecast_one.us_p50"] = 1e6 * _pct(durations("arima.forecast_one"), 50)
    m["arima.fit.failures"] = float(sum(s[5] for s in by_name["arima.fit"]))

    m["evaluation.emit_plot_data.ms"] = total_ms("evaluation.emit_plot_data")
    m["evaluation.emit_plot_data.calls"] = float(len(by_name["evaluation.emit_plot_data"]))
    m["evaluation.emit_plot_data.bytes"] = attr_sum("evaluation.emit_plot_data", "bytes")

    own = self_times(spans)
    m["cli.self_ms"] = 1e3 * sum(own[s[0]] for s in by_name["cli.run"])
    return m


def read_spans(path: str | Path) -> list[list]:
    return json.loads(Path(path).read_text(encoding="utf-8"))
