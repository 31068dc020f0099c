"""The benchmark workloads: inputs, the stages a sample runs, and checks.

Two workloads, so that each layer an optimisation targets has one workload
where it does most of the work and one where it is idle: `models` (LSTM and
ARIMA) and `prep` (ingest, sentiment, merge). Runs are long (55 s) to
average over more of the speed swings of a shared 2-core machine, and the
model commands share one workload so that the run budget allows runs that
long. Their times still print one by one as stages, and the per-layer
metrics are kept per stage. The `why` of each workload is repeated in
BENCHMARK.json.

Workload seed n selects input set n % SLOTS; the RMSEs each input set must
reproduce are recorded in references.json by record_references.py.

Excluded, not timed: rolling ARIMA(2,1,1) on fixtures/sine.csv plus N(0, 5^2)
noise. It runs about 30 s of CSS fits and then aborts at index 511 with
ArimaFitError (the MA root leaves the unit circle), so it would time a
failure. It becomes a stage once the ARIMA estimator completes it.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import generate

SLOTS = 16
TRAIN_FRACTION = 0.7
SINE_EPOCHS = 100
LONG_ROWS = 3000
LONG_EPOCHS = 200
ARIMA_ROWS = 500
# One ARIMA draw for every seed: Gauss-Newton iteration counts differ 2.5x
# between draws (600 to 1524 Jacobians over generator seeds 0-15), so seeded
# draws would time the draw rather than the estimator.
ARIMA_DRAW = 0
LOG_TICKS = 48_000
POSTS = 30_000
POLLS = 180
POLL_INTERVAL_S = 0.005
BUCKET_S = 60
REFERENCES = Path(__file__).with_name("references.json")

EVALUATE_ARTIFACTS = (
    "metrics.csv", "normalized.csv", "loss_lstm_single.csv", "loss_lstm_multi.csv",
    "forecast_lstm_single.csv", "forecast_lstm_multi.csv",
    "forecast_arima(10,1,0).csv", "forecast_naive_last_value.csv",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (root, input dir, slot) -> inputs; writes the generated files
    prepare: Callable[[Path, Path, int], dict]
    # (inputs, sample dir) -> stage specs for sample.py
    stages: Callable[[dict, Path], list[dict]]
    # (inputs, sample dir) -> (observed RMSEs, artifact digests); raises CheckError
    observe: Callable[[dict, Path], tuple[dict, dict]]


def n_test(n: int) -> int:
    """Test rows of a chronological split (dataset.train_test_counts)."""
    return n - math.floor(TRAIN_FRACTION * n + 1e-9)


def _rows(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for _ in f) - 1


def _models_prepare(root: Path, inputs: Path, slot: int) -> dict:
    sine, long, draw = root / "fixtures" / "sine.csv", inputs / "long.csv", inputs / "arima111.csv"
    generate.merged_csv(long, slot, LONG_ROWS)
    generate.arima_csv(draw, ARIMA_DRAW, ARIMA_ROWS)
    return {
        # the paper's sine fixture at lag 10: the LSTM recurrence dominates
        "evaluate_sine": {"data": str(sine), "rows": _rows(sine), "lag": 10, "seed": slot, "epochs": SINE_EPOCHS},
        # a wide lag-1 LSTM batch plus growing-prefix ARIMA OLS refits
        "evaluate_long": {"data": str(long), "rows": _rows(long), "lag": 1, "seed": 0, "epochs": LONG_EPOCHS},
        # CSS Gauss-Newton fits of an ARIMA(1,1,1) draw
        "arima_css": {"data": str(draw), "rows": _rows(draw)},
    }


def _models_stages(inputs: dict, out: Path) -> list[dict]:
    stages = []
    for name in ("evaluate_sine", "evaluate_long"):
        spec = inputs[name]
        argv = ["evaluate", "--data", spec["data"], "--lag", str(spec["lag"]), "--seed", str(spec["seed"]),
                "--epochs", str(spec["epochs"]), "--out-dir", str(out / name)]
        stages.append({"name": name, "kind": "cli", "argv": argv})
    argv = ["train-arima", "--data", inputs["arima_css"]["data"], "--order", "1,1,1",
            "--out-dir", str(out / "arima_css")]
    stages.append({"name": "arima_css", "kind": "cli", "argv": argv})
    return stages


def _evaluate_observe(spec: dict, out: Path) -> dict[str, str]:
    n, lag = spec["rows"], spec["lag"]
    lstm_test, series_test = n_test(n - lag), n_test(n)
    forecast = ("time", "actual", "predicted")
    check.expect_rows(out / "normalized.csv", ("time", "price", "sentiment"), n)
    for variant in ("single", "multi"):
        check.expect_rows(out / f"loss_lstm_{variant}.csv", ("epoch", "loss"), spec["epochs"])
        check.expect_rows(out / f"forecast_lstm_{variant}.csv", forecast, lstm_test)
    for model in ("arima(10,1,0)", "naive_last_value"):
        check.expect_rows(out / f"forecast_{model}.csv", forecast, series_test)
    rows = check.read_table(out / "metrics.csv", ("model", "mse", "rmse", "winner"))
    return {f"{out.name}/{model}": rmse for model, _, rmse, _ in rows}


def _models_observe(inputs: dict, out: Path) -> tuple[dict, dict]:
    rmse = {}
    for name in ("evaluate_sine", "evaluate_long"):
        rmse.update(_evaluate_observe(inputs[name], out / name))
    forecast = out / "arima_css" / "forecast_arima(1,1,1).csv"
    rmse["arima_css/arima(1,1,1)"] = repr(check.forecast_rmse(forecast, n_test(inputs["arima_css"]["rows"])))
    artifacts = [out / name / f for name in ("evaluate_sine", "evaluate_long") for f in EVALUATE_ARTIFACTS]
    return rmse, check.digest(out, artifacts + [forecast])


def _prep_prepare(root: Path, inputs: Path, slot: int) -> dict:
    log, payloads, posts = inputs / "bitstamp.csv", inputs / "payloads", inputs / "posts.csv"
    ticks = generate.tick_log_and_payloads(log, payloads, slot, LOG_TICKS, POLLS)
    generate.posts_csv(posts, slot, ticks[0], ticks[-1], POSTS)
    return {
        "log": str(log), "payloads": str(payloads), "posts": str(posts),
        "ticks": len(ticks), "posts_rows": _rows(posts),
        "merged_rows": generate.bucket_count(ticks, BUCKET_S),
    }


def _prep_stages(inputs: dict, out: Path) -> list[dict]:
    # polling appends to the log, so every sample starts from a fresh copy
    log = out / "bitstamp.csv"
    shutil.copyfile(inputs["log"], log)
    sentiment_log = str(out / "sentiment.csv")
    return [
        {"name": "ingest", "kind": "poll", "log": str(log), "payloads": inputs["payloads"],
         "polls": POLLS, "interval_s": POLL_INTERVAL_S},
        {"name": "sentiment", "kind": "cli",
         "argv": ["sentiment", "--posts", inputs["posts"], "--out", sentiment_log]},
        {"name": "merge", "kind": "cli",
         "argv": ["merge", "--prices", str(log), "--sentiment", sentiment_log,
                  "--bucket-s", str(BUCKET_S), "--out", str(out / "merged.csv")]},
    ]


def _prep_observe(inputs: dict, out: Path) -> tuple[dict, dict]:
    log = out / "bitstamp.csv"
    if not log.read_bytes().startswith(Path(inputs["log"]).read_bytes()):
        raise check.CheckError(f"{log}: the records it held before polling changed")
    rows = check.expect_rows(log, generate.BITSTAMP_COLUMNS, inputs["ticks"])
    check.parse_columns(log, rows[-POLLS:], "ffiffffffs", first_line=len(rows) - POLLS + 2)
    check.increasing(log, [int(row[2]) for row in rows])
    sentiment_log = out / "sentiment.csv"
    rows = check.expect_rows(sentiment_log, ("timestamp", "polarity", "label"), inputs["posts_rows"])
    check.parse_columns(sentiment_log, rows, "ifs")
    for line, (_, polarity, label) in enumerate(rows, start=2):
        if not -1.0 <= float(polarity) <= 1.0 or label not in ("Positive", "Negative", "Neutral"):
            raise check.CheckError(f"{sentiment_log}:{line}: bad score {polarity},{label}")
    merged = out / "merged.csv"
    rows = check.expect_rows(merged, ("time", "price", "sentiment"), inputs["merged_rows"])
    check.parse_columns(merged, rows, "iff")
    return {}, check.digest(out, [log, sentiment_log, merged])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "models",
            "evaluate on the sine fixture (lag 10: LSTM recurrence), evaluate on a 3000-row noisy sine (lag 1: "
            "wide LSTM batch, 900 ARIMA OLS refits), train-arima CSS (1,1,1); no ingest.",
            _models_prepare, _models_stages, _models_observe,
        ),
        Workload(
            "prep",
            "Reopen a 48k-tick log, 180 replayed polls at 5 ms, score 30k posts, merge to 1-minute rows: "
            "ingest, sentiment and merge do all the work, models none.",
            _prep_prepare, _prep_stages, _prep_observe,
        ),
    )
}


def load_references() -> dict:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def check_against(observed: dict, reference: dict | None) -> None:
    """Compare observed RMSEs with the input set's recorded ones."""
    if not observed:
        return  # the workload's outputs hold no recorded values
    if reference is None:
        raise check.CheckError("no recorded reference for this input set")
    check.compare_rmses(observed, reference)
