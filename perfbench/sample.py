"""One benchmark sample, run in a fresh process.

    python3 sample.py SPEC_JSON RESULT_JSON SPAWN_TIME
    python3 sample.py --setup SPAWN_TIME      (prints setup_s only)

SPAWN_TIME is time.monotonic() in the parent just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so setup_s
covers interpreter start-up plus the import of btcforecast.cli, which every
user of the CLI pays. The spec lists the stages to run; each stage is timed
from outside the program. With "trace" set in the spec, the layer entry
points are wrapped first and the spans are written next to the result.
"""

import time

import btcforecast.cli as cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
from btcforecast.ingest import BITSTAMP_TICKER, RecordLog, ReplayServer, SourceConfig, poll  # noqa: E402


def _call(tracer, name: str, fn, *args, describe=None, **kwargs):
    """fn(*args, **kwargs), inside a span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn, *args, describe=describe, **kwargs)


def _cli_stage(stage: dict, tracer) -> dict:
    try:
        code = cli.run(stage["argv"])
    except Exception:  # a traceback is a failed command, not a crashed sample
        traceback.print_exc()
        code = -1
    return {"attempted": 1, "failed": int(code != 0), "exit": code}


def _poll_stage(stage: dict, tracer) -> dict:
    """Reopen the record log for append (which reads it whole), then poll
    one replayed bitstamp_ticker source into it."""
    polls, interval = stage["polls"], stage["interval_s"]
    with ReplayServer(stage["payloads"]) as server:
        config = SourceConfig("bitstamp", server.url_for(BITSTAMP_TICKER), BITSTAMP_TICKER, interval)
        t0 = time.perf_counter()
        with _call(tracer, "ingest.recordlog_open", RecordLog, stage["log"], BITSTAMP_TICKER) as sink:
            t1 = time.perf_counter()
            appended = _call(tracer, "ingest.poll", poll, config, sink, threading.Event(), max_polls=polls,
                             describe=lambda a, k, r: {"polls": polls, "interval_s": interval})
            t2 = time.perf_counter()
        seconds = time.perf_counter() - t0
    # the server's shutdown wait is not the program's cost and is excluded
    return {
        "seconds": seconds,
        "attempted": polls,
        "failed": polls - appended,
        "cadence_ratio": polls * interval / (t2 - t1),
    }


STAGES = {"cli": _cli_stage, "poll": _poll_stage}


def main(spec_path: str, result_path: str, spawned: float) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"btcforecast imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.instrument(tracer)
    stages = []
    for stage in spec["stages"]:
        t0 = time.perf_counter()
        outcome = _call(tracer, f"stage.{stage['name']}", STAGES[stage["kind"]], stage, tracer)
        outcome.setdefault("seconds", time.perf_counter() - t0)
        outcome["name"] = stage["name"]
        stages.append(outcome)
    if tracer:
        tracer.restore()
        tracer.write(Path(result_path).with_suffix(".spans.json"))
    result = {
        "setup_s": READY - spawned,
        "wall_s": sum(s["seconds"] for s in stages),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stages": stages,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "--setup":
        print(READY - float(sys.argv[2]))
        sys.exit(0)
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))
