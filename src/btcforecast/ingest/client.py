"""HTTP fetching and the fixed-cadence poll loop."""

from __future__ import annotations

import json
import logging
import math
import threading
import time
import urllib.error
import urllib.request

from .recordlog import OutOfOrderError, RecordLog
from .sources import SchemaError, SourceConfig, parse_payload

log = logging.getLogger(__name__)

_TIMEOUT_S = 10.0


class FetchError(RuntimeError):
    """Network-level failure; retryable on the next scheduled poll."""


def fetch_once(config: SourceConfig) -> dict:
    """One HTTP GET against the source, parsed into a full record.

    Network problems raise FetchError; payloads that do not satisfy the
    schema raise SchemaError naming the field.
    """
    try:
        with urllib.request.urlopen(config.base_url, timeout=_TIMEOUT_S) as resp:
            body = resp.read()
    except (urllib.error.URLError, OSError) as e:
        raise FetchError(f"{config.name}: {e}") from e
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
        raise FetchError(f"{config.name}: malformed response body: {e}") from e
    if not isinstance(payload, dict):
        raise FetchError(f"{config.name}: expected a JSON object")
    return parse_payload(config.schema, payload)


def poll(
    config: SourceConfig,
    sink: RecordLog,
    stop: threading.Event,
    max_polls: int | None = None,
) -> int:
    """Fetch once per poll_interval and append to the sink until stopped.

    Polls start at fixed monotonic deadlines, start + k * poll_interval, so
    fetch latency does not stretch the period. A fetch that overruns one or
    more deadlines skips those slots rather than polling in a burst.

    Fetch and schema failures (and out-of-order duplicates) are logged and
    skipped; the loop never breaks on them. Sink write failures are fatal.
    Returns the number of records successfully appended.
    """
    appended = 0
    polls = 0
    start = time.monotonic()
    slot = 0
    while not stop.is_set():
        if max_polls is not None and polls >= max_polls:
            break
        polls += 1
        try:
            record = fetch_once(config)
        except (FetchError, SchemaError) as e:
            log.warning("poll %s: fetch skipped: %s", config.name, e)
        else:
            try:
                sink.append(record)
                appended += 1
            except OutOfOrderError as e:
                log.warning("poll %s: record dropped: %s", config.name, e)
        if max_polls is not None and polls >= max_polls:
            break
        now = time.monotonic()
        slot = max(slot + 1, math.ceil((now - start) / config.poll_interval))
        if stop.wait(start + slot * config.poll_interval - now):
            break
    return appended
