#!/usr/bin/env python3
"""Ingestion walkthrough: poll exchange-style APIs into record logs.

Everything runs against the bundled replay server, which serves the
recorded payloads under fixtures/ at the same paths as the real APIs,
so this demo works fully offline. Swap base_url for the real endpoints
and poll_interval for 60 s to collect live data.
"""

import tempfile
import threading
from pathlib import Path

from btcforecast.ingest import (
    BITSTAMP_TICKER,
    BLOCKCHAIN_QUOTES,
    MARKETCAP_SNAPSHOT,
    RecordLog,
    ReplayServer,
    SourceConfig,
    fetch_once,
    poll,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

with ReplayServer(FIXTURES) as server, tempfile.TemporaryDirectory() as tmp:
    print(f"replay server listening on {server.base_url}")

    # --- a single fetch: one payload in, one fully populated record out;
    # a record is a dict from log column to value, in log-column order
    config = SourceConfig(
        name="bitstamp",
        base_url=server.url_for(BITSTAMP_TICKER),
        schema=BITSTAMP_TICKER,
        poll_interval=0.05,  # the real cadence is one minute
    )
    tick = fetch_once(config)
    print(f"\none tick: last={tick['last']} vwap={tick['vwap']} at {tick['datetime']}")

    # --- the poll loop: one fetch per interval, appended to a durable log
    with RecordLog(Path(tmp) / "bitstamp.csv", BITSTAMP_TICKER) as log:
        appended = poll(config, log, stop=threading.Event(), max_polls=3)
        print(f"\npolled 3 intervals -> {appended} records appended")
        for record in log.read():
            print(f"  t={record['timestamp']}  last={record['last']}")

    # --- fault injection: a malformed payload is skipped, the loop survives
    server.reset()
    faulty = SourceConfig(
        name="bitstamp-faulty",
        base_url=server.url_for(BITSTAMP_TICKER, query="fault_at=1"),
        schema=BITSTAMP_TICKER,
        poll_interval=0.05,
    )
    with RecordLog(Path(tmp) / "faulty.csv", BITSTAMP_TICKER) as flog:
        appended = poll(faulty, flog, stop=threading.Event(), max_polls=3)
    print(f"\nwith one malformed payload injected: {appended} of 3 polls appended")

    # --- the other two source shapes
    for schema in (MARKETCAP_SNAPSHOT, BLOCKCHAIN_QUOTES):
        record = fetch_once(
            SourceConfig(name=schema, base_url=server.url_for(schema), schema=schema)
        )
        print(f"\n{schema}: {record}")
