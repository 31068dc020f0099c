from __future__ import annotations

import dataclasses
import json
import threading
from types import SimpleNamespace

import pytest

from btcforecast.ingest import client
from btcforecast.ingest import (
    BITSTAMP_TICKER,
    BLOCKCHAIN_QUOTES,
    MARKETCAP_SNAPSHOT,
    SCHEMAS,
    FetchError,
    MarketSnapshot,
    OutOfOrderError,
    PriceTick,
    RecordLog,
    SchemaError,
    SourceConfig,
    fetch_once,
    load_sources,
    parse_payload,
    poll,
)

TABLE2_FIELDS = ("high", "last", "timestamp", "bid", "vwap", "volume", "low", "ask", "open", "datetime")


def _config(server, schema, query="", interval=0.01):
    return SourceConfig(
        name=f"test-{schema}",
        base_url=server.url_for(schema, query),
        schema=schema,
        poll_interval=interval,
    )


class TestParsePayload:
    def test_bitstamp_fixture_maps_all_fields(self, bitstamp_payload):
        tick = parse_payload(BITSTAMP_TICKER, bitstamp_payload)
        assert isinstance(tick, PriceTick)
        assert tick.timestamp == int(bitstamp_payload["timestamp"])
        assert tick.datetime == bitstamp_payload["datetime"]
        for field in ("high", "last", "bid", "vwap", "volume", "low", "ask", "open"):
            assert getattr(tick, field) == float(bitstamp_payload[field])

    def test_missing_field_names_it(self, bitstamp_payload):
        payload = dict(bitstamp_payload)
        del payload["vwap"]
        with pytest.raises(SchemaError, match="vwap"):
            parse_payload(BITSTAMP_TICKER, payload)

    def test_non_numeric_field_names_it(self, bitstamp_payload):
        payload = dict(bitstamp_payload) | {"last": "abc"}
        with pytest.raises(SchemaError, match="last"):
            parse_payload(BITSTAMP_TICKER, payload)

    def test_non_positive_price_rejected(self, bitstamp_payload):
        payload = dict(bitstamp_payload) | {"low": "-1.0"}
        with pytest.raises(SchemaError, match="low"):
            parse_payload(BITSTAMP_TICKER, payload)

    def test_marketcap_snapshot(self, fixtures_dir):
        payload = json.loads((fixtures_dir / "marketcap_snapshot" / "000.json").read_text())
        snap = parse_payload(MARKETCAP_SNAPSHOT, payload)
        assert isinstance(snap, MarketSnapshot)
        assert snap.price_usd == pytest.approx(6461.28)
        assert snap.volume_24h_usd == pytest.approx(4168760000.0)
        assert snap.pct_change_7d == pytest.approx(-0.55)
        assert snap.created == 1537528980
        assert snap.usd_sell is None  # not part of this schema's group

    def test_blockchain_quotes(self, fixtures_dir):
        payload = json.loads((fixtures_dir / "blockchain_quotes" / "000.json").read_text())
        snap = parse_payload(BLOCKCHAIN_QUOTES, payload)
        assert snap.usd_sell == pytest.approx(6450.21)
        assert snap.usd_buy == pytest.approx(6455.43)
        assert snap.usd_15m == pytest.approx(6452.84)
        assert snap.price_usd is None

    def test_supply_invariant(self, fixtures_dir):
        payload = json.loads((fixtures_dir / "marketcap_snapshot" / "000.json").read_text())
        payload["available_supply"] = "99999999.0"
        with pytest.raises(SchemaError, match="available_supply"):
            parse_payload(MARKETCAP_SNAPSHOT, payload)

    def test_every_table_field_has_one_home(self):
        # Table 2 -> PriceTick, Table 1 -> MarketSnapshot, split across the
        # two snapshot schemas; no field is mapped twice
        assert SCHEMAS[BITSTAMP_TICKER].log_columns == TABLE2_FIELDS
        snapshot_fields = [
            f for _, f, _ in SCHEMAS[MARKETCAP_SNAPSHOT].field_map
        ] + [f for _, f, _ in SCHEMAS[BLOCKCHAIN_QUOTES].field_map]
        value_fields = [f for f in snapshot_fields if f != "created"]
        assert len(value_fields) == len(set(value_fields)) == 11
        record_fields = {f.name for f in dataclasses.fields(MarketSnapshot)}
        assert set(value_fields) <= record_fields


class TestRecordLog:
    def _tick(self, bitstamp_payload, ts):
        return dataclasses.replace(
            parse_payload(BITSTAMP_TICKER, bitstamp_payload), timestamp=ts
        )

    def test_ordered_appends(self, tmp_path, bitstamp_payload):
        with RecordLog(tmp_path / "ticks.csv", BITSTAMP_TICKER) as log:
            log.append(self._tick(bitstamp_payload, 100))
            log.append(self._tick(bitstamp_payload, 160))
            records = log.read()
            assert len(records) == 2
            assert [r.timestamp for r in records] == [100, 160]

    def test_out_of_order_rejected(self, tmp_path, bitstamp_payload):
        with RecordLog(tmp_path / "ticks.csv", BITSTAMP_TICKER) as log:
            log.append(self._tick(bitstamp_payload, 160))
            with pytest.raises(OutOfOrderError):
                log.append(self._tick(bitstamp_payload, 100))
            assert len(log.read()) == 1

    def test_equal_timestamp_rejected(self, tmp_path, bitstamp_payload):
        with RecordLog(tmp_path / "ticks.csv", BITSTAMP_TICKER) as log:
            log.append(self._tick(bitstamp_payload, 100))
            with pytest.raises(OutOfOrderError):
                log.append(self._tick(bitstamp_payload, 100))

    def test_roundtrip_identical_record(self, tmp_path, bitstamp_payload):
        payload = dict(bitstamp_payload) | {"vwap": "6453.12"}
        tick = parse_payload(BITSTAMP_TICKER, payload)
        with RecordLog(tmp_path / "ticks.csv", BITSTAMP_TICKER) as log:
            log.append(tick)
            assert log.read() == [tick]

    def test_header_matches_table(self, tmp_path, bitstamp_payload):
        with RecordLog(tmp_path / "ticks.csv", BITSTAMP_TICKER) as log:
            log.append(self._tick(bitstamp_payload, 100))
            first_line = (tmp_path / "ticks.csv").read_text(encoding="utf-8").splitlines()[0]
            assert first_line == ",".join(TABLE2_FIELDS)

    def test_reopen_continues_ordering(self, tmp_path, bitstamp_payload):
        path = tmp_path / "ticks.csv"
        with RecordLog(path, BITSTAMP_TICKER) as log:
            log.append(self._tick(bitstamp_payload, 100))
        with RecordLog(path, BITSTAMP_TICKER) as log:
            with pytest.raises(OutOfOrderError):
                log.append(self._tick(bitstamp_payload, 50))
            log.append(self._tick(bitstamp_payload, 150))
            assert [r.timestamp for r in log.read()] == [100, 150]

    def test_reader_sees_prefix_while_writing(self, tmp_path, bitstamp_payload):
        with RecordLog(tmp_path / "ticks.csv", BITSTAMP_TICKER) as log:
            log.append(self._tick(bitstamp_payload, 100))
            assert len(log.read()) == 1
            log.append(self._tick(bitstamp_payload, 200))
            assert len(log.read()) == 2

    def _log_with(self, path, bitstamp_payload, n, tail=""):
        with RecordLog(path, BITSTAMP_TICKER) as log:
            for i in range(n):
                log.append(self._tick(bitstamp_payload, 100 + 60 * i))
        with open(path, "a", encoding="utf-8") as f:
            f.write(tail)

    def test_reopen_finds_last_timestamp_without_records(self, tmp_path, bitstamp_payload, monkeypatch):
        path = tmp_path / "ticks.csv"
        self._log_with(path, bitstamp_payload, 4)

        def no_records(self):
            raise AssertionError("reopening must not build records")

        monkeypatch.setattr(RecordLog, "read", no_records)
        with RecordLog(path, BITSTAMP_TICKER) as log:
            with pytest.raises(OutOfOrderError, match="last 280"):
                log.append(self._tick(bitstamp_payload, 280))
            log.append(self._tick(bitstamp_payload, 281))

    def test_reopen_rejects_torn_last_line(self, tmp_path, bitstamp_payload):
        # a crash mid-append leaves a partial record on line 6
        path = tmp_path / "ticks.csv"
        self._log_with(path, bitstamp_payload, 4, tail="6542.61,6502.61,15000")
        with pytest.raises(ValueError, match=r"ticks\.csv:6: expected 10 fields, got 3"):
            RecordLog(path, BITSTAMP_TICKER)

    def test_reopen_rejects_unparseable_field(self, tmp_path, bitstamp_payload):
        path = tmp_path / "ticks.csv"
        self._log_with(path, bitstamp_payload, 2)
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[1].split(",")
        fields[TABLE2_FIELDS.index("timestamp")] = "12x"
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"ticks\.csv:2: column 'timestamp'"):
            RecordLog(path, BITSTAMP_TICKER)

    def test_reopen_after_trailing_blank_line(self, tmp_path, bitstamp_payload):
        path = tmp_path / "ticks.csv"
        self._log_with(path, bitstamp_payload, 2, tail="\n")
        with RecordLog(path, BITSTAMP_TICKER) as log:
            log.append(self._tick(bitstamp_payload, 200))
            assert [r.timestamp for r in log.read()] == [100, 160, 200]

    def test_snapshot_log(self, tmp_path, fixtures_dir):
        payload = json.loads((fixtures_dir / "blockchain_quotes" / "000.json").read_text())
        snap = parse_payload(BLOCKCHAIN_QUOTES, payload)
        with RecordLog(tmp_path / "quotes.csv", BLOCKCHAIN_QUOTES) as log:
            log.append(snap)
            assert log.read() == [snap]


class TestFetchOnce:
    def test_fetches_fixture_tick(self, replay_server):
        tick = fetch_once(_config(replay_server, BITSTAMP_TICKER))
        assert isinstance(tick, PriceTick)
        assert tick.last == pytest.approx(6453.12)

    def test_drop_fault_raises_schema_error(self, replay_server):
        cfg = _config(replay_server, BITSTAMP_TICKER, query="fault=drop:vwap")
        with pytest.raises(SchemaError, match="vwap"):
            fetch_once(cfg)

    def test_corrupt_fault_raises_schema_error(self, replay_server):
        cfg = _config(replay_server, BITSTAMP_TICKER, query="fault=corrupt:last")
        with pytest.raises(SchemaError, match="last"):
            fetch_once(cfg)

    def test_garbage_body_is_fetch_error(self, replay_server):
        cfg = _config(replay_server, BITSTAMP_TICKER, query="fault=garbage")
        with pytest.raises(FetchError):
            fetch_once(cfg)

    def test_http_error_is_fetch_error(self, replay_server):
        cfg = _config(replay_server, BITSTAMP_TICKER, query="fault=status:500")
        with pytest.raises(FetchError):
            fetch_once(cfg)

    def test_unreachable_server_is_fetch_error(self):
        cfg = SourceConfig(
            name="dead", base_url="http://127.0.0.1:1/ticker", schema=BLOCKCHAIN_QUOTES,
            poll_interval=0.01,
        )
        with pytest.raises(FetchError):
            fetch_once(cfg)

    def test_all_three_schemas_fetch(self, replay_server):
        for schema in (BITSTAMP_TICKER, MARKETCAP_SNAPSHOT, BLOCKCHAIN_QUOTES):
            record = fetch_once(_config(replay_server, schema))
            assert record is not None


class TestPoll:
    def test_three_ticks_three_intervals(self, replay_server, tmp_path):
        with RecordLog(tmp_path / "t.csv", BITSTAMP_TICKER) as log:
            count = poll(_config(replay_server, BITSTAMP_TICKER), log, threading.Event(), max_polls=3)
            assert count == 3
            records = log.read()
            assert len(records) == 3
            assert [r.timestamp for r in records] == sorted(r.timestamp for r in records)

    def test_malformed_payload_skipped_loop_continues(self, replay_server, tmp_path):
        with RecordLog(tmp_path / "t.csv", BITSTAMP_TICKER) as log:
            cfg = _config(replay_server, BITSTAMP_TICKER, query="fault_at=1")
            count = poll(cfg, log, threading.Event(), max_polls=3)
            assert count == 2
            assert len(log.read()) == 2

    def test_immediate_stop_appends_nothing(self, replay_server, tmp_path):
        with RecordLog(tmp_path / "t.csv", BITSTAMP_TICKER) as log:
            stop = threading.Event()
            stop.set()
            assert poll(_config(replay_server, BITSTAMP_TICKER), log, stop) == 0
            assert log.read() == []

    def test_no_partial_records_under_faults(self, replay_server, tmp_path):
        """Fault injection never yields half-populated records: whatever lands
        in the log parses back into a complete tick."""
        faults = ["fault_at=0", "fault_at=2&fault=drop:open", "fault_at=1&fault=corrupt:bid"]
        for i, query in enumerate(faults):
            replay_server.reset()
            with RecordLog(tmp_path / f"t{i}.csv", BITSTAMP_TICKER) as log:
                appended = poll(
                    _config(replay_server, BITSTAMP_TICKER, query=query),
                    log,
                    threading.Event(),
                    max_polls=3,
                )
                records = log.read()
                assert len(records) == appended == 2
                for tick in records:
                    for field in TABLE2_FIELDS:
                        assert getattr(tick, field) is not None

    def test_cycling_payloads_get_deduplicated(self, replay_server, tmp_path):
        # after one full cycle the replayed timestamps repeat; the log keeps
        # only the strictly increasing prefix
        with RecordLog(tmp_path / "t.csv", BITSTAMP_TICKER) as log:
            count = poll(_config(replay_server, BITSTAMP_TICKER), log, threading.Event(), max_polls=5)
            assert count == 3
            assert len(log.read()) == 3

    def test_cadence_holds_against_fetch_latency(self, monkeypatch):
        """Polls start at start + k * interval whatever the fetch takes, and
        a fetch that overruns deadlines skips those slots instead of bursting."""
        clock = SimpleNamespace(now=100.0)
        fetch_seconds = iter([0.2, 0.3, 2.5, 0.1, 0.0])
        fetch_starts = []

        def fake_fetch(config):
            fetch_starts.append(clock.now)
            clock.now += next(fetch_seconds)
            return object()

        class RecordingStop:
            def __init__(self):
                self.timeouts = []

            def is_set(self):
                return False

            def wait(self, timeout):
                self.timeouts.append(timeout)
                clock.now += timeout
                return False

        monkeypatch.setattr(client, "time", SimpleNamespace(monotonic=lambda: clock.now))
        monkeypatch.setattr(client, "fetch_once", fake_fetch)
        cfg = SourceConfig("fake", "http://unused/", BITSTAMP_TICKER, poll_interval=1.0)
        stop = RecordingStop()
        assert poll(cfg, [], stop, max_polls=5) == 5
        assert stop.timeouts == pytest.approx([0.8, 0.7, 0.5, 0.9])
        # the 2.5 s fetch at 102 overran the slots at 103 and 104
        assert fetch_starts == pytest.approx([100.0, 101.0, 102.0, 105.0, 106.0])

    def test_concurrent_pollers_one_writer_each(self, replay_server, tmp_path):
        results = {}

        def run(schema):
            with RecordLog(tmp_path / f"{schema}.csv", schema) as sink:
                results[schema] = poll(
                    _config(replay_server, schema), sink, threading.Event(), max_polls=3
                )

        threads = [
            threading.Thread(target=run, args=(s,))
            for s in (BITSTAMP_TICKER, MARKETCAP_SNAPSHOT, BLOCKCHAIN_QUOTES)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {
            BITSTAMP_TICKER: 3,
            MARKETCAP_SNAPSHOT: 3,
            BLOCKCHAIN_QUOTES: 3,
        }


class TestSourceConfig:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SourceConfig("x", "http://h/", BITSTAMP_TICKER, poll_interval=0.0)

    def test_rejects_relative_url(self):
        with pytest.raises(ValueError):
            SourceConfig("x", "ticker", BITSTAMP_TICKER)

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            SourceConfig("x", "http://h/", "order_book")

    def test_load_sources_fixture(self, fixtures_dir):
        sources = load_sources(fixtures_dir / "sources.json")
        assert {s.schema for s in sources} == {
            BITSTAMP_TICKER,
            MARKETCAP_SNAPSHOT,
            BLOCKCHAIN_QUOTES,
        }
        assert all(s.poll_interval > 0 for s in sources)


def test_tweets_endpoint_serves_posts(replay_server):
    import urllib.request

    from btcforecast.ingest.replay import TWEETS_PATH

    with urllib.request.urlopen(replay_server.base_url + TWEETS_PATH) as resp:
        body = resp.read().decode("utf-8")
    assert body.splitlines()[0] == '"timestamp","source","text"'
