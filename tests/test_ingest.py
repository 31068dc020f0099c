from __future__ import annotations

import io
import json
import re
import math
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcforecast.ingest import client
from btcforecast.ingest import (
    BITSTAMP_TICKER,
    BLOCKCHAIN_QUOTES,
    MARKETCAP_SNAPSHOT,
    SCHEMAS,
    FetchError,
    OutOfOrderError,
    RecordLog,
    ReplayServer,
    SchemaError,
    SourceConfig,
    fetch_once,
    load_sources,
    parse_payload,
    poll,
)
from btcforecast.ingest.sources import PRICE, TEXT, TIME

TABLE2_FIELDS = ("high", "last", "timestamp", "bid", "vwap", "volume", "low", "ask", "open", "datetime")


FIXTURES_DIR = Path(__file__).resolve().parents[1] / "fixtures"
FIRST_PAYLOADS = {
    schema: json.loads((FIXTURES_DIR / schema / "000.json").read_text("utf-8")) for schema in SCHEMAS
}


def _columns(schema):
    return tuple(column for _, column, _ in SCHEMAS[schema])


# JSON values at and past the boundary of each field kind: numbers and
# numeric strings (past the float and int64 ranges, non-finite, malformed),
# other scalars, and lists and objects nesting them
_NUMBERS = st.one_of(
    st.integers(),
    st.integers(2**62, 10**400),
    st.floats(),
    st.floats().map(repr),
    st.integers(-(2**64), 2**64).map(str),
    st.sampled_from(["1e999", "-inf", "nan", "1e30", "0", "-1", "1_0", "0x1", " 7 ", "", "9" * 400,
                     "9223372036854775807", "9223372036854775808", "-9223372036854775809"]),
)
_SCALARS = st.one_of(_NUMBERS, st.none(), st.booleans(), st.text(max_size=4))
# strings for the text kind: any code point, lone surrogates and control
# characters included, and the edges of the length limit
_TEXTS = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=8),
    st.sampled_from(["\r", "\n", "\ud800", "a,b", '"', "\u2028", "x" * 1024, "x" * 1025, "x" * 200_000]),
)
_JSON_VALUES = st.one_of(
    _NUMBERS,
    _SCALARS,
    _TEXTS,
    st.lists(_SCALARS, max_size=2) | st.dictionaries(st.text(max_size=2), st.lists(_SCALARS, max_size=2), max_size=2),
)


@st.composite
def _payloads(draw, schema):
    """The schema's first fixture payload with up to three of its keys
    dropped or given a drawn value."""
    payload = dict(FIRST_PAYLOADS[schema])
    for key in draw(st.sets(st.sampled_from([key for key, _, _ in SCHEMAS[schema]]), max_size=3)):
        if draw(st.integers(0, 3)) == 0:
            del payload[key]
        else:
            payload[key] = draw(_JSON_VALUES)
    return payload


def _assert_record_of(schema, record):
    """record holds exactly the schema's log columns, each a value of its
    kind: text a str, time an int64, every number a finite float, prices > 0."""
    assert tuple(record) == _columns(schema)
    for _, column, kind in SCHEMAS[schema]:
        value = record[column]
        if kind == TEXT:
            assert type(value) is str
        elif kind == TIME:
            assert type(value) is int and -(2**63) <= value < 2**63
        else:
            assert type(value) is float and math.isfinite(value) and (kind != PRICE or value > 0)


def _assert_log_round_trip(schema, record):
    """A new log holding record reopens and reads back [record]."""
    with tempfile.TemporaryDirectory() as tmp:
        with RecordLog(Path(tmp) / "log.csv", schema) as log:
            log.append(record)
        with RecordLog(Path(tmp) / "log.csv", schema) as log:
            assert log.read() == [record]


def _serving(*bodies):
    """Patch urlopen to answer each request with the next of bodies."""
    answers = iter(bodies)
    return mock.patch.object(client.urllib.request, "urlopen", lambda url, timeout: io.BytesIO(next(answers)))


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
        assert tuple(tick) == TABLE2_FIELDS
        assert tick["timestamp"] == int(bitstamp_payload["timestamp"])
        assert tick["datetime"] == bitstamp_payload["datetime"]
        for field in ("high", "last", "bid", "vwap", "volume", "low", "ask", "open"):
            assert tick[field] == float(bitstamp_payload[field])

    def test_missing_field_names_it(self, bitstamp_payload):
        payload = dict(bitstamp_payload)
        del payload["vwap"]
        with pytest.raises(SchemaError, match="vwap"):
            parse_payload(BITSTAMP_TICKER, payload)

    def test_non_numeric_field_names_it(self, bitstamp_payload):
        payload = dict(bitstamp_payload) | {"last": "abc"}
        with pytest.raises(SchemaError, match="last"):
            parse_payload(BITSTAMP_TICKER, payload)

    def test_a_long_non_numeric_field_gives_a_short_error(self, bitstamp_payload):
        payload = dict(bitstamp_payload) | {"last": "x" * 200_000}
        with pytest.raises(SchemaError, match="last") as info:
            parse_payload(BITSTAMP_TICKER, payload)
        assert info.value.field == "last"
        assert str(info.value).endswith("... (200000 characters): last")
        assert len(str(info.value)) < 200

    def test_non_positive_price_rejected(self, bitstamp_payload):
        payload = dict(bitstamp_payload) | {"low": "-1.0"}
        with pytest.raises(SchemaError, match="low"):
            parse_payload(BITSTAMP_TICKER, payload)

    def test_marketcap_snapshot(self, fixtures_dir):
        payload = json.loads((fixtures_dir / "marketcap_snapshot" / "000.json").read_text())
        snap = parse_payload(MARKETCAP_SNAPSHOT, payload)
        assert tuple(snap) == _columns(MARKETCAP_SNAPSHOT)
        assert snap["price_usd"] == pytest.approx(6461.28)
        assert snap["24h_volume_usd"] == pytest.approx(4168760000.0)
        assert snap["percentage_change_7d"] == pytest.approx(-0.55)
        assert snap["created"] == 1537528980
        assert "usd_sell" not in snap  # not part of this schema

    def test_blockchain_quotes(self, fixtures_dir):
        payload = json.loads((fixtures_dir / "blockchain_quotes" / "000.json").read_text())
        snap = parse_payload(BLOCKCHAIN_QUOTES, payload)
        assert snap["usd_sell"] == pytest.approx(6450.21)
        assert snap["usd_buy"] == pytest.approx(6455.43)
        assert snap["usd_15m"] == pytest.approx(6452.84)
        assert "price_usd" not in snap

    def test_supply_invariant(self, fixtures_dir):
        payload = json.loads((fixtures_dir / "marketcap_snapshot" / "000.json").read_text())
        payload["available_supply"] = "99999999.0"
        with pytest.raises(SchemaError, match="available_supply"):
            parse_payload(MARKETCAP_SNAPSHOT, payload)

    @pytest.mark.parametrize("key, value", [
        ("last", 10**400),  # a JSON integer too large for a float
        ("last", True),  # a JSON boolean is not a number
        ("volume", False),
        ("timestamp", "1e30"),  # past 64 bits
        ("timestamp", 2**63),
        ("timestamp", -(2**63) - 1),  # its float is -2**63, which fits
    ])
    def test_value_outside_its_kind_names_the_key(self, bitstamp_payload, key, value):
        with pytest.raises(SchemaError, match=key) as info:
            parse_payload(BITSTAMP_TICKER, bitstamp_payload | {key: value})
        assert info.value.field == key

    @pytest.mark.parametrize("value", [
        "2018-09-21\r10:43:00",  # a CR is written unquoted: the log stops reopening
        "2018-09-21\n10:43:00",
        "\x00",
        "\x85",  # a C1 control character
        "\ud800",  # a lone surrogate has no UTF-8 encoding
        "x" * 1025,  # past the length limit
        {"a": 1},  # a JSON object was stored as "{'a': 1}"
        ["2018-09-21"],
        1537528988,
        None,
    ], ids=["cr", "lf", "nul", "c1", "surrogate", "1025-chars", "object", "list", "number", "null"])
    def test_text_field_outside_its_kind_names_the_key(self, bitstamp_payload, value):
        with pytest.raises(SchemaError, match="datetime") as info:
            parse_payload(BITSTAMP_TICKER, bitstamp_payload | {"datetime": value})
        assert info.value.field == "datetime"

    @pytest.mark.parametrize("text", ["", "2018-09-21 10:43:00", 'a,"b"', "\u2028\u00e9\U0001f600", "x" * 1024],
                             ids=["empty", "datetime", "csv-quoting", "non-ascii", "1024-chars"])
    def test_text_field_is_kept_as_is(self, bitstamp_payload, text):
        assert parse_payload(BITSTAMP_TICKER, bitstamp_payload | {"datetime": text})["datetime"] == text

    @settings(max_examples=100, deadline=None)
    @given(value=_TEXTS | _JSON_VALUES)
    def test_text_field_gives_a_record_that_reopens_or_names_the_key(self, bitstamp_payload, value):
        """Whatever a text field holds, the payload is rejected naming it,
        or its record is written and read back unchanged after a reopen."""
        try:
            record = parse_payload(BITSTAMP_TICKER, bitstamp_payload | {"datetime": value})
        except SchemaError as e:
            assert e.field == "datetime"
        else:
            assert record["datetime"] == value
            _assert_log_round_trip(BITSTAMP_TICKER, record)

    @pytest.mark.parametrize("schema", list(SCHEMAS))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_payload_gives_a_full_record_or_names_a_key(self, schema, data):
        """Any decoded payload gives a record of the schema's columns, each
        of its kind, which a RecordLog writes and reads back unchanged after
        a reopen, or a SchemaError naming one of the schema's keys."""
        try:
            record = parse_payload(schema, data.draw(_payloads(schema)))
        except SchemaError as e:
            assert e.field in {key for key, _, _ in SCHEMAS[schema]}
        else:
            _assert_record_of(schema, record)
            _assert_log_round_trip(schema, record)

    @pytest.mark.parametrize("column", ["last", "volume"], ids=["price", "number"])
    @settings(max_examples=100, deadline=None)
    @given(field=_NUMBERS.map(str) | st.text("0123456789+-._eEinfaINFx \t", max_size=8))
    def test_a_field_parses_exactly_when_its_log_row_reopens(self, bitstamp_payload, column, field):
        """The payload parser and the log reader take a numeric field by
        one rule, so they cannot drift apart."""
        try:
            record = parse_payload(BITSTAMP_TICKER, bitstamp_payload | {column: field})
        except SchemaError:
            record = None
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.csv"
            with RecordLog(path, BITSTAMP_TICKER) as log:  # append writes a str field as it is
                log.append(parse_payload(BITSTAMP_TICKER, bitstamp_payload) | {column: field})
            try:
                with RecordLog(path, BITSTAMP_TICKER) as log:
                    reopened = log.read()
            except ValueError:
                reopened = None
        assert reopened == (None if record is None else [record])

    @pytest.mark.parametrize("created, expected", [
        (1700000000123456789, 1700000000123456789),  # nanoseconds: its float ends in ...768
        ("1700000000123456789", 1700000000123456789),
        (2**63 - 1, 2**63 - 1),  # its float is 2**63
        (-(2**63), -(2**63)),
        (1537528988.9, 1537528988),  # a fractional number is truncated
        ("1537528988.9", 1537528988),
    ], ids=["ns", "ns-string", "2**63-1", "-2**63", "fractional", "fractional-string"])
    def test_integer_time_stays_exact_through_the_log(self, tmp_path, created, expected):
        record = parse_payload(BLOCKCHAIN_QUOTES, FIRST_PAYLOADS[BLOCKCHAIN_QUOTES] | {"created": created})
        assert record["created"] == expected
        with RecordLog(tmp_path / "quotes.csv", BLOCKCHAIN_QUOTES) as log:
            log.append(record)
        with RecordLog(tmp_path / "quotes.csv", BLOCKCHAIN_QUOTES) as log:
            assert log.read() == [record]

    def test_every_table_field_has_one_home(self):
        # Table 2 -> the ticker log, Table 1 -> split across the two
        # snapshot logs; no field is mapped twice
        assert _columns(BITSTAMP_TICKER) == TABLE2_FIELDS
        snapshot_columns = _columns(MARKETCAP_SNAPSHOT) + _columns(BLOCKCHAIN_QUOTES)
        value_columns = [c for c in snapshot_columns if c != "created"]
        assert len(value_columns) == len(set(value_columns)) == 11
        # each schema orders its log by exactly one time column
        assert all([kind for *_, kind in SCHEMAS[s]].count(TIME) == 1 for s in SCHEMAS)


class TestRecordLog:
    def _tick(self, bitstamp_payload, ts):
        return parse_payload(BITSTAMP_TICKER, bitstamp_payload) | {"timestamp": ts}

    def test_ordered_appends(self, tmp_path, bitstamp_payload):
        with RecordLog(tmp_path / "ticks.csv", BITSTAMP_TICKER) as log:
            log.append(self._tick(bitstamp_payload, 100))
            log.append(self._tick(bitstamp_payload, 160))
            records = log.read()
            assert len(records) == 2
            assert [r["timestamp"] for r in records] == [100, 160]

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
            assert [r["timestamp"] for r in log.read()] == [100, 150]

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

    @staticmethod
    def _set_field(path, line, column, value):
        """Replace one field of one line of a log written by _log_with."""
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[line - 1].split(",")
        fields[TABLE2_FIELDS.index(column)] = value
        lines[line - 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

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

    @pytest.mark.parametrize("records, cut, line", [(2, 4, 3), (2, 1, 3), (0, 1, 1)],
                             ids=["inside-the-last-field", "the-line-ending", "the-header-line-ending"])
    def test_reopen_rejects_a_last_line_without_a_line_ending(self, tmp_path, bitstamp_payload, records, cut, line):
        # a torn append that still parses: the next append would be glued
        # onto it, and the log would then no longer reopen
        path = tmp_path / "ticks.csv"
        self._log_with(path, bitstamp_payload, records)
        torn = path.read_bytes()[:-cut]
        path.write_bytes(torn)
        expected = rf"^{re.escape(str(path))}:{line}: last line has no line ending \(a torn append\?\)$"
        with pytest.raises(ValueError, match=expected):
            RecordLog(path, BITSTAMP_TICKER)
        assert path.read_bytes() == torn

    def test_reopen_rejects_unparseable_field(self, tmp_path, bitstamp_payload):
        path = tmp_path / "ticks.csv"
        self._log_with(path, bitstamp_payload, 2)
        self._set_field(path, 2, "timestamp", "12x")
        with pytest.raises(ValueError, match=r"ticks\.csv:2: column 'timestamp'"):
            RecordLog(path, BITSTAMP_TICKER)

    @pytest.mark.parametrize("column, value", [("last", "-3"), ("last", "0"), ("last", "nan"), ("last", "inf"),
                                               ("volume", "nan")])
    def test_a_logged_value_outside_its_kind_fails_to_reopen_and_read(self, tmp_path, bitstamp_payload, column, value):
        # a log takes the rules of the payloads its records are built from
        path = tmp_path / "ticks.csv"
        self._log_with(path, bitstamp_payload, 2)
        expected = rf"^{re.escape(str(path))}:3: column '{column}': "
        with RecordLog(path, BITSTAMP_TICKER) as log:
            self._set_field(path, 3, column, value)
            with pytest.raises(ValueError, match=expected):
                log.read()
        with pytest.raises(ValueError, match=expected):
            RecordLog(path, BITSTAMP_TICKER)

    def test_reopen_rejects_timestamp_past_64_bits(self, tmp_path, bitstamp_payload):
        path = tmp_path / "ticks.csv"
        with RecordLog(path, BITSTAMP_TICKER) as log:
            log.append(self._tick(bitstamp_payload, int(1e30)))  # a payload's "1e30", once let through
        with pytest.raises(ValueError, match=r"ticks\.csv:2: column 'timestamp': timestamp must fit in a 64-bit"):
            RecordLog(path, BITSTAMP_TICKER)

    @pytest.mark.parametrize("timestamp", [90, 100])
    def test_reopen_rejects_a_time_that_does_not_advance(self, tmp_path, bitstamp_payload, timestamp):
        # line 3 goes back to 90 (or repeats 100), as a hand-joined log could
        path = tmp_path / "ticks.csv"
        self._log_with(path, bitstamp_payload, 3)
        self._set_field(path, 3, "timestamp", str(timestamp))
        expected = rf"^{re.escape(str(path))}:3: record log input must be strictly time-ordered \({timestamp} after 100\)$"
        with pytest.raises(ValueError, match=expected):
            RecordLog(path, BITSTAMP_TICKER)

    def test_reopen_after_trailing_blank_line(self, tmp_path, bitstamp_payload):
        path = tmp_path / "ticks.csv"
        self._log_with(path, bitstamp_payload, 2, tail="\n")
        with RecordLog(path, BITSTAMP_TICKER) as log:
            log.append(self._tick(bitstamp_payload, 200))
            assert [r["timestamp"] for r in log.read()] == [100, 160, 200]

    def test_exact_bytes_across_a_reopen(self, tmp_path):
        # a text field with a comma and quotes is quoted with its quotes
        # doubled, an empty one is written as nothing, non-ASCII as UTF-8
        path = tmp_path / "ticks.csv"
        prices = {"high": 2.5, "last": 2.25, "bid": 2.0, "vwap": 2.125, "volume": 0.1,
                  "low": 1.5, "ask": 2.375, "open": 1.75}
        with RecordLog(path, BITSTAMP_TICKER) as log:
            for ts, text in ((100, 'a,"b"'), (160, ""), (220, "Bitcöin → 日本")):
                log.append(prices | {"timestamp": ts, "datetime": text})
        with RecordLog(path, BITSTAMP_TICKER) as log:
            log.append(prices | {"timestamp": 280, "volume": 1e-05, "datetime": "2018-04-03 10:00"})
        assert path.read_bytes() == (
            b"high,last,timestamp,bid,vwap,volume,low,ask,open,datetime\n"
            b'2.5,2.25,100,2.0,2.125,0.1,1.5,2.375,1.75,"a,""b"""\n'
            b"2.5,2.25,160,2.0,2.125,0.1,1.5,2.375,1.75,\n"
            b"2.5,2.25,220,2.0,2.125,0.1,1.5,2.375,1.75,Bitc\xc3\xb6in \xe2\x86\x92 \xe6\x97\xa5\xe6\x9c\xac\n"
            b"2.5,2.25,280,2.0,2.125,1e-05,1.5,2.375,1.75,2018-04-03 10:00\n"
        )

    def test_snapshot_log(self, tmp_path, fixtures_dir):
        payload = json.loads((fixtures_dir / "blockchain_quotes" / "000.json").read_text())
        snap = parse_payload(BLOCKCHAIN_QUOTES, payload)
        with RecordLog(tmp_path / "quotes.csv", BLOCKCHAIN_QUOTES) as log:
            log.append(snap)
            assert log.read() == [snap]


class TestReplayServer:
    def test_serving_several_requests_starts_no_thread(self, replay_server, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        cfg = _config(replay_server, BITSTAMP_TICKER)
        for _ in range(5):
            fetch_once(cfg)
        assert started == []

    def test_stop_before_start_returns(self, fixtures_dir):
        server = ReplayServer(fixtures_dir)
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()


class TestFetchOnce:
    def test_fetches_fixture_tick(self, replay_server):
        tick = fetch_once(_config(replay_server, BITSTAMP_TICKER))
        assert tuple(tick) == TABLE2_FIELDS
        assert tick["last"] == pytest.approx(6453.12)

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

    def test_deeply_nested_body_is_fetch_error(self):
        cfg = SourceConfig("deep", "http://unused/", BITSTAMP_TICKER)
        with _serving(b"[" * 100_000), pytest.raises(FetchError, match="deep: malformed response body"):
            fetch_once(cfg)

    @pytest.mark.parametrize("schema", list(SCHEMAS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_body_gives_a_record_or_a_handled_error(self, schema, data):
        """Every response body gives a full record, a FetchError or a
        SchemaError: the errors a poll logs and skips."""
        body = data.draw(st.one_of(
            st.binary(max_size=32),
            _payloads(schema).map(lambda payload: json.dumps(payload).encode("utf-8")),
            st.sampled_from([b"[" * 100_000, b'{"a":' * 100_000, b'{"last":' + b"9" * 5000 + b"}",
                             b"null", b"[]", b'"x"', b"1e999", b"\xff{}"]),
        ))
        with _serving(body):
            try:
                record = fetch_once(SourceConfig("fuzz", "http://unused/", schema))
            except (FetchError, SchemaError):
                return
        _assert_record_of(schema, record)

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
            assert [r["timestamp"] for r in records] == sorted(r["timestamp"] for r in records)

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
                        assert tick[field] is not None

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

