"""Source configuration and payload schemas.

Three payload schemas are supported: bitstamp_ticker (the 10 ticker
fields), marketcap_snapshot (the 8 market-stats fields), and
blockchain_quotes (the 3 USD quote fields). Coinbase-style sources are
just another bitstamp_ticker-shaped feed.

A schema is one table of (payload key, log column, kind) rows in
log-column order, and a record is a dict from log column to value, in
that order: the row it is written as. A kind says how a field parses:
text (a JSON string of at most 1024 characters, none a control character
or a lone surrogate, kept as is), time (the record's ordering key, an
integer that fits in 64 bits, kept exact, by table.int64_field; a
fractional number is truncated), number (finite, by table.number_field)
or price (finite and > 0, by table.price_field). A log reopens through the
same table rules.
A record is only built when every field of its schema is present and
parses, so no partial records ever reach a log, and every record written
reopens.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from ..table import int64_field, number_field, price_field

BITSTAMP_TICKER = "bitstamp_ticker"
MARKETCAP_SNAPSHOT = "marketcap_snapshot"
BLOCKCHAIN_QUOTES = "blockchain_quotes"

TEXT, TIME, NUMBER, PRICE = "text", "time", "number", "price"

# a text field is a JSON string of at most _MAX_TEXT_CHARS characters (the
# csv reader refuses a field past 131072 when the log is reopened) without
# C0 or C1 control characters (the log writer leaves a CR unquoted, which
# splits the row) or lone surrogates (no UTF-8 encoding)
_MAX_TEXT_CHARS = 1024
_UNWRITABLE_TEXT = re.compile(r"[\x00-\x1f\x7f-\x9f\ud800-\udfff]")


class SchemaError(ValueError):
    """A required payload field is missing, non-numeric, or invalid."""

    def __init__(self, field: str, reason: str = "missing or invalid"):
        self.field = field
        super().__init__(f"{reason}: {field}")


@dataclass(frozen=True)
class SourceConfig:
    name: str
    base_url: str
    schema: str
    poll_interval: float = 60.0

    def __post_init__(self):
        if not 0 < self.poll_interval < math.inf:
            raise ValueError("poll_interval must be finite and > 0")
        if not (self.base_url.startswith("http://") or self.base_url.startswith("https://")):
            raise ValueError(f"base_url must be absolute: {self.base_url!r}")
        if self.schema not in SCHEMAS:
            raise ValueError(f"unknown schema {self.schema!r}")


# each schema's (payload key, log column, kind) rows, in log-column order;
# every schema has exactly one time column
SCHEMAS: dict[str, tuple[tuple[str, str, str], ...]] = {
    BITSTAMP_TICKER: (
        ("high", "high", PRICE),
        ("last", "last", PRICE),
        ("timestamp", "timestamp", TIME),
        ("bid", "bid", PRICE),
        ("vwap", "vwap", PRICE),
        ("volume", "volume", NUMBER),
        ("low", "low", PRICE),
        ("ask", "ask", PRICE),
        ("open", "open", PRICE),
        ("datetime", "datetime", TEXT),
    ),
    MARKETCAP_SNAPSHOT: (
        ("price_usd", "price_usd", PRICE),
        ("24h_volume_usd", "24h_volume_usd", NUMBER),
        ("market_cap_usd", "market_cap_usd", NUMBER),
        ("available_supply", "available_supply", NUMBER),
        ("total_supply", "total_supply", NUMBER),
        ("percent_change_1h", "percentage_change_1h", NUMBER),
        ("percent_change_24h", "percentage_change_24h", NUMBER),
        ("percent_change_7d", "percentage_change_7d", NUMBER),
        ("created", "created", TIME),
    ),
    BLOCKCHAIN_QUOTES: (
        ("usd_sell", "usd_sell", PRICE),
        ("usd_buy", "usd_buy", PRICE),
        ("usd_15m", "usd_15m", PRICE),
        ("created", "created", TIME),
    ),
}


def parse_payload(schema: str, payload: dict) -> dict[str, str | int | float]:
    """Validate a decoded JSON payload against a schema and build the record.

    Raises SchemaError naming the first offending payload key.
    """
    record: dict[str, str | int | float] = {}
    for key, column, kind in SCHEMAS[schema]:
        if key not in payload:
            raise SchemaError(key, "missing required field")
        raw = payload[key]
        if kind == TEXT:
            if not isinstance(raw, str):
                raise SchemaError(key, "non-string text field")
            if len(raw) > _MAX_TEXT_CHARS:
                raise SchemaError(key, f"text field longer than {_MAX_TEXT_CHARS} characters")
            if _UNWRITABLE_TEXT.search(raw):
                raise SchemaError(key, "control character or lone surrogate in text field")
            record[column] = raw
            continue
        if isinstance(raw, bool):  # float(True) would read as 1.0
            raise SchemaError(key, "non-numeric field")
        try:
            num = price_field(raw) if kind == PRICE else number_field(raw)
            if kind == TIME:
                # an integer, or an integer string, stays exact (past 2**53
                # its float is rounded); a fractional number is truncated
                with contextlib.suppress(ValueError):
                    num = int(raw)
                num = int64_field(num)
        except OverflowError:  # a JSON integer past the float range
            raise SchemaError(key, "non-finite field") from None
        except TypeError:  # null, a list or an object
            raise SchemaError(key, "non-numeric field") from None
        except ValueError as e:
            raise SchemaError(key, str(e)) from None
        record[column] = num
    if schema == MARKETCAP_SNAPSHOT and record["available_supply"] > record["total_supply"]:
        raise SchemaError("available_supply", "exceeds total_supply")
    return record


def load_sources(path: str | Path) -> list[SourceConfig]:
    """Read a JSON config file: a list of source objects with string name,
    base_url and schema fields and an optional poll_interval_s (default 60).
    A malformed file raises a one-line ValueError naming the file and the
    offending entry."""
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # not JSON, not UTF-8, or nested too deep
        raise ValueError(f"{path}: {e}") from None
    if not isinstance(entries, list):
        raise ValueError(f"{path}: expected a JSON list of sources, got {type(entries).__name__}")
    configs = []
    for i, entry in enumerate(entries):
        try:
            configs.append(_source_config(entry))
        except ValueError as e:
            raise ValueError(f"{path}: entry {i}: {e}") from None
        if configs[-1].name in {c.name for c in configs[:-1]}:
            # each source writes the log <name>.csv, which one writer owns
            raise ValueError(f"{path}: entry {i}: duplicate name {configs[-1].name!r}")
    return configs


def _source_config(entry) -> SourceConfig:
    if not isinstance(entry, dict):
        raise ValueError(f"expected an object, got {type(entry).__name__}")
    for key in ("name", "base_url", "schema"):
        if not isinstance(entry.get(key), str):
            raise ValueError(f"{key!r} must be a string")
    if "/" in entry["name"]:  # the name is a file name: the log <out-dir>/<name>.csv
        raise ValueError(f"'name' must not contain '/', got {entry['name']!r}")
    interval = entry.get("poll_interval_s", 60.0)
    try:
        if isinstance(interval, bool):  # float(True) would read as 1.0
            raise TypeError
        interval = float(interval)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"'poll_interval_s' must be a number, got {interval!r}") from None
    return SourceConfig(entry["name"], entry["base_url"], entry["schema"], interval)
