"""Source configuration, record types, and payload schemas.

Three payload schemas are supported: bitstamp_ticker (the 10 ticker
fields), marketcap_snapshot (the 8 market-stats fields), and
blockchain_quotes (the 3 USD quote fields). Coinbase-style sources are
just another bitstamp_ticker-shaped feed. Each schema lists the payload
fields it requires; a record is only emitted when every one of them is
present and parses, so no partial records ever reach a log.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

BITSTAMP_TICKER = "bitstamp_ticker"
MARKETCAP_SNAPSHOT = "marketcap_snapshot"
BLOCKCHAIN_QUOTES = "blockchain_quotes"


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
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        if not (self.base_url.startswith("http://") or self.base_url.startswith("https://")):
            raise ValueError(f"base_url must be absolute: {self.base_url!r}")
        if self.schema not in SCHEMAS:
            raise ValueError(f"unknown schema {self.schema!r}")


@dataclass(frozen=True)
class PriceTick:
    """One ticker observation; raw feed values are stored as-is."""

    timestamp: int
    last: float
    high: float
    low: float
    open: float
    bid: float
    ask: float
    vwap: float
    volume: float
    datetime: str


@dataclass(frozen=True)
class MarketSnapshot:
    """One market-stats observation. Fields outside the producing schema's
    group stay None; within the group, everything is populated."""

    created: int
    price_usd: float | None = None
    volume_24h_usd: float | None = None
    market_cap_usd: float | None = None
    available_supply: float | None = None
    total_supply: float | None = None
    pct_change_1h: float | None = None
    pct_change_24h: float | None = None
    pct_change_7d: float | None = None
    usd_sell: float | None = None
    usd_buy: float | None = None
    usd_15m: float | None = None


@dataclass(frozen=True)
class _Schema:
    record_type: type
    # (payload key, record field, log column) triples, in log-column order
    field_map: tuple[tuple[str, str, str], ...]
    string_fields: frozenset[str] = frozenset()
    int_fields: frozenset[str] = frozenset()
    positive_fields: frozenset[str] = frozenset()

    @property
    def log_columns(self) -> tuple[str, ...]:
        return tuple(col for _, _, col in self.field_map)

    @property
    def converters(self) -> dict[str, type]:
        """Log column -> the type its fields parse to (str, int or float)."""
        return {
            col: str if field in self.string_fields else int if field in self.int_fields else float
            for _, field, col in self.field_map
        }

    @property
    def key_column(self) -> str:
        """The log column holding the ordering key (see record_timestamp)."""
        return "timestamp" if self.record_type is PriceTick else "created"


SCHEMAS: dict[str, _Schema] = {
    BITSTAMP_TICKER: _Schema(
        record_type=PriceTick,
        field_map=(
            ("high", "high", "high"),
            ("last", "last", "last"),
            ("timestamp", "timestamp", "timestamp"),
            ("bid", "bid", "bid"),
            ("vwap", "vwap", "vwap"),
            ("volume", "volume", "volume"),
            ("low", "low", "low"),
            ("ask", "ask", "ask"),
            ("open", "open", "open"),
            ("datetime", "datetime", "datetime"),
        ),
        string_fields=frozenset({"datetime"}),
        int_fields=frozenset({"timestamp"}),
        positive_fields=frozenset({"high", "last", "bid", "vwap", "low", "ask", "open"}),
    ),
    MARKETCAP_SNAPSHOT: _Schema(
        record_type=MarketSnapshot,
        field_map=(
            ("price_usd", "price_usd", "price_usd"),
            ("24h_volume_usd", "volume_24h_usd", "24h_volume_usd"),
            ("market_cap_usd", "market_cap_usd", "market_cap_usd"),
            ("available_supply", "available_supply", "available_supply"),
            ("total_supply", "total_supply", "total_supply"),
            ("percent_change_1h", "pct_change_1h", "percentage_change_1h"),
            ("percent_change_24h", "pct_change_24h", "percentage_change_24h"),
            ("percent_change_7d", "pct_change_7d", "percentage_change_7d"),
            ("created", "created", "created"),
        ),
        int_fields=frozenset({"created"}),
        positive_fields=frozenset({"price_usd"}),
    ),
    BLOCKCHAIN_QUOTES: _Schema(
        record_type=MarketSnapshot,
        field_map=(
            ("usd_sell", "usd_sell", "usd_sell"),
            ("usd_buy", "usd_buy", "usd_buy"),
            ("usd_15m", "usd_15m", "usd_15m"),
            ("created", "created", "created"),
        ),
        int_fields=frozenset({"created"}),
        positive_fields=frozenset({"usd_sell", "usd_buy", "usd_15m"}),
    ),
}


def parse_payload(schema: str, payload: dict) -> PriceTick | MarketSnapshot:
    """Validate a decoded JSON payload against a schema and build the record.

    Raises SchemaError naming the first offending field.
    """
    spec = SCHEMAS[schema]
    values: dict[str, object] = {}
    for key, field, _ in spec.field_map:
        if key not in payload:
            raise SchemaError(key, "missing required field")
        raw = payload[key]
        if field in spec.string_fields:
            values[field] = str(raw)
            continue
        try:
            num = float(raw)
        except (TypeError, ValueError):
            raise SchemaError(key, "non-numeric field") from None
        if not math.isfinite(num):
            raise SchemaError(key, "non-finite field")
        if field in spec.positive_fields and num <= 0:
            raise SchemaError(key, "must be > 0")
        values[field] = int(num) if field in spec.int_fields else num
    record = spec.record_type(**values)
    if isinstance(record, MarketSnapshot):
        if (
            record.available_supply is not None
            and record.total_supply is not None
            and record.available_supply > record.total_supply
        ):
            raise SchemaError("available_supply", "exceeds total_supply")
    return record


def record_timestamp(record: PriceTick | MarketSnapshot) -> int:
    """The ordering key for a record within its log."""
    return record.timestamp if isinstance(record, PriceTick) else record.created


def record_to_row(schema: str, record) -> list[str]:
    spec = SCHEMAS[schema]
    row = []
    for _, field, _ in spec.field_map:
        value = getattr(record, field)
        if value is None:
            raise SchemaError(field, "record is missing a schema field")
        row.append(value if isinstance(value, str) else repr(value))
    return row


def row_to_record(schema: str, values: list) -> PriceTick | MarketSnapshot:
    """Build a record from one log row, already parsed by the schema's
    converters."""
    spec = SCHEMAS[schema]
    return spec.record_type(**{field: v for (_, field, _), v in zip(spec.field_map, values)})


def load_sources(path: str | Path) -> list[SourceConfig]:
    """Read a JSON config file: a list of source entries."""
    entries = json.loads(Path(path).read_text(encoding="utf-8"))
    configs = []
    for entry in entries:
        configs.append(
            SourceConfig(
                name=entry["name"],
                base_url=entry["base_url"],
                schema=entry["schema"],
                poll_interval=float(entry.get("poll_interval_s", 60.0)),
            )
        )
    return configs
