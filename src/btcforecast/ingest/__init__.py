"""Exchange-style market data ingestion against live or replayed APIs."""

from .client import FetchError, fetch_once, poll
from .recordlog import OutOfOrderError, RecordLog
from .replay import ROUTES, ReplayServer
from .sources import (
    BITSTAMP_TICKER,
    BLOCKCHAIN_QUOTES,
    MARKETCAP_SNAPSHOT,
    SCHEMAS,
    SchemaError,
    SourceConfig,
    load_sources,
    parse_payload,
)

__all__ = [
    "BITSTAMP_TICKER",
    "BLOCKCHAIN_QUOTES",
    "MARKETCAP_SNAPSHOT",
    "SCHEMAS",
    "ROUTES",
    "FetchError",
    "OutOfOrderError",
    "RecordLog",
    "ReplayServer",
    "SchemaError",
    "SourceConfig",
    "fetch_once",
    "load_sources",
    "parse_payload",
    "poll",
]
