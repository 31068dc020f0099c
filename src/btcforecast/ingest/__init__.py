"""Exchange-style market data ingestion against live or replayed APIs."""

from .client import FetchError, fetch_once, poll
from .recordlog import OutOfOrderError, RecordLog
from .replay import ROUTES, TWEETS_PATH, ReplayServer
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
    "TWEETS_PATH",
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
