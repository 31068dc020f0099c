from __future__ import annotations

import json
from pathlib import Path

import pytest

from btcforecast.sentiment import Lexicon

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
FIXTURES_DIR = REPO_ROOT / "fixtures"

# an unclosed file (or socket) left behind by a test here fails that test
_LEAK_FILTERS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        if TESTS_DIR in item.path.parents:
            for spec in _LEAK_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(spec))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES_DIR


@pytest.fixture(scope="session")
def bitstamp_payload() -> dict:
    return json.loads((FIXTURES_DIR / "bitstamp_ticker" / "000.json").read_text("utf-8"))


@pytest.fixture(scope="session")
def example_lexicon() -> Lexicon:
    # the two-word lexicon used throughout the scoring examples
    return Lexicon({"good": 0.7, "bad": -0.7})


@pytest.fixture()
def replay_server(fixtures_dir):
    from btcforecast.ingest import ReplayServer

    with ReplayServer(fixtures_dir) as server:
        yield server
