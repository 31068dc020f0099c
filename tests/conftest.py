from __future__ import annotations

import json
import os
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


@pytest.fixture(autouse=True)
def _no_child_process_left():
    """A test that leaves a child process behind, running or unreaped, fails."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = f"pid {pid}, now reaped" if pid else "still running"
    pytest.fail(f"the test left a child process behind ({state})")


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
def fit_calls(monkeypatch) -> list[int]:
    """Patch arima.fit, as rolling_forecast calls it, to record the length
    of each series it fits."""
    from btcforecast import arima

    calls = []
    original = arima.fit

    def counted(series, *args, **kwargs):
        calls.append(len(series))
        return original(series, *args, **kwargs)

    monkeypatch.setattr(arima, "fit", counted)
    return calls


@pytest.fixture()
def replay_server(fixtures_dir):
    from btcforecast.ingest import ReplayServer

    with ReplayServer(fixtures_dir) as server:
        yield server
