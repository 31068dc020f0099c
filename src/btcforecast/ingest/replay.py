"""Local replay server: serves recorded API payloads from a fixtures
directory at the same paths as the real exchanges, with fault injection
via query parameters so tests never touch live endpoints.

Fixture layout: <fixtures>/<schema>/NNN.json, served in sorted order and
cycled per request.

Query parameters:
    fault=garbage | status:<code> | drop:<field> | corrupt:<field>
    fault_at=<k>   apply the fault only at per-path request index k
                   (0-based; fault defaults to garbage)
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from .sources import BITSTAMP_TICKER, BLOCKCHAIN_QUOTES, MARKETCAP_SNAPSHOT

ROUTES = {
    "/api/v2/ticker/btcusd/": BITSTAMP_TICKER,
    "/v1/ticker/bitcoin/": MARKETCAP_SNAPSHOT,
    "/ticker": BLOCKCHAIN_QUOTES,
}
# How often serve_forever checks for shutdown; stop() waits up to this long.
_SHUTDOWN_POLL_S = 0.05


class ReplayServer:
    def __init__(self, fixtures_dir: str | Path, host: str = "127.0.0.1", port: int = 0):
        self.fixtures_dir = Path(fixtures_dir)
        self._counters: dict[str, int] = {}
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # keep test output quiet
                pass

            def do_GET(self):
                outer._serve(self)

        # one thread serves every request, so _lock guards only against
        # reset() on the caller's thread
        self._server = HTTPServer((host, port), Handler)
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def url_for(self, schema: str, query: str = "") -> str:
        for path, s in ROUTES.items():
            if s == schema:
                return self.base_url + path + (f"?{query}" if query else "")
        raise ValueError(f"no route serves schema {schema!r}")

    def start(self) -> "ReplayServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, args=(_SHUTDOWN_POLL_S,), daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:  # shutdown() waits for serve_forever to end
            self._server.shutdown()
            self._thread.join(timeout=2)
        self._server.server_close()

    def __enter__(self) -> "ReplayServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()

    def _next_index(self, path: str) -> int:
        with self._lock:
            idx = self._counters.get(path, 0)
            self._counters[path] = idx + 1
        return idx

    def _serve(self, handler: BaseHTTPRequestHandler) -> None:
        parts = urlsplit(handler.path)
        path = parts.path
        params = parse_qs(parts.query)
        index = self._next_index(path)

        fault = params.get("fault", [None])[0]
        fault_at = params.get("fault_at", [None])[0]
        if fault_at is not None:
            if index == int(fault_at):
                fault = fault or "garbage"
            else:
                fault = None

        schema = ROUTES.get(path)
        if schema is None:
            self._respond(handler, 404, b"unknown path")
            return
        payload_files = sorted((self.fixtures_dir / schema).glob("*.json"))
        if not payload_files:
            self._respond(handler, 404, b"no fixtures for path")
            return

        if fault == "garbage":
            self._respond(handler, 200, b"{this is not json", "application/json")
            return
        if fault and fault.startswith("status:"):
            self._respond(handler, int(fault.split(":", 1)[1]), b"injected error")
            return

        payload = json.loads(payload_files[index % len(payload_files)].read_text("utf-8"))
        if fault and fault.startswith("drop:"):
            payload.pop(fault.split(":", 1)[1], None)
        elif fault and fault.startswith("corrupt:"):
            payload[fault.split(":", 1)[1]] = "abc"
        body = json.dumps(payload).encode("utf-8")
        self._respond(handler, 200, body, "application/json")

    @staticmethod
    def _respond(handler, status: int, body: bytes, content_type: str = "text/plain") -> None:
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)
