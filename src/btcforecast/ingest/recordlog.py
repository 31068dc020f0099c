"""Durable on-disk record logs: CSV with a schema-specific header, one line
per record, strictly ordered by the schema's time column. One writer per
log; concurrent readers see a consistent prefix."""

from __future__ import annotations

import csv
from pathlib import Path

from ..table import int64_field, number_field, price_field, read_table, time_ordered
from .sources import NUMBER, PRICE, SCHEMAS, TEXT, TIME

# each kind parses back from a log by the rule parse_payload built it with
_CONVERTERS = {TEXT: str, TIME: int64_field, NUMBER: number_field, PRICE: price_field}


class OutOfOrderError(ValueError):
    """Record timestamp does not advance the log; the record is dropped."""


class RecordLog:
    def __init__(self, path: str | Path, schema: str):
        if schema not in SCHEMAS:
            raise ValueError(f"unknown schema {schema!r}")
        self.path = Path(path)
        self.schema = schema
        fields = SCHEMAS[schema]
        self.columns = tuple(column for _, column, _ in fields)
        self._converters = {column: _CONVERTERS[kind] for _, column, kind in fields}
        self._time_column = next(column for _, column, kind in fields if kind == TIME)
        self._last_timestamp: int | None = None
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        if not fresh:
            # every field of every row is parsed, as read() does, and the
            # ordering key must advance on every line; only the last is kept
            key = self.columns.index(self._time_column)
            line = 1  # the header's, when the log holds no record
            for line, values in time_ordered(self.path, self._rows(), "record log", strict=True, key=key):
                self._last_timestamp = values[key]
            # a torn append can still parse (say, cut inside its last text
            # field), and the next append would be glued onto it
            with open(self.path, "rb") as f:
                f.seek(-1, 2)
                if f.read() != b"\n":
                    raise ValueError(f"{self.path}:{line}: last line has no line ending (a torn append?)")
        self._handle = open(self.path, "w" if fresh else "a", encoding="utf-8", newline="")
        self._writer = csv.writer(self._handle, lineterminator="\n")
        if fresh:
            self._write_row(list(self.columns))

    def _write_row(self, row: list[str]) -> None:
        # not table.write_table: a log is appended to and flushed one record
        # at a time, so that a crash leaves at most one partial line (the
        # writer passes each row to the handle in one write call)
        self._writer.writerow(row)
        self._handle.flush()

    def append(self, record: dict) -> None:
        """Append one record (a dict holding every log column); rejects
        timestamps that do not strictly advance."""
        ts = record[self._time_column]
        if self._last_timestamp is not None and ts <= self._last_timestamp:
            raise OutOfOrderError(
                f"timestamp {ts} does not advance log (last {self._last_timestamp})"
            )
        values = (record[column] for column in self.columns)
        self._write_row([v if isinstance(v, str) else repr(v) for v in values])
        self._last_timestamp = ts

    def _rows(self):
        """(line number, parsed fields) of each record in the log; the
        header must be the schema's."""
        return read_table(self.path, self._converters, exact=True)

    def read(self) -> list[dict]:
        """Re-read every record currently in the log, in order."""
        return [dict(zip(self.columns, values)) for _, values in self._rows()]

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
