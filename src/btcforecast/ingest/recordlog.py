"""Durable on-disk record logs: CSV with a schema-specific header, one line
per record, strictly timestamp-ordered. One writer per log; concurrent
readers see a consistent prefix."""

from __future__ import annotations

import csv
import io
from pathlib import Path

from ..table import read_table
from .sources import SCHEMAS, record_timestamp, record_to_row, row_to_record


class OutOfOrderError(ValueError):
    """Record timestamp does not advance the log; the record is dropped."""


class RecordLog:
    def __init__(self, path: str | Path, schema: str):
        if schema not in SCHEMAS:
            raise ValueError(f"unknown schema {schema!r}")
        self.path = Path(path)
        self.schema = schema
        self.columns = SCHEMAS[schema].log_columns
        self._last_timestamp: int | None = None
        if self.path.exists() and self.path.stat().st_size > 0:
            # every field of every row is parsed, as read() does, but only
            # the last ordering key is kept
            key = self.columns.index(SCHEMAS[schema].key_column)
            for _, values in self._rows():
                self._last_timestamp = values[key]
            self._handle = open(self.path, "a", encoding="utf-8", newline="")
        else:
            self._handle = open(self.path, "w", encoding="utf-8", newline="")
            self._write_row(list(self.columns))

    def _write_row(self, row: list[str]) -> None:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(row)
        self._handle.write(buf.getvalue())
        self._handle.flush()

    def append(self, record) -> None:
        """Append one record; rejects timestamps that do not strictly advance."""
        ts = record_timestamp(record)
        if self._last_timestamp is not None and ts <= self._last_timestamp:
            raise OutOfOrderError(
                f"timestamp {ts} does not advance log (last {self._last_timestamp})"
            )
        self._write_row(record_to_row(self.schema, record))
        self._last_timestamp = ts

    def _rows(self):
        """(line number, parsed fields) of each record in the log; the
        header must be the schema's."""
        return read_table(self.path, SCHEMAS[self.schema].converters, exact=True)

    def read(self) -> list:
        """Re-read every record currently in the log, in order."""
        return [row_to_record(self.schema, values) for _, values in self._rows()]

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.read())
