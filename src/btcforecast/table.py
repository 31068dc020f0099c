"""The one CSV-table reader behind every CSV file the program loads."""

from __future__ import annotations

import csv
from collections.abc import Callable, Iterator
from pathlib import Path


class HeaderError(ValueError):
    """A table's header lacks a required column (or, when exact, differs)."""


def read_table(
    path: str | Path, columns: dict[str, Callable[[str], object]], exact: bool = False
) -> Iterator[tuple[int, list]]:
    """Yield (line number, values) for each row of the CSV table at path.

    columns maps each required column to the converter of its fields (int,
    float, str, ...); values holds the converted fields of those columns, in
    that order. The header must name every required column (with exact, only
    those, in that order), and every row must have as many fields as the
    header; blank lines are skipped. A violation, a field its converter
    rejects, malformed CSV or bytes that are not UTF-8 raise a one-line
    ValueError naming the file and, where known, the column or the line.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            yield from _rows(path, reader, columns, exact)
        except csv.Error as e:  # e.g. a field over the csv field size limit
            raise ValueError(f"{path}:{reader.line_num}: {e}") from None
        except UnicodeDecodeError as e:  # decoded a chunk ahead: no line to name
            raise ValueError(f"{path}: {e}") from None


def _rows(path, reader, columns: dict, exact: bool) -> Iterator[tuple[int, list]]:
    header = next(reader, [])
    expected = ",".join(columns)
    if exact and header != list(columns):
        raise HeaderError(f"{path}: expected header {expected}, got {','.join(header)}")
    for name in columns:
        if name not in header:
            raise HeaderError(f"{path}: missing column {name!r} (expected {expected})")
    width = len(header)
    fields = [(name, convert, header.index(name)) for name, convert in columns.items()]
    for row in reader:
        if len(row) != width:
            if not row:
                continue
            raise ValueError(f"{path}:{reader.line_num}: expected {width} fields, got {len(row)}")
        try:
            values = [convert(row[i]) for _, convert, i in fields]
        except ValueError:
            for name, convert, i in fields:
                try:
                    convert(row[i])
                except ValueError as e:
                    raise ValueError(f"{path}:{reader.line_num}: column {name!r}: {e}") from None
            raise
        yield reader.line_num, values
