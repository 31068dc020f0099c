"""The one CSV-table reader and writer behind the program's CSV files, and
the field rules its readers convert through: one rule per quantity (a time,
a price, a finite number, a polarity), and one check of time order."""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Iterable, Iterator
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
        got = ",".join(header)  # escaped if it holds a line break, to keep the error one line
        raise HeaderError(f"{path}: expected header {expected}, got {got if got.isprintable() else repr(got)}")
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


_QUOTED = 40  # the most characters of a field's repr an error quotes


def _bounded(error: ValueError, field: str | float) -> ValueError:
    """error, which int(field) or float(field) raised as "reason: repr", or,
    where the field's repr is longer than _QUOTED, the same reason quoting
    only the start of the field, so that a long field gives a short message."""
    quoted = repr(field)
    if len(quoted) <= _QUOTED:
        return error
    reason = str(error).split(": ", 1)[0]
    return ValueError(f"{reason}: {quoted[:_QUOTED]}... ({len(field)} characters)")


def int64_field(field: str | float) -> int:
    """An integer field (or a finite float, truncated) that fits the int64
    time column, so that an overflow is reported where it is read."""
    try:
        value = int(field)
    except ValueError as e:
        raise _bounded(e, field) from None
    if not -(2**63) <= value < 2**63:
        raise ValueError("timestamp must fit in a 64-bit integer")
    return value


def number_field(field: str) -> float:
    """The one rule for a number read from a file or a payload: finite."""
    try:
        value = float(field)
    except ValueError as e:
        raise _bounded(e, field) from None
    if not math.isfinite(value):
        raise ValueError(f"number must be finite, got {value}")
    return value


def price_field(field: str) -> float:
    """The one rule for a price read from a file or a payload: finite and > 0."""
    try:
        price = float(field)
    except ValueError as e:
        raise _bounded(e, field) from None
    if not 0.0 < price < math.inf:  # NaN fails both comparisons
        raise ValueError(f"price must be finite and > 0, got {price}")
    return price


def polarity_field(field: str | float) -> float:
    """The one rule for a polarity, read from a file or scored: in [-1, 1]
    (NaN is not)."""
    try:
        polarity = float(field)
    except ValueError as e:
        raise _bounded(e, field) from None
    if not -1.0 <= polarity <= 1.0:
        raise ValueError(f"polarity outside [-1, 1]: {polarity}")
    return polarity


def time_ordered(
    path: str | Path, rows: Iterable[tuple[int, list]], what: str, strict: bool = False, key: int = 0
) -> Iterator[tuple[int, list]]:
    """Pass on the (line number, values) rows of read_table, checking the
    time of each (values[key], an int64_field): one below the time before,
    or with strict one equal to it, is an error on its line."""
    least = 1 if strict else 0  # the least step from one time to the next
    last = -(2**63) - 1  # below every int64_field time
    for line, values in rows:
        t = values[key]
        if t - last < least:
            order = "strictly time-ordered" if strict else "time-ordered"
            raise ValueError(f"{path}:{line}: {what} input must be {order} ({t} after {last})")
        last = t
        yield line, values


def write_table(path: str | Path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """Write header, then each row of rows as it is produced, as a UTF-8 CSV
    table with LF line endings."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
