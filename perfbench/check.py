"""Output checks. Every check raises CheckError naming the file and what is
wrong; a sample whose outputs fail a check counts as a failed operation."""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

# Model RMSEs may move by float reassociation (another BLAS kernel, a
# reordered sum) but not by more: a wrong model misses by orders more.
RTOL = 1e-9
ATOL_USD = 1e-6
NAIVE_MODEL = "naive_last_value"


class CheckError(Exception):
    """An output file is missing, malformed or does not match its reference."""


def read_table(path: Path, header: tuple[str, ...]) -> list[list[str]]:
    """All data rows of a CSV file whose header must be exactly `header`;
    every row must have one non-empty field per column."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise CheckError(f"{path}: {e}") from None
    if not rows or tuple(rows[0]) != header:
        raise CheckError(f"{path}: header is not {','.join(header)}")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header) or not all(row):
            raise CheckError(f"{path}:{line}: partial record {row!r}")
    return rows[1:]


def expect_rows(path: Path, header: tuple[str, ...], count: int) -> list[list[str]]:
    rows = read_table(path, header)
    if len(rows) != count:
        raise CheckError(f"{path}: {len(rows)} rows, expected {count}")
    return rows


def parse_columns(path: Path, rows: list[list[str]], kinds: str, first_line: int = 2) -> None:
    """kinds has one letter per column: i (int), f (finite float), s (string).
    first_line is the file line of rows[0], for the diagnostic."""
    for line, row in enumerate(rows, start=first_line):
        for kind, value in zip(kinds, row):
            try:
                if kind == "i":
                    int(value)
                elif kind == "f" and not math.isfinite(float(value)):
                    raise ValueError("not finite")
            except ValueError:
                raise CheckError(f"{path}:{line}: bad value {value!r}") from None


def increasing(path: Path, values: list[int]) -> None:
    for k in range(1, len(values)):
        if values[k] <= values[k - 1]:
            raise CheckError(f"{path}:{k + 2}: timestamp {values[k]} does not advance")


def close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= RTOL * abs(expected) + ATOL_USD


def compare_rmses(got: dict[str, str], want: dict[str, str]) -> None:
    """RMSEs as printed (repr) by model ("command/model") against the
    recorded reference: the naive baseline must match digit for digit, the
    models within RTOL/ATOL_USD."""
    if set(got) != set(want):
        raise CheckError(f"models {sorted(got)}, expected {sorted(want)}")
    for model, expected in want.items():
        if model.rsplit("/", 1)[-1] == NAIVE_MODEL:
            ok = got[model] == expected
        else:
            ok = close(float(got[model]), float(expected))
        if not ok:
            raise CheckError(f"{model} RMSE {got[model]} does not match reference {expected}")


def forecast_rmse(path: Path, count: int) -> float:
    """RMSE of a forecast_overlay file with exactly `count` rows."""
    rows = expect_rows(path, ("time", "actual", "predicted"), count)
    parse_columns(path, rows, "iff")
    return math.sqrt(math.fsum((float(a) - float(p)) ** 2 for _, a, p in rows) / count)


def digest(base: Path, paths: list[Path]) -> dict[str, str]:
    """Path under base -> sha256 of its bytes, to compare artifacts across samples."""
    return {str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
