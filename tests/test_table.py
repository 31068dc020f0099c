from __future__ import annotations

import pytest

from btcforecast.table import HeaderError, read_table

COLUMNS = {"time": int, "price": float}


def _table(tmp_path, text: str | bytes):
    path = tmp_path / "t.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return path


def test_rows_come_in_column_order_converted_with_line_numbers(tmp_path):
    # a quoted field spanning two lines: the row is numbered by its last line
    path = _table(tmp_path, 'price,note,time\n1.5,"a\nb",60\n\n2.5,c,120\n')
    assert list(read_table(path, COLUMNS)) == [(3, [60, 1.5]), (5, [120, 2.5])]


@pytest.mark.parametrize(
    "text, exact, error, message",
    [
        ("", False, HeaderError, r"t\.csv: missing column 'time'"),
        ("time,volume\n1,2\n", False, HeaderError, r"t\.csv: missing column 'price'"),
        ("price,time\n1,2\n", True, HeaderError, r"t\.csv: expected header time,price, got price,time"),
        ("time,price\n60,1\n120\n", False, ValueError, r"t\.csv:3: expected 2 fields, got 1"),
        ("time,price\n60,1,7\n", False, ValueError, r"t\.csv:2: expected 2 fields, got 3"),
        ("time,price\n60,abc\n", False, ValueError, r"t\.csv:2: column 'price': could not convert"),
        ('time,price\n60,1\n120,"' + "9" * 200_000 + '"\n', False, ValueError, r"t\.csv:3: field larger"),
        (b"time,price\n60,\xe9\n", False, ValueError, r"t\.csv: 'utf-8' codec can't decode"),
    ],
)
def test_malformed_table_is_one_line_error(tmp_path, text, exact, error, message):
    with pytest.raises(error, match=message) as excinfo:
        list(read_table(_table(tmp_path, text), COLUMNS, exact=exact))
    assert len(str(excinfo.value).splitlines()) == 1
