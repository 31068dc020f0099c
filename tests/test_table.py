from __future__ import annotations

import math

import pytest

from btcforecast.dataset import MergedSeries
from btcforecast.evaluation import ForecastReport, compare, emit_plot_data
from btcforecast.sentiment import write_sentiment_log
from btcforecast.table import (
    HeaderError,
    int64_field,
    number_field,
    polarity_field,
    price_field,
    read_table,
    time_ordered,
)

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
        ('"time,price\n60,1\n', True, HeaderError, r"t\.csv: expected header time,price, got 'time,price\\n60,1\\n'"),
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


def test_an_error_about_a_long_field_quotes_only_its_start(tmp_path):
    path = _table(tmp_path, "time,price\n60,1\n120," + "x" * 100_000 + "\n")
    with pytest.raises(ValueError) as excinfo:
        list(read_table(path, {"time": int64_field, "price": price_field}))
    message = str(excinfo.value)
    assert message.startswith(f"{path}:3: column 'price': could not convert string to float: 'xxx")
    assert message.endswith("... (100000 characters)")
    assert len(message) < 200


# each field rule on each field: the value it reads, or None where it
# refuses the field with a ValueError
_FIELDS = ("0", "-0.0", "nan", "inf", "1e309", "-1.0000001", "9" * 25)
_RULES = {
    int64_field: (0, None, None, None, None, None, None),  # "9" * 25 is past 64 bits
    number_field: (0.0, -0.0, None, None, None, -1.0000001, 1e25),
    price_field: (None, None, None, None, None, None, 1e25),
    polarity_field: (0.0, -0.0, None, None, None, None, None),
}


@pytest.mark.parametrize(
    "rule, field, expected",
    [(rule, field, value) for rule, values in _RULES.items() for field, value in zip(_FIELDS, values)],
    ids=[f"{rule.__name__}-{field[:8]}" for rule in _RULES for field in _FIELDS],
)
def test_field_rule_accepts_or_refuses(rule, field, expected):
    if expected is None:
        with pytest.raises(ValueError):
            rule(field)
    else:
        assert repr(rule(field)) == repr(expected)  # repr tells -0.0 from 0.0, and 0 from 0.0


@pytest.mark.parametrize("strict, passed, message", [
    (False, 3, r"t\.csv:5: price input must be time-ordered \(90 after 120\)$"),
    (True, 2, r"t\.csv:4: price input must be strictly time-ordered \(120 after 120\)$"),
], ids=["non-decreasing", "strict"])
def test_time_ordered_checks_the_time_it_is_given(tmp_path, strict, passed, message):
    # the time is the second value; an equal time passes only when not strict
    path = _table(tmp_path, "price,time\n1.5,60\n2.5,120\n3.5,120\n4.5,90\n")
    rows = time_ordered(path, read_table(path, {"price": float, "time": int64_field}), "price", strict, key=1)
    seen = []
    with pytest.raises(ValueError, match=message):
        for row in rows:
            seen.append(row)
    assert seen == [(2, [1.5, 60]), (3, [2.5, 120]), (4, [3.5, 120])][:passed]


def _writers():
    """(name, write(path), expected bytes) of every writer built on
    write_table; the bytes were recorded before the writers shared it."""
    series = MergedSeries([60, 120, 180], [6500.5, math.nan, 1 / 3], [0.1, -1.0, 0.0])
    records = [(5, 0.7, "Positive"), (9, -1 / 3, "Negative")]
    report = ForecastReport("arima(1,1,1)", [60, 120], [1.5, 0.1], [1.25, 0.2], 0.5, 12.25)
    naive = ForecastReport("naive_last_value", [60, 120], [1.5, 0.1], [1.5, 1.5])
    trained = ForecastReport("lstm_single", [60, 120], [1.5, 0.1], [1.25, 0.2], losses=[0.5, 1e-7, 2 / 3])
    table = compare([report, naive])
    merged = b"time,price,sentiment\n60,6500.5,0.1\n120,,-1.0\n180,0.3333333333333333,0.0\n"
    return [
        ("merged", series.to_csv, merged),
        ("sentiment_log", lambda p: write_sentiment_log(p, records),
         b"timestamp,polarity,label\n5,0.7,Positive\n9,-0.3333333333333333,Negative\n"),
        ("normalized_series", lambda p: emit_plot_data("normalized_series", series, p),
         merged.replace(b"120,,", b"120,nan,")),
        ("train_loss", lambda p: emit_plot_data("train_loss", trained, p),
         b"epoch,loss\n0,0.5\n1,1e-07\n2,0.6666666666666666\n"),
        ("forecast_overlay", lambda p: emit_plot_data("forecast_overlay", report, p),
         b"time,actual,predicted\n60,1.5,1.25\n120,0.1,0.2\n"),
        ("comparison_timings", lambda p: table.to_csv(p, include_timings=True),
         b'model,mse,rmse,build_time_ms,train_or_fit_time_ms,winner\n'
         b'"arima(1,1,1)",0.036250000000000004,0.19039432764659772,0.5,12.25,1\n'
         b'naive_last_value,0.9799999999999999,0.9899494936611665,0.0,0.0,0\n'),
        ("comparison_metrics", lambda p: table.to_csv(p, include_timings=False),
         b'model,mse,rmse,winner\n"arima(1,1,1)",0.036250000000000004,0.19039432764659772,1\n'
         b'naive_last_value,0.9799999999999999,0.9899494936611665,0\n'),
    ]


@pytest.mark.parametrize("name, write, expected", _writers(), ids=[case[0] for case in _writers()])
def test_writer_output_is_byte_exact(tmp_path, name, write, expected):
    path = tmp_path / f"{name}.csv"
    write(path)
    assert path.read_bytes() == expected
