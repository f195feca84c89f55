import math

import pytest

from coldspin.csvio import read_table, write_table
from coldspin.errors import ValidationError

COLUMNS = {"time_s": float, "count": int}


def test_fields_are_formatted_by_declared_type(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, COLUMNS, [(1, 2), (0.5, 3)])
    assert path.read_bytes() == (
        b"time_s,count\n1.00000000000e+00,2\n5.00000000000e-01,3\n"
    )
    with pytest.raises(ValueError):
        write_table(path, COLUMNS, [(0.5, 2.0)])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_float_fields_are_refused_before_the_file_opens(tmp_path, value):
    path = tmp_path / "t.csv"
    rows = ((t, n) for t, n in [(0.5, 1), (value, 2)])  # a generator is checked too
    with pytest.raises(ArithmeticError, match=f"row 3: time_s is {value!r}, not finite") as info:
        write_table(path, COLUMNS, rows)
    assert str(path) in str(info.value)
    assert not path.exists()


def test_round_trip_parses_by_column_type(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, COLUMNS, [(0.25, 7)])
    assert read_table(path, COLUMNS) == [(0.25, 7)]
    assert read_table(path, COLUMNS, record=lambda t, n: n) == [7]


def test_blank_lines_and_crlf_are_accepted(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"\ntime_s,count\r\n1.0,1\r\n\r\n  \n2.0,2\r\n\n")
    assert read_table(path, COLUMNS) == [(1.0, 1), (2.0, 2)]


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "is empty"),
        ("\n\n", "is empty"),
        ("time_s,count\n", "no data rows"),
        ("time_s;count\n1,1\n", "row 1: header"),
        ("time_s,count\n1.0,1\n1.0\n", "row 3: expected 2 fields, got 1"),
        ("time_s,count\n\n1.0,1.5\n", "row 3: count must be int"),
        ("time_s,count\nx,1\n", "row 2: time_s must be float"),
        ('time_s,count\n"1.0",1\n', "row 2: time_s"),
        ("time_s,count\n1.0,1\nnan,1\n", "row 3: time_s must be finite, got 'nan'"),
        ("time_s,count\n\ninf,1\n", "row 3: time_s must be finite, got 'inf'"),
        ("time_s,count\n-inf,1\n", "row 2: time_s must be finite, got '-inf'"),
    ],
    ids=["empty", "blank", "header-only", "header", "fields", "int", "float", "quoted",
         "nan", "inf", "-inf"],
)
def test_errors_name_the_file_and_row(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=message) as excinfo:
        read_table(path, COLUMNS)
    assert str(path) in str(excinfo.value)


def test_record_errors_name_the_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("time_s,count\n1.0,1\n-1.0,1\n")

    def record(time_s, count):
        if time_s < 0:
            raise ValidationError("time_s must be >= 0")
        return time_s

    with pytest.raises(ValidationError, match="row 3: time_s must be >= 0"):
        read_table(path, COLUMNS, record)


def test_unreadable_files_raise_validation_error(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        read_table(tmp_path / "absent.csv", COLUMNS)
    (tmp_path / "binary.csv").write_bytes(b"\xff\xfe\x00")
    with pytest.raises(ValidationError, match="cannot read"):
        read_table(tmp_path / "binary.csv", COLUMNS)
