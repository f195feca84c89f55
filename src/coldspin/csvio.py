"""The one CSV table format of every coldspin file.

A table is a header line of column names, then one line per row.  Each
column declares a type: a float field is written with 12 significant
digits (".11e"), an int field as a plain decimal.  Lines end with "\\n".
format_table returns a table's bytes and opens no file: the CLI digests
and writes them.  It refuses a nan or inf float field with an
ArithmeticError (a numeric failure) that names the file, the row and the
column.  read_table checks the header, skips blank lines, checks each
row's field count and parses each field by its column's type, refusing
nan and inf; every error is a ValidationError that names the file and the
row.  Rows are numbered from the header, row 1.
"""

from __future__ import annotations

import math

from .errors import ValidationError

# Most elements of any one array a run allocates: a waveform's samples (the
# default pulse takes 500), the scan detunings, and the decay and expansion
# times; a scan detuning's two draws a run are held to it as the scan's
# size limit.  A value mistyped by orders of magnitude would otherwise
# allocate gigabytes.
MAX_ARRAY_SIZE = 2**22

_FORMATS = {float: "{:.11e}", int: "{:d}"}


def format_table(path, columns: Mapping[str, type], rows: Iterable) -> bytearray:
    """The bytes of rows under a header of the column names, each field
    formatted by its column's declared type (float or int).  path only
    names the file in the error a non-finite float field raises."""
    line = ",".join(_FORMATS[kind] for kind in columns.values()) + "\n"
    data = bytearray((",".join(columns) + "\n").encode())
    for number, row in enumerate(rows, start=2):
        for (name, kind), value in zip(columns.items(), row):
            if kind is float and not math.isfinite(value):
                raise ArithmeticError(f"{path} row {number}: {name} is {value!r}, not finite")
        data += line.format(*row).encode()
    return data


def read_table(path, columns: Mapping[str, type], record: Callable | None = None) -> list:
    """Rows of a table whose header is exactly the column names, each a
    tuple of fields parsed by their column's type, or record(*fields) when
    record is given (its errors name the row too)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise ValidationError(f"{path} is empty")
    (number, header), *body = lines
    if tuple(header.split(",")) != tuple(columns):
        raise ValidationError(
            f"{path} row {number}: header {header!r} does not match the schema "
            f"{','.join(columns)!r}"
        )
    rows = []
    for number, line in body:
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ValidationError(
                f"{path} row {number}: expected {len(columns)} fields, got {len(fields)}"
            )
        values = []
        for (name, kind), field in zip(columns.items(), fields):
            try:
                values.append(kind(field))
            except ValueError:
                raise ValidationError(
                    f"{path} row {number}: {name} must be {kind.__name__}, got {field!r}"
                ) from None
            if kind is float and not math.isfinite(values[-1]):
                raise ValidationError(
                    f"{path} row {number}: {name} must be finite, got {field!r}"
                )
        try:
            rows.append(tuple(values) if record is None else record(*values))
        except ValidationError as exc:
            raise ValidationError(f"{path} row {number}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path} contains a header but no data rows")
    return rows
