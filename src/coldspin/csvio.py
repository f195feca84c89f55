"""The one CSV table format of every coldspin file.

A table is a header line of column names, then one line per row.  Each
column declares a type: a float field is written with 12 significant
digits (".11e"), an int field as a plain decimal.  Lines end with "\\n".
read_table checks the header, skips blank lines, checks each row's field
count and parses each field by its column's type; every error is a
ValidationError that names the file and the row.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .errors import ValidationError

_FORMATS = {float: "{:.11e}", int: "{:d}"}


def write_table(path, columns: Mapping[str, type], rows: Iterable) -> None:
    """Write rows under a header of the column names, formatting each field
    by its column's declared type (float or int)."""
    line = ",".join(_FORMATS[kind] for kind in columns.values()) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        handle.writelines(line.format(*row) for row in rows)


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
        try:
            rows.append(tuple(values) if record is None else record(*values))
        except ValidationError as exc:
            raise ValidationError(f"{path} row {number}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path} contains a header but no data rows")
    return rows
