"""CSV import/export for relations.

Relations round-trip through CSV with a typed header: each column is
written as ``name:type`` (``int``, ``float``, ``str``, ``bool``, ``date``,
``any``), so :func:`read_csv` restores the exact Python values
:func:`write_csv` saw.  Plain headers (no ``:type``) are also accepted, in
which case types are inferred per column from the data.
"""

from __future__ import annotations

import csv
import pathlib
from typing import List, Optional, Sequence, Union

from .relation import Relation
from .schema import Attribute, Schema
from .types import DataType, format_value, infer_type, parse_value

__all__ = ["write_csv", "read_csv"]

PathLike = Union[str, pathlib.Path]

_NULL = "\\N"  # PostgreSQL-style NULL marker, distinguishable from ""


def write_csv(relation: Relation, path: PathLike) -> None:
    """Write a relation to ``path`` with a typed header row.

    Columns mixing incompatible Python types (e.g. ints and strings) cannot
    round-trip through text and are rejected with :class:`ValueError`.
    """
    types = relation.infer_types()
    for attr, dtype in zip(relation.schema.attributes, types):
        if dtype is DataType.ANY and any(
            row[relation.schema.resolve(attr.name)] is not None
            for row in relation.rows
        ):
            raise ValueError(
                f"column {attr.name!r} mixes incompatible types; "
                "CSV serialization needs homogeneous columns"
            )
    header = [
        f"{attr.name}:{dtype.value}"
        for attr, dtype in zip(relation.schema.attributes, types)
    ]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in relation.rows:
            writer.writerow([_cell(value) for value in row])


def _cell(value: object) -> str:
    """One CSV field; floats use ``repr`` (shortest round-trip text), since
    the display format (``format_value``) keeps only six digits."""
    if value is None:
        return _NULL
    if isinstance(value, float):
        return repr(value)
    return format_value(value)


def read_csv(path: PathLike, schema: Optional[Schema] = None) -> Relation:
    """Read a relation from CSV (typed header, plain header, or ``schema``)."""
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV file") from None
        raw_rows = [row for row in reader]

    if schema is not None:
        names = schema.names
        types = [a.dtype for a in schema.attributes]
        if len(header) != len(names):
            raise ValueError(
                f"{path}: header has {len(header)} columns, schema {len(names)}"
            )
    else:
        names, types = _parse_header(header)
        schema = Schema(
            [Attribute(n, t) for n, t in zip(names, types)]
        )
        if all(t is DataType.ANY for t in types):
            types = _infer_column_types(raw_rows, len(names))

    rows = []
    for raw in raw_rows:
        if len(raw) != len(names):
            raise ValueError(
                f"{path}: row arity {len(raw)} does not match header {len(names)}"
            )
        rows.append(
            tuple(
                None if field == _NULL else parse_value(field, dtype)
                for field, dtype in zip(raw, types)
            )
        )
    return Relation(schema, rows)


def _parse_header(header: Sequence[str]):
    names: List[str] = []
    types: List[DataType] = []
    for cell in header:
        if ":" in cell:
            name, _, type_text = cell.rpartition(":")
            try:
                types.append(DataType(type_text))
                names.append(name)
                continue
            except ValueError:
                pass  # not a type suffix after all: treat the cell as a name
        names.append(cell)
        types.append(DataType.ANY)
    return names, types


def _infer_column_types(raw_rows: Sequence[Sequence[str]], width: int) -> List[DataType]:
    """Best-effort inference when the header carries no type suffixes."""
    out: List[DataType] = []
    for i in range(width):
        column = [row[i] for row in raw_rows if i < len(row) and row[i] != _NULL]
        out.append(_infer_text_type(column))
    return out


def _infer_text_type(values: Sequence[str]) -> DataType:
    if not values:
        return DataType.STR
    for dtype in (DataType.INT, DataType.FLOAT, DataType.DATE):
        try:
            for value in values:
                parse_value(value, dtype)
            return dtype
        except (ValueError, TypeError):
            continue
    return DataType.STR
