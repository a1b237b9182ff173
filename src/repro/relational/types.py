"""Value types for the in-memory relational engine.

The engine stores plain Python values inside row tuples: ``int``, ``float``,
``str``, ``bool``, :class:`datetime.date`, and ``None`` (SQL NULL).  This
module provides the small amount of type machinery the rest of the engine
needs:

* a :class:`DataType` enumeration used in schemas and statistics,
* type inference for Python values and text parsing for CSV-style input,
* three-valued-logic-free comparison helpers (the engine treats ``None`` as
  incomparable; predicates over ``None`` evaluate to ``False``).

Dates are ordinary :class:`datetime.date` objects so the natural ``<``/``>``
operators used by predicates such as ``o_orderdate > DATE '1995-03-15'`` work
without special cases.
"""

from __future__ import annotations

import datetime
import enum
import re
from typing import Any, Optional

__all__ = [
    "DataType",
    "Date",
    "string_literal",
    "infer_type",
    "parse_value",
    "format_value",
    "coerce",
]


class DataType(enum.Enum):
    """Logical column types used by schemas and the statistics module."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    DATE = "date"
    ANY = "any"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataType.{self.name}"


def Date(text_or_year: Any, month: Optional[int] = None, day: Optional[int] = None) -> datetime.date:
    """Construct a date either from ``'YYYY-MM-DD'`` text or from components.

    Examples
    --------
    >>> Date("1995-03-15")
    datetime.date(1995, 3, 15)
    >>> Date(1995, 3, 15)
    datetime.date(1995, 3, 15)
    """
    if month is None:
        if isinstance(text_or_year, datetime.date):
            return text_or_year
        year_s, month_s, day_s = str(text_or_year).split("-")
        return datetime.date(int(year_s), int(month_s), int(day_s))
    return datetime.date(int(text_or_year), int(month), int(day or 1))


_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


def string_literal(text: str) -> Any:
    """The value a SQL string literal denotes.

    ``'YYYY-MM-DD'`` text is a date (so it compares against DATE columns);
    any other text stays a string.  Prepared-statement bindings go through
    the same rule, so a bound ``$n`` equals the inline literal.
    """
    if _DATE_RE.match(text):
        return Date(text)
    return text


_PY_TO_TYPE = {
    bool: DataType.BOOL,  # must precede int: bool is a subclass of int
    int: DataType.INT,
    float: DataType.FLOAT,
    str: DataType.STR,
    datetime.date: DataType.DATE,
}


def infer_type(value: Any) -> DataType:
    """Return the :class:`DataType` of a Python value (``None`` -> ``ANY``)."""
    if value is None:
        return DataType.ANY
    for py_type, data_type in _PY_TO_TYPE.items():
        if type(value) is py_type:
            return data_type
    if isinstance(value, datetime.date):
        return DataType.DATE
    if isinstance(value, int):
        return DataType.INT
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.STR
    return DataType.ANY


def parse_value(text: str, data_type: DataType) -> Any:
    """Parse a text field (e.g. from CSV) into a typed Python value.

    Empty strings parse to ``None`` for every type except :data:`DataType.STR`.
    """
    if text == "" and data_type is not DataType.STR:
        return None
    if data_type is DataType.INT:
        return int(text)
    if data_type is DataType.FLOAT:
        return float(text)
    if data_type is DataType.BOOL:
        return text.strip().lower() in ("1", "true", "t", "yes")
    if data_type is DataType.DATE:
        return Date(text)
    return text


def format_value(value: Any) -> str:
    """Render a value for plan/table output (``None`` -> ``NULL``)."""
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)


def coerce(value: Any, data_type: DataType) -> Any:
    """Coerce a Python value to the requested type, if sensible.

    Used by loaders; raises :class:`TypeError` on impossible coercions so
    schema mismatches surface early rather than as bad query answers.
    """
    if value is None or data_type is DataType.ANY:
        return value
    current = infer_type(value)
    if current is data_type:
        return value
    if data_type is DataType.FLOAT and current is DataType.INT:
        return float(value)
    if data_type is DataType.INT and current is DataType.FLOAT and float(value).is_integer():
        return int(value)
    if data_type is DataType.STR:
        return format_value(value)
    if current is DataType.STR:
        return parse_value(value, data_type)
    raise TypeError(f"cannot coerce {value!r} ({current.value}) to {data_type.value}")
