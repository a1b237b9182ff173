"""Prepared queries: parse/translate/plan once, execute many times.

A :class:`PreparedQuery` wraps a logical query tree (usually parsed from
SQL with ``$1``-style parameter slots) bound to one
:class:`~repro.core.udatabase.UDatabase`.  Its first ``run`` plans the
query through :func:`~repro.core.translate.execute_query`, which inserts
the fully planned physical tree into the prepared-plan cache; every later
``run`` — with *any* parameter binding — hits that entry and goes straight
to the executor.  Parameter values live in a shared mutable store that
generated kernels and index point lookups read at evaluation time, so
rebinding never recompiles or replans anything.

This is the paper's "fast and simple" claim carried to the serving layer:
because translated U-relation queries are purely relational, the entire
per-query fixed cost (parse + translate + optimize + plan) is cacheable,
leaving a repeated query with nothing but executor work.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Tuple

from ..obs import request_trace
from ..relational.expressions import Expression, Param, iter_subexpressions
from ..relational.types import string_literal
from .dml import DMLResult, collect_dml_params, execute_dml
from .query import UJoin, UQuery, USelect
from .translate import execute_query, explain_query

__all__ = ["PreparedQuery", "PreparedDML", "collect_params"]


def _typed(params: Tuple[Any, ...]) -> List[Any]:
    """Bindings typed like inline literals: date-shaped strings are dates."""
    return [string_literal(v) if isinstance(v, str) else v for v in params]


def _expression_params(expression: Expression, out: List[Param]) -> None:
    if isinstance(expression, Param):
        out.append(expression)
        return
    for child in iter_subexpressions(expression):
        _expression_params(child, out)


def collect_params(query: UQuery) -> Tuple[List[Any], int]:
    """The shared parameter store and slot count of a query tree.

    Every ``$n`` slot produced by one parse shares a single store; a tree
    mixing stores (hand-built from two parses) is rejected — its slots
    could not be bound together consistently.  Returns ``([], 0)`` for a
    parameter-free query.
    """
    params: List[Param] = []

    def walk(node: UQuery) -> None:
        if isinstance(node, (USelect, UJoin)):
            _expression_params(node.predicate, params)
        for child in node.children:
            walk(child)

    walk(query)
    if not params:
        return [], 0
    stores = {id(p.store): p.store for p in params}
    if len(stores) > 1:
        raise ValueError(
            "query mixes parameter slots from different stores; "
            "all $n parameters of one prepared query must come from one parse"
        )
    store = next(iter(stores.values()))
    return store, len(store)


class PreparedQuery:
    """A logical query bound to a UDatabase, planned once, run many times."""

    def __init__(self, query: UQuery, udb, sql: Optional[str] = None):
        self.query = query
        self.udb = udb
        self.sql = sql
        self._store, self.parameter_count = collect_params(query)
        #: Serializes bind+execute for *parameterized* statements: the
        #: ``$n`` store is shared mutable state read at evaluation time, so
        #: two threads running one PreparedQuery object with different
        #: bindings must not interleave.  Sessions avoid the contention by
        #: owning their statements (each parse gets its own store);
        #: parameter-free statements skip the lock entirely.
        self._lock = threading.Lock()

    def bind(self, params: Tuple[Any, ...]) -> None:
        """Write parameter values into the shared store (``$1`` first)."""
        if len(params) != self.parameter_count:
            raise ValueError(
                f"prepared query takes {self.parameter_count} parameter(s), "
                f"got {len(params)}"
            )
        self._store[:] = _typed(params)

    def run(
        self,
        *params: Any,
        optimize: bool = True,
        prefer_merge_join: bool = False,
        use_indexes: bool = True,
        batch_size: Optional[int] = None,
    ):
        """Bind parameters and execute.

        The first call per knob combination plans and caches; all
        later calls are executor-only.  Returns what
        :func:`~repro.core.translate.execute_query` returns — a plain
        relation for ``possible``/``certain`` statements, a U-relation
        otherwise.

        Thread-safe: parameterized statements hold an internal lock across
        bind+execute, so concurrent callers sharing one object serialize
        instead of reading each other's bindings (per-session statements —
        the serving layer's normal shape — never contend).
        """
        with request_trace(sql=self.sql or ""):
            if self.parameter_count == 0 and not params:
                return execute_query(
                    self.query,
                    self.udb,
                    optimize=optimize,
                    prefer_merge_join=prefer_merge_join,
                    use_indexes=use_indexes,
                    batch_size=batch_size,
                )
            with self._lock:
                self.bind(params)
                return execute_query(
                    self.query,
                    self.udb,
                    optimize=optimize,
                    prefer_merge_join=prefer_merge_join,
                    use_indexes=use_indexes,
                    batch_size=batch_size,
                )

    def explain(
        self,
        *params: Any,
        optimize: bool = True,
        prefer_merge_join: bool = False,
        use_indexes: bool = True,
        analyze: bool = False,
    ) -> str:
        """EXPLAIN the prepared plan (``(cached)``-marked after first use).

        Parameters are optional for a plain EXPLAIN — the plan does not
        depend on their values — but required when ``analyze=True``
        executes it.
        """
        if params or analyze:
            self.bind(params)
        return explain_query(
            self.query,
            self.udb,
            optimize=optimize,
            prefer_merge_join=prefer_merge_join,
            use_indexes=use_indexes,
            analyze=analyze,
        )

    def __repr__(self) -> str:
        label = self.sql if self.sql is not None else type(self.query).__name__
        return f"PreparedQuery({label!r}, params={self.parameter_count})"


class PreparedDML:
    """A parsed DML statement bound to a UDatabase, run many times.

    The symmetric write-side sibling of :class:`PreparedQuery`: parsing
    happens once, ``$n`` slots (in VALUES cells, SET values, and WHERE
    conditions) share one binding store, and repeated ``run`` calls with
    fresh bindings reuse the parse.  The WHERE condition of an UPDATE or
    DELETE executes as an ordinary translated query, so *its* physical
    plan lands in the prepared-plan cache keyed by the shared ``Param``
    objects — repeated parameterized DML is planner-free too.
    """

    def __init__(self, statement, udb, sql: Optional[str] = None):
        self.statement = statement
        self.udb = udb
        self.sql = sql
        params = collect_dml_params(statement)
        if params:
            stores = {id(p.store): p.store for p in params}
            if len(stores) > 1:
                raise ValueError(
                    "statement mixes parameter slots from different stores; "
                    "all $n parameters of one prepared statement must come "
                    "from one parse"
                )
            self._store = next(iter(stores.values()))
        else:
            self._store = []
        self.parameter_count = len(self._store)
        self._lock = threading.Lock()

    def bind(self, params: Tuple[Any, ...]) -> None:
        """Write parameter values into the shared store (``$1`` first)."""
        if len(params) != self.parameter_count:
            raise ValueError(
                f"prepared statement takes {self.parameter_count} parameter(s), "
                f"got {len(params)}"
            )
        self._store[:] = _typed(params)

    def run(self, *params: Any, **_ignored_knobs: Any) -> DMLResult:
        """Bind parameters and apply the statement to the database.

        Execution knobs (``use_indexes``/...) are accepted for
        interface parity with :class:`PreparedQuery` and ignored — the
        write path's own work is not executor-shaped; only its WHERE
        matching runs through the executor, under default knobs.
        """
        with request_trace(sql=self.sql or "", cost_class="dml"):
            if self.parameter_count == 0 and not params:
                return execute_dml(self.statement, self.udb)
            with self._lock:
                self.bind(params)
                return execute_dml(self.statement, self.udb)

    def __repr__(self) -> str:
        label = self.sql if self.sql is not None else type(self.statement).__name__
        return f"PreparedDML({label!r}, params={self.parameter_count})"
