"""Physical operators and plan execution (columnar, batch-at-a-time).

Physical plans mirror the logical nodes but carry concrete algorithms:

* ``SeqScan``        — iterate a base relation
* ``IndexScan``      — point/range access through a secondary index
* ``Filter``         — predicate filter
* ``Projection``     — positional projection
* ``HashJoin``       — build/probe equi-join with residual filter
* ``IndexNestedLoopJoin`` — probe a prebuilt inner-side index per outer row
* ``MergeJoin``      — sort-merge equi-join with residual filter
* ``NestedLoopJoin`` — general-predicate join (also cross product)
* ``HashDistinct``   — duplicate elimination
* ``Append``         — bag union
* ``Except``         — set difference
* ``Sort``           — explicit sort (used under MergeJoin)
* ``Materialize``    — caches child output (inner of nested loops)
* ``Confidence``     — per-value-tuple confidence over a U-relation input

Execution model
---------------
One executor runs every plan.  Operators exchange
:class:`~repro.relational.columnar.ColumnBatch` values — per-column
``list``/``tuple`` vectors of at most :data:`BATCH_SIZE` (1024) rows.
Scans slice a cached column store of the base relation, filters run one
generated loop per batch (the predicate inlined into a single
comprehension), projections re-select column vectors without touching
rows, and joins emit output columns directly by gathering from their
inputs — a downstream-folded projection means dropped columns are never
materialized at all.  Operators whose work needs row identity (sorts,
set operations, merge and nested-loop joins, index fetches) transpose at
the boundary (``zip`` is C-speed) and run a row-list body per batch.

Every operator implements one production method, ``_column_batches(size)``;
the inherited wrapper :meth:`PhysicalPlan.column_batches` tracks the
``actual_rows`` / ``actual_batches`` counters that ``EXPLAIN ANALYZE``
reports — for a fused pipeline the counters are per-pipeline, not
per-fused-away-operator.  Property tests check the executor against the
naive reference interpreter of :mod:`repro.relational.reference`.

The planner *fuses* maximal scan→filter→project chains into single
:class:`FusedPipeline` operators and folds projections into join emits
(``set_output``); see :mod:`repro.relational.planner`.

Operators also expose ``explain_label`` and estimated cardinality for
EXPLAIN output.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .columnar import (
    ColumnBatch,
    pipeline_kernel,
    probe_kernel,
    selection_kernel,
    side_kernel,
)
from .expressions import Expression, Param
from .index import HashIndex, Index, SortedIndex, built_indexes_on
from .relation import Relation, _sort_key
from .schema import Schema

__all__ = [
    "BATCH_SIZE",
    "Batch",
    "ColumnBatch",
    "PhysicalPlan",
    "SeqScan",
    "IndexScan",
    "FusedPipeline",
    "Filter",
    "Projection",
    "ProjectionAs",
    "ExtendOp",
    "HashJoin",
    "IndexNestedLoopJoin",
    "MergeJoin",
    "NestedLoopJoin",
    "SemiJoinOp",
    "HashDistinct",
    "Append",
    "Except",
    "Sort",
    "Materialize",
    "Confidence",
    "execute",
]

Row = Tuple[Any, ...]
Batch = List[Row]

#: Default number of rows per exchanged batch.
BATCH_SIZE = 1024


def _projector(positions: Sequence[int]) -> Callable[[Row], Row]:
    """A row -> tuple projection onto ``positions`` (always returns tuples)."""
    if len(positions) == 1:
        i = positions[0]
        return lambda row: (row[i],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _keyer(positions: Sequence[int]) -> Callable[[Row], Any]:
    """A hash-key extractor; single-column keys stay scalar (cheaper)."""
    if len(positions) == 1:
        i = positions[0]
        return lambda row: row[i]
    return itemgetter(*positions)


def _key_is_null(key: Any, single: bool) -> bool:
    if single:
        return key is None
    return None in key


class PhysicalPlan:
    """Base class for physical operators."""

    schema: Schema
    estimated_rows: float = 0.0
    #: Runtime statistics, populated when a ``column_batches()`` scan completes.
    actual_rows: Optional[int] = None
    actual_batches: Optional[int] = None
    #: True for operators that pass rows through unchanged (schema-only
    #: wrappers, e.g. renames) — fusion and access-path matching look
    #: through them.
    row_passthrough: bool = False

    @property
    def children(self) -> Tuple["PhysicalPlan", ...]:
        return ()

    def column_batches(self, size: int = BATCH_SIZE) -> Iterator[ColumnBatch]:
        """Batch-at-a-time iterator with runtime row/batch accounting.

        Non-positive ``size`` degrades to 1 (one-row batches) rather than
        erroring, so callers can sweep batch sizes freely.
        """
        if size <= 0:
            size = 1
        produced_rows = 0
        produced_batches = 0
        for batch in self._column_batches(size):
            produced_rows += batch.length
            produced_batches += 1
            yield batch
        self.actual_rows = produced_rows
        self.actual_batches = produced_batches

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        """Operator-specific batch production."""
        raise NotImplementedError

    def explain_label(self) -> str:
        return type(self).__name__

    def explain_details(self) -> List[str]:
        """Extra indented lines under the node header in EXPLAIN output."""
        return []

    def actuals(self) -> dict:
        """The operator tree's runtime accounting as a nested dict.

        Reads the ``actual_rows``/``actual_batches`` counters the batch
        iterators already maintain — free to call after an execution, no
        re-run.  Nodes that never produced (e.g. the unexecuted branches
        of an early-exited plan) report ``None``.  This is what query
        traces attach under the ``operators`` attribute and what
        ``explain_analyze(trace=True)`` returns structurally.
        """
        return {
            "operator": self.explain_label(),
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "actual_batches": self.actual_batches,
            "children": [child.actuals() for child in self.children],
        }

    def column_nullable(self, position: int) -> bool:
        """Whether an output column can contain NULL (conservative).

        Derived statically from the plan: base scans consult the cached
        per-column nullability of their relation, and row-preserving
        operators delegate by position.  The executor selects
        NULL-guard-free kernel bodies when every referenced column is
        provably clean; ``True`` (the safe default) keeps the guards.
        """
        if self.row_passthrough:
            return self.children[0].column_nullable(position)
        return True


def _chunks(rows: List[Row], size: int) -> Iterator[Batch]:
    """Slice a materialized row list into batches."""
    for start in range(0, len(rows), size):
        yield rows[start : start + size]


def _row_batches(plan: PhysicalPlan, size: int) -> Iterator[Batch]:
    """A child's batches as row lists, for operators with row-list bodies."""
    for batch in plan.column_batches(size):
        yield batch.to_rows()


def _all_rows(plan: PhysicalPlan, size: int) -> List[Row]:
    """Every row of a child, through its accounted batch interface."""
    rows: List[Row] = []
    for batch in plan.column_batches(size):
        rows.extend(batch.to_rows())
    return rows


def _as_columns(batches: Iterator[Batch], width: int) -> Iterator[ColumnBatch]:
    """Transpose a row-list body's non-empty output batches to columns."""
    for batch in batches:
        if batch:
            yield ColumnBatch.from_rows(batch, width)


class SeqScan(PhysicalPlan):
    """Sequential scan over a materialized base relation."""

    def __init__(self, relation: Relation, name: str = "relation", alias: Optional[str] = None):
        self.relation = relation
        self.name = name
        self.alias = alias
        self.schema = relation.schema.qualify(alias) if alias else relation.schema
        self.estimated_rows = float(len(relation.rows))

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        store = self.relation.column_store()
        total = len(self.relation.rows)
        for s in range(0, total, size):
            e = min(s + size, total)
            yield ColumnBatch([c[s:e] for c in store], e - s)

    def column_nullable(self, position: int) -> bool:
        return self.relation.column_has_null(position)

    def explain_label(self) -> str:
        if self.alias:
            return f"Seq Scan on {self.name} {self.alias}"
        return f"Seq Scan on {self.name}"


#: Sentinel distinguishing "no point lookup" from a point lookup on NULL.
_NO_POINT = object()


def _resolve_key(point: Any) -> Any:
    """Resolve ``$n`` parameter slots in a point-lookup key at run time.

    The planner stores :class:`~repro.relational.expressions.Param`
    objects (not their values) in cached plans; each execution reads the
    currently bound value here, so one plan serves every binding.
    """
    if isinstance(point, Param):
        return point.value
    if isinstance(point, tuple) and any(isinstance(v, Param) for v in point):
        return tuple(v.value if isinstance(v, Param) else v for v in point)
    return point


class IndexScan(PhysicalPlan):
    """Base-relation access through a secondary index.

    Three access modes:

    * *point* — ``point`` is the lookup key (scalar for single-column
      indexes, tuple otherwise); works on hash and sorted indexes,
    * *range* — ``lower``/``upper`` bounds on the first index column
      (sorted indexes only),
    * *full*  — no condition: an ordered scan of a sorted index.

    ``residual`` is the leftover predicate the index condition does not
    cover; it is evaluated against every fetched row.  The ``schema`` is
    the scan's *output* schema, which may be a renamed/qualified view of
    the indexed relation's schema — positions are identical, so index rows
    flow through unchanged.

    A ``probe=True`` instance is the display-only inner side of an
    :class:`IndexNestedLoopJoin`; it is never executed (the join probes the
    index directly) and produces nothing if drained.
    """

    def __init__(
        self,
        index: Index,
        name: str,
        schema: Schema,
        alias: Optional[str] = None,
        point: Any = _NO_POINT,
        lower: Any = None,
        upper: Any = None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
        index_cond: Optional[str] = None,
        residual: Optional[Expression] = None,
        probe: bool = False,
    ):
        if len(schema) != len(index.relation.schema):
            raise ValueError("IndexScan schema must mirror the indexed relation")
        ranged = lower is not None or upper is not None
        if point is not _NO_POINT and ranged:
            raise ValueError("IndexScan takes a point key or range bounds, not both")
        if ranged and not isinstance(index, SortedIndex):
            raise ValueError("range access requires a SortedIndex")
        if point is _NO_POINT and not ranged and not probe and not isinstance(index, SortedIndex):
            raise ValueError("full scan access requires a SortedIndex")
        self.index = index
        self.name = name
        self.alias = alias
        self.schema = schema
        self.point = point
        self.lower = lower
        self.upper = upper
        self.lower_inclusive = lower_inclusive
        self.upper_inclusive = upper_inclusive
        self.index_cond = index_cond
        self.probe = probe
        self.residual = residual
        self._compiled_residual = residual.compile(schema) if residual is not None else None
        self.estimated_rows = float(len(index))

    def _matched(self) -> Sequence[Row]:
        if self.probe:
            return ()
        if self.point is not _NO_POINT:
            return self.index.lookup(_resolve_key(self.point))
        if self.lower is None and self.upper is None:
            return self.index.ordered()  # type: ignore[union-attr]  # SortedIndex per __init__
        # ``$n`` bounds resolve per execution, so one cached plan serves
        # ``BETWEEN $1 AND $2`` under every binding; a bound resolving to
        # NULL matches nothing (SQL comparison semantics)
        lower, upper = self.lower, self.upper
        if isinstance(lower, Param):
            lower = lower.value
            if lower is None:
                return ()
        if isinstance(upper, Param):
            upper = upper.value
            if upper is None:
                return ()
        return self.index.range(  # type: ignore[union-attr]  # SortedIndex checked in __init__
            lower, upper, self.lower_inclusive, self.upper_inclusive
        )

    def matched_rows(self) -> List[Row]:
        """The fetched rows that pass the residual, as one row list.

        Index fetches yield row tuples, so the residual runs per row here
        and the batches are transposed once; a :class:`FusedPipeline` over
        this scan runs its row kernel on the chunks of this list instead.
        """
        matched = self._matched()
        residual = self._compiled_residual
        if residual is not None:
            return [row for row in matched if residual(row)]
        return matched if isinstance(matched, list) else list(matched)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        width = len(self.schema)
        for chunk in _chunks(self.matched_rows(), size):
            yield ColumnBatch.from_rows(chunk, width)

    def explain_label(self) -> str:
        target = f"{self.name} {self.alias}" if self.alias else self.name
        return f"Index Scan using {self.index.name} on {target}"

    def explain_details(self) -> List[str]:
        details = []
        if self.index_cond:
            details.append(f"Index Cond: {self.index_cond}")
        if self.residual is not None:
            details.append(f"Filter: {self.residual!r}")
        return details

    def column_nullable(self, position: int) -> bool:
        # positions mirror the indexed base relation's schema
        return self.index.relation.column_has_null(position)


class FusedPipeline(PhysicalPlan):
    """A fused scan→filter→project pipeline in one generated loop.

    The planner's fusion pass collapses each maximal chain of
    ``Projection``/``ProjectionAs`` over ``Filter`` (through pass-through
    renames) over a base access (``SeqScan`` or ``IndexScan``) into one of
    these.  ``predicate`` is re-anchored to the source's schema (renames
    never move columns, so positions are stable) and ``positions`` are the
    output columns as source positions; either may be ``None``.

    Over a ``SeqScan`` the predicate runs as a vector kernel over the
    scan's column store and only the output columns are gathered, so
    dropped columns are never materialized.  Over an ``IndexScan`` (whose
    fetches are row tuples anyway) one generated list comprehension runs
    per chunk of matched rows — predicate inlined, output tuple built in
    place — and the result is transposed once.
    """

    def __init__(
        self,
        source: PhysicalPlan,
        predicate: Optional[Expression],
        positions: Optional[Sequence[int]],
        schema: Schema,
    ):
        if predicate is None and positions is None:
            raise ValueError("a fused pipeline needs a predicate or a projection")
        self.source = source
        self.predicate = predicate
        self.positions = list(positions) if positions is not None else None
        self.schema = schema
        self.estimated_rows = source.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.source,)

    def _index_batches(self, size: int) -> Iterator[ColumnBatch]:
        """Run the row kernel over an index scan's matched-row chunks."""
        source = self.source
        kernel = pipeline_kernel(self.predicate, self.positions, source.schema)
        matched = source.matched_rows()
        yield from _as_columns(
            (kernel(chunk) for chunk in _chunks(matched, size)), len(self.schema)
        )
        # the scan's own accounting, as if drained through column_batches
        source.actual_rows = len(matched)
        source.actual_batches = -(-len(matched) // size)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        if isinstance(self.source, IndexScan):
            yield from self._index_batches(size)
            return
        if self.predicate is not None:
            # the scan's base relation has cached per-column nullability:
            # provably NULL-free predicates run without NULL guards
            from .expressions import has_null_literal

            source = self.source
            assume = not has_null_literal(self.predicate) and not any(
                source.column_nullable(source.schema.resolve(name))
                for name in self.predicate.columns()
            )
            select = selection_kernel(
                self.predicate, self.source.schema, assume_non_null=assume
            )
        else:
            select = None
        positions = self.positions
        for cb in self.source.column_batches(size):
            columns = cb.columns
            if select is None:
                keep = None
                kept = cb.length
            else:
                keep = select(columns, cb.length)
                kept = len(keep)
                if not kept:
                    continue
                if kept == cb.length:
                    keep = None  # everything passed: reuse the vectors
            wanted = (
                [columns[p] for p in positions]
                if positions is not None
                else columns
            )
            if keep is None:
                yield ColumnBatch(wanted, kept)
            else:
                yield ColumnBatch([[c[i] for i in keep] for c in wanted], kept)

    def explain_label(self) -> str:
        return "Fused Pipeline"

    def explain_details(self) -> List[str]:
        details = []
        if self.predicate is not None:
            details.append(f"Filter: {self.predicate!r}")
        if self.positions is not None:
            details.append(f"Output: {', '.join(self.schema.names)}")
        return details

    def column_nullable(self, position: int) -> bool:
        if self.positions is not None:
            position = self.positions[position]
        return self.source.column_nullable(position)


class Filter(PhysicalPlan):
    """Row filter by a bound predicate."""

    def __init__(self, child: PhysicalPlan, predicate: Expression):
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        self.estimated_rows = child.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        kernel = selection_kernel(self.predicate, self.child.schema)
        for batch in self.child.column_batches(size):
            keep = kernel(batch.columns, batch.length)
            if not keep:
                continue
            if len(keep) == batch.length:
                yield batch
            else:
                yield ColumnBatch(
                    [[c[i] for i in keep] for c in batch.columns], len(keep)
                )

    def explain_label(self) -> str:
        return "Filter"

    def explain_details(self) -> List[str]:
        return [f"Filter: {self.predicate!r}"]

    def column_nullable(self, position: int) -> bool:
        return self.child.column_nullable(position)


class Projection(PhysicalPlan):
    """Positional projection (bag semantics)."""

    def __init__(self, child: PhysicalPlan, columns: Sequence[str]):
        self.child = child
        self.columns = list(columns)
        self.positions = child.schema.positions(self.columns)
        self.schema = child.schema.project(self.columns)
        self.estimated_rows = child.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        # columnar projection is column re-selection: no per-row work at all
        positions = self.positions
        for batch in self.child.column_batches(size):
            yield ColumnBatch([batch.columns[i] for i in positions], batch.length)

    def explain_label(self) -> str:
        return "Project"

    def explain_details(self) -> List[str]:
        return [f"Output: {', '.join(self.columns)}"]

    def column_nullable(self, position: int) -> bool:
        return self.child.column_nullable(self.positions[position])


class ProjectionAs(PhysicalPlan):
    """Generalized projection with duplication and renaming."""

    def __init__(self, child: PhysicalPlan, items: Sequence[Tuple[str, str]]):
        self.child = child
        self.items = list(items)
        self.positions = [child.schema.resolve(ref) for ref, _ in self.items]
        attrs = []
        for (ref, new), pos in zip(self.items, self.positions):
            attrs.append(child.schema[pos].renamed(new))
        self.schema = Schema(attrs)
        self.estimated_rows = child.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        positions = self.positions
        for batch in self.child.column_batches(size):
            yield ColumnBatch([batch.columns[i] for i in positions], batch.length)

    def explain_label(self) -> str:
        return "Project"

    def explain_details(self) -> List[str]:
        return ["Output: " + ", ".join(f"{ref} AS {new}" for ref, new in self.items)]

    def column_nullable(self, position: int) -> bool:
        return self.child.column_nullable(self.positions[position])


class ExtendOp(PhysicalPlan):
    """Extended projection: pass-through plus computed columns."""

    def __init__(self, child: PhysicalPlan, items: Sequence[Tuple[str, Expression]]):
        self.child = child
        self.items = list(items)
        attrs = list(child.schema.attributes)
        for name, _expr in self.items:
            attrs.append(child.schema.attributes[0].renamed(name))
        self.schema = Schema(attrs)
        self.estimated_rows = child.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        from .columnar import map_kernel

        kernels = [map_kernel(expr, self.child.schema) for _, expr in self.items]
        for batch in self.child.column_batches(size):
            extended = list(batch.columns)
            for kernel in kernels:
                extended.append(kernel(batch.columns, batch.length))
            yield ColumnBatch(extended, batch.length)

    def explain_label(self) -> str:
        return "Extend"

    def explain_details(self) -> List[str]:
        return ["Output: *, " + ", ".join(f"{expr!r} AS {name}" for name, expr in self.items)]


class HashJoin(PhysicalPlan):
    """Equi-join: hash-build on one input, probe with the other.

    ``pairs`` is a list of ``(left_col, right_col)`` equalities; an optional
    ``residual`` predicate (over the concatenated schema) filters join
    candidates — this is where the U-relations ψ-condition typically lands.

    By default the *right* input is hashed (the PostgreSQL convention the
    paper's plans show); ``build="left"`` hashes the left input instead and
    streams the right through as the probe side.  The planner picks the
    side with the smaller estimated cardinality.  Output rows are always
    ``left ++ right`` regardless of build side.
    """

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        pairs: Sequence[Tuple[str, str]],
        residual: Optional[Expression] = None,
        build: str = "right",
    ):
        if not pairs:
            raise ValueError("HashJoin requires at least one equi-pair")
        if build not in ("left", "right"):
            raise ValueError(f"build side must be 'left' or 'right', got {build!r}")
        self.left = left
        self.right = right
        self.pairs = list(pairs)
        self.residual = residual
        self.build = build
        self._combined = left.schema.concat(right.schema)
        self.schema = self._combined
        #: Folded downstream projection (positions into the concatenated
        #: schema), set by the planner's fusion pass via :meth:`set_output`.
        self.output_positions: Optional[List[int]] = None
        self.left_positions = [left.schema.resolve(l) for l, _ in self.pairs]
        self.right_positions = [right.schema.resolve(r) for _, r in self.pairs]
        self.estimated_rows = max(left.estimated_rows, right.estimated_rows)

    def set_output(self, positions: Sequence[int], schema: Schema) -> None:
        """Fold a downstream projection into the join's emit (fusion)."""
        self.output_positions = list(positions)
        self.schema = schema

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def _build_table(self, size: int) -> Dict[Any, List[Row]]:
        """Hash the build side (NULL keys excluded, as NULLs never join).

        Keys come straight off the build side's column vectors and rows
        from one C-speed transpose per batch; buckets hold row tuples.
        """
        single = len(self.pairs) == 1
        build_left = self.build == "left"
        build_plan, build_positions = (
            (self.left, self.left_positions)
            if build_left
            else (self.right, self.right_positions)
        )
        table: Dict[Any, List[Row]] = {}
        setdefault = table.setdefault
        for cb in build_plan.column_batches(size):
            rows = cb.to_rows()
            if single:
                keys: Any = cb.columns[build_positions[0]]
            else:
                keys = zip(*(cb.columns[p] for p in build_positions))
            for key, row in zip(keys, rows):
                if _key_is_null(key, single):
                    continue
                setdefault(key, []).append(row)
        return table

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        """Columnar probe: the probe input arrives as column vectors, and
        output columns are gathered directly from the probe vectors and the
        matched build rows — only the (possibly folded) output columns are
        ever materialized."""
        single = len(self.pairs) == 1
        build_left = self.build == "left"
        probe_positions = (
            self.right_positions if build_left else self.left_positions
        )
        probe_plan = self.right if build_left else self.left
        build_plan = self.left if build_left else self.right
        split = len(self.left.schema)
        probe_is_left = not build_left
        table = self._build_table(size)
        get = table.get
        positions = (
            self.output_positions
            if self.output_positions is not None
            else range(len(self._combined))
        )
        specs = []  # (from_probe_vectors, side-local position)
        for p in positions:
            on_left = p < split
            local = p if on_left else p - split
            specs.append((on_left == probe_is_left, local))
        if single:
            # fully fused generated probe: C-speed hash resolution, the
            # residual inlined, and direct column emit in one loop
            kernel = probe_kernel(
                self._combined,
                split,
                probe_is_left,
                probe_positions[0],
                self.residual,
                (),
                specs,
            )
            if kernel is not None:
                # columns the residual consults must be provably NULL-free
                # (from the plan tree) for the kernel's guard-free body
                fast = True
                if self.residual is not None:
                    for name in self.residual.columns():
                        p = self._combined.resolve(name)
                        on_left = p < split
                        local = p if on_left else p - split
                        side = (
                            probe_plan if on_left == probe_is_left else build_plan
                        )
                        if side.column_nullable(local):
                            fast = False
                            break
                for cb in probe_plan.column_batches(size):
                    out_cols, count = kernel(get, cb.columns, fast)
                    if count:
                        yield ColumnBatch(list(out_cols), count)
                return
        residual_kernel = (
            side_kernel(
                self.residual,
                self._combined,
                split,
                "left" if probe_is_left else "right",
            )
            if self.residual is not None
            else None
        )
        for cb in probe_plan.column_batches(size):
            pcols = cb.columns
            n = cb.length
            pidx: List[int] = []
            brows: List[Row] = []
            add_i = pidx.append
            add_b = brows.append
            if single:
                # C-speed probing: ``map(dict.get, kcol)`` resolves every
                # key in one pass; NULL keys are never in the table
                kcol = pcols[probe_positions[0]]
                for i, bucket in enumerate(map(get, kcol)):
                    if not bucket:
                        continue
                    for brow in bucket:
                        add_i(i)
                        add_b(brow)
            else:
                kcols = [pcols[p] for p in probe_positions]
                for i in range(n):
                    k = tuple(c[i] for c in kcols)
                    if None in k:
                        continue
                    bucket = get(k)
                    if not bucket:
                        continue
                    for brow in bucket:
                        add_i(i)
                        add_b(brow)
            if not pidx:
                continue
            if residual_kernel is not None:
                keep = residual_kernel(pcols, pidx, brows, len(pidx))
                if not keep:
                    continue
                pidx = [pidx[j] for j in keep]
                brows = [brows[j] for j in keep]
            out_cols: List[List[Any]] = []
            for from_probe, local in specs:
                if from_probe:
                    column = pcols[local]
                    out_cols.append([column[i] for i in pidx])
                else:
                    out_cols.append([r[local] for r in brows])
            yield ColumnBatch(out_cols, len(pidx))

    def column_nullable(self, position: int) -> bool:
        if self.output_positions is not None:
            position = self.output_positions[position]
        split = len(self.left.schema)
        if position < split:
            return self.left.column_nullable(position)
        return self.right.column_nullable(position - split)

    def explain_label(self) -> str:
        return "Hash Join"

    def explain_details(self) -> List[str]:
        cond = " AND ".join(f"({l} = {r})" for l, r in self.pairs)
        details = [f"Hash Cond: {cond}"]
        if self.residual is not None:
            details.append(f"Join Filter: {self.residual!r}")
        if self.output_positions is not None:
            details.append(f"Output: {', '.join(self.schema.names)}")
        return details


class IndexNestedLoopJoin(PhysicalPlan):
    """Equi-join that probes a prebuilt index on the inner relation.

    For every outer row the join key is extracted (ordered to match the
    index's column order) and looked up in the index — no scan or hash
    build of the inner side happens at all, which is the access-path win
    the paper gets from indexed U-relation partitions: the tid-equijoins
    that reassemble vertical partitions probe the partition's tid index.

    ``inner`` is a display-only plan (normally a probe-mode
    :class:`IndexScan`) supplying the inner schema for EXPLAIN; rows come
    straight out of ``index``.  ``flipped=False`` means the outer is the
    join's logical *left* (output rows are ``outer + inner``);
    ``flipped=True`` swaps the roles but preserves the left-to-right output
    schema (``inner + outer``).  ``pairs`` is ``(outer_col, inner_col)``
    per index column; ``residual`` filters the concatenated row.

    ``inner_filters`` are compiled row predicates applied to every probed
    inner row before concatenation — the planner moves the inner side's
    pushed-down selections here, so a *filtered* partition scan can still
    be replaced by index probes (the filter runs on the few matched rows
    instead of the whole table).  ``inner_filter_exprs`` are the matching
    expressions, kept for EXPLAIN only.
    """

    def __init__(
        self,
        outer: PhysicalPlan,
        inner: PhysicalPlan,
        index: Index,
        outer_positions: Sequence[int],
        pairs: Sequence[Tuple[str, str]],
        residual: Optional[Expression] = None,
        flipped: bool = False,
        inner_filters: Sequence[Callable[[Row], Any]] = (),
        inner_filter_exprs: Sequence[Expression] = (),
        inner_filter_schemas: Sequence[Schema] = (),
    ):
        if len(outer_positions) != len(index.positions):
            raise ValueError("outer key width must match the index column count")
        self.outer = outer
        self.inner = inner
        self.index = index
        self.outer_positions = list(outer_positions)
        self.pairs = list(pairs)
        self.residual = residual
        self.flipped = flipped
        self.inner_filters = list(inner_filters)
        self.inner_filter_exprs = list(inner_filter_exprs)
        #: Schemas the filter expressions were written against (parallel to
        #: ``inner_filter_exprs``); lets the columnar executor inline the
        #: filters into its generated probe kernel.
        self.inner_filter_schemas = list(inner_filter_schemas)
        self._combined = (
            inner.schema.concat(outer.schema)
            if flipped
            else outer.schema.concat(inner.schema)
        )
        self.schema = self._combined
        #: Folded downstream projection (positions into the concatenated
        #: schema), set by the planner's fusion pass via :meth:`set_output`.
        self.output_positions: Optional[List[int]] = None
        self.estimated_rows = max(outer.estimated_rows, inner.estimated_rows)

    def set_output(self, positions: Sequence[int], schema: Schema) -> None:
        """Fold a downstream projection into the join's emit (fusion)."""
        self.output_positions = list(positions)
        self.schema = schema

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.outer, self.inner)

    def _fused_probe(self):
        """-> (generated fused probe kernel, inner side NULL-free) or None."""
        if len(self.outer_positions) != 1:
            return None
        if self.inner_filter_exprs and len(self.inner_filter_schemas) != len(
            self.inner_filter_exprs
        ):
            return None  # filters came pre-compiled, schemas unknown
        outer_is_left = not self.flipped
        split = len(self.inner.schema) if self.flipped else len(self.outer.schema)
        positions = (
            self.output_positions
            if self.output_positions is not None
            else range(len(self._combined))
        )
        specs = []
        for p in positions:
            on_left = p < split
            local = p if on_left else p - split
            specs.append((on_left == outer_is_left, local))
        filter_specs = list(zip(self.inner_filter_exprs, self.inner_filter_schemas))
        mixed = isinstance(self.index, HashIndex)
        kernel = probe_kernel(
            self._combined,
            split,
            outer_is_left,
            self.outer_positions[0],
            self.residual,
            filter_specs,
            specs,
            mixed=mixed,
        )
        if kernel is None:
            return None
        # every column the conditions reference must be provably NULL-free
        # for the kernel's guard-free body: inner refs consult the indexed
        # base relation's cached nullability, outer refs the plan tree
        inner_refs: set = set()
        outer_refs: set = set()
        for expr, schema in filter_specs:
            for name in expr.columns():
                inner_refs.add(schema.resolve(name))
        if self.residual is not None:
            for name in self.residual.columns():
                p = self._combined.resolve(name)
                on_left = p < split
                local = p if on_left else p - split
                if on_left == outer_is_left:
                    outer_refs.add(local)
                else:
                    inner_refs.add(local)
        relation = self.index.relation
        fast = not any(
            relation.column_has_null(q) for q in inner_refs
        ) and not any(self.outer.column_nullable(q) for q in outer_refs)
        lookup = (
            self.index.mixed_table().get if mixed else self.index.lookup_fn()
        )
        return kernel, lookup, fast

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        """Columnar probe loop: the outer input arrives as column vectors
        (only its key columns are read per row), and output columns are
        gathered from the outer vectors and the probed index rows.

        Single-column keys run the fully fused generated kernel — lookup,
        inlined filters and residual, and direct column emit in one loop."""
        fused = self._fused_probe()
        if fused is not None:
            kernel, lookup, fast = fused
            for cb in self.outer.column_batches(size):
                out_cols, count = kernel(lookup, cb.columns, fast)
                if count:
                    yield ColumnBatch(list(out_cols), count)
            return
        single = len(self.outer_positions) == 1
        lookup = self.index.lookup_fn()
        filters = self.inner_filters
        only_filter = filters[0] if len(filters) == 1 else None
        flipped = self.flipped
        outer_width = len(self.outer.schema)
        split = len(self.inner.schema) if flipped else outer_width
        outer_is_left = not flipped
        positions = (
            self.output_positions
            if self.output_positions is not None
            else range(len(self._combined))
        )
        specs = []  # (from_outer_vectors, side-local position)
        for p in positions:
            on_left = p < split
            local = p if on_left else p - split
            specs.append((on_left == outer_is_left, local))
        residual_kernel = (
            side_kernel(
                self.residual,
                self._combined,
                split,
                "left" if outer_is_left else "right",
            )
            if self.residual is not None
            else None
        )
        for cb in self.outer.column_batches(size):
            ocols = cb.columns
            n = cb.length
            oidx: List[int] = []
            irows: List[Row] = []
            add_i = oidx.append
            add_r = irows.append
            if single:
                # the index lookup runs at C speed over the key vector:
                # ``map(lookup, kcol)`` — NULL keys and misses both come
                # back falsy, so the Python-level loop only touches hits
                kcol = ocols[self.outer_positions[0]]
                for i, bucket in enumerate(map(lookup, kcol)):
                    if not bucket:
                        continue
                    if only_filter is not None:
                        if len(bucket) == 1:
                            irow = bucket[0]
                            if only_filter(irow):
                                add_i(i)
                                add_r(irow)
                            continue
                        bucket = [r for r in bucket if only_filter(r)]
                    elif filters:
                        bucket = [r for r in bucket if all(f(r) for f in filters)]
                    for irow in bucket:
                        add_i(i)
                        add_r(irow)
            else:
                kcols = [ocols[p] for p in self.outer_positions]
                for i in range(n):
                    k = tuple(c[i] for c in kcols)
                    if None in k:
                        continue
                    bucket = lookup(k)
                    if not bucket:
                        continue
                    if filters:
                        bucket = [r for r in bucket if all(f(r) for f in filters)]
                    for irow in bucket:
                        add_i(i)
                        add_r(irow)
            if not oidx:
                continue
            if residual_kernel is not None:
                keep = residual_kernel(ocols, oidx, irows, len(oidx))
                if not keep:
                    continue
                oidx = [oidx[j] for j in keep]
                irows = [irows[j] for j in keep]
            out_cols: List[List[Any]] = []
            for from_outer, local in specs:
                if from_outer:
                    column = ocols[local]
                    out_cols.append([column[i] for i in oidx])
                else:
                    out_cols.append([r[local] for r in irows])
            yield ColumnBatch(out_cols, len(oidx))

    def column_nullable(self, position: int) -> bool:
        if self.output_positions is not None:
            position = self.output_positions[position]
        split = len(self.inner.schema) if self.flipped else len(self.outer.schema)
        on_left = position < split
        local = position if on_left else position - split
        if on_left == (not self.flipped):
            return self.outer.column_nullable(local)
        return self.index.relation.column_has_null(local)

    def explain_label(self) -> str:
        return "Index Nested Loop Join"

    def explain_details(self) -> List[str]:
        cond = " AND ".join(f"({i} = {o})" for o, i in self.pairs)
        details = [f"Index Cond: {cond}"]
        if self.inner_filter_exprs:
            shown = " AND ".join(repr(e) for e in self.inner_filter_exprs)
            details.append(f"Probe Filter: {shown}")
        if self.residual is not None:
            details.append(f"Join Filter: {self.residual!r}")
        if self.output_positions is not None:
            details.append(f"Output: {', '.join(self.schema.names)}")
        return details


class SemiJoinOp(PhysicalPlan):
    """Left semijoin: keeps left rows with at least one right partner.

    When the predicate contains equi-pairs (the α tuple-id condition of the
    reduction program always does), the right side is hashed on them and
    only the matching bucket is scanned for the residual (ψ) check;
    otherwise the operator degrades to a nested loop.
    """

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan, predicate: Expression):
        from .expressions import conjunction, equijoin_pairs

        self.left = left
        self.right = Materialize(right)
        self.predicate = predicate
        self.schema = left.schema
        self.pairs, residual_list = equijoin_pairs(
            predicate, left.schema, right.schema
        )
        self.residual = conjunction(residual_list) if residual_list else None
        combined = left.schema.concat(right.schema)
        self._compiled_residual = (
            self.residual.compile(combined) if self.residual is not None else None
        )
        self._compiled_full = predicate.compile(combined)
        self.left_positions = [left.schema.resolve(l) for l, _ in self.pairs]
        self.right_positions = [right.schema.resolve(r) for _, r in self.pairs]
        self.estimated_rows = left.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        if self.pairs:
            return _as_columns(self._hash_matches(size), len(self.schema))
        return _as_columns(self._loop_matches(size), len(self.schema))

    def _hash_matches(self, size: int) -> Iterator[Batch]:
        single = len(self.pairs) == 1
        rkey = _keyer(self.right_positions)
        table: Dict[Any, List[Row]] = {}
        setdefault = table.setdefault
        for batch in _row_batches(self.right, size):
            for rrow in batch:
                key = rkey(rrow)
                if _key_is_null(key, single):
                    continue
                setdefault(key, []).append(rrow)
        lkey = _keyer(self.left_positions)
        residual = self._compiled_residual
        get = table.get
        for batch in _row_batches(self.left, size):
            out: Batch = []
            for lrow in batch:
                key = lkey(lrow)
                if _key_is_null(key, single):
                    continue
                bucket = get(key)
                if not bucket:
                    continue
                if residual is None:
                    out.append(lrow)
                    continue
                for rrow in bucket:
                    if residual(lrow + rrow):
                        out.append(lrow)
                        break
            yield out

    def _loop_matches(self, size: int) -> Iterator[Batch]:
        bound = self._compiled_full
        right_rows = _all_rows(self.right, size)
        for batch in _row_batches(self.left, size):
            out: Batch = []
            for lrow in batch:
                for rrow in right_rows:
                    if bound(lrow + rrow):
                        out.append(lrow)
                        break
            yield out

    def explain_label(self) -> str:
        return "Hash Semi Join" if self.pairs else "Semi Join"

    def explain_details(self) -> List[str]:
        details = []
        if self.pairs:
            cond = " AND ".join(f"({l} = {r})" for l, r in self.pairs)
            details.append(f"Hash Cond: {cond}")
        if self.residual is not None or not self.pairs:
            details.append(f"Join Filter: {(self.residual or self.predicate)!r}")
        return details


class Sort(PhysicalPlan):
    """Full sort of the child output by the given key columns."""

    def __init__(self, child: PhysicalPlan, keys: Sequence[str]):
        self.child = child
        self.keys = list(keys)
        self.positions = child.schema.positions(self.keys)
        self.schema = child.schema
        self.estimated_rows = child.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _key(self) -> Callable[[Row], Any]:
        positions = self.positions

        def key(row: Row):
            return _sort_key(tuple(row[i] for i in positions))

        return key

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        gathered = _all_rows(self.child, size)
        gathered.sort(key=self._key())
        return _as_columns(_chunks(gathered, size), len(self.schema))

    def column_nullable(self, position: int) -> bool:
        return self.child.column_nullable(position)

    def explain_label(self) -> str:
        return "Sort"

    def explain_details(self) -> List[str]:
        return [f"Sort Key: {', '.join(self.keys)}"]


class MergeJoin(PhysicalPlan):
    """Sort-merge equi-join (inputs are sorted internally).

    Kept primarily for plan-shape parity with the PostgreSQL plans shown in
    the paper (Figure 13 uses merge joins on tuple-id columns).

    When *both* inputs are bare base scans (through renames) whose
    relations carry an already-built
    :class:`~repro.relational.index.SortedIndex` on exactly the join
    columns, the join consumes ``SortedIndex.ordered()`` directly — no
    per-execution drain-and-sort, and the per-row ``_sort_key`` wrappers
    are computed once per index lifetime (cached) instead of per
    execution.  NULL-keyed rows are absent from sorted indexes, which is
    exactly the rows a merge join skips anyway; mixed-type key columns
    (whose raw order differs from ``_sort_key`` order) fall back to the
    sorting path, so answers never depend on whether an index exists.
    """

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        pairs: Sequence[Tuple[str, str]],
        residual: Optional[Expression] = None,
    ):
        if not pairs:
            raise ValueError("MergeJoin requires at least one equi-pair")
        self.left = Sort(left, [l for l, _ in pairs])
        self.right = Sort(right, [r for _, r in pairs])
        self.pairs = list(pairs)
        self.residual = residual
        self._combined = left.schema.concat(right.schema)
        self.schema = self._combined
        #: Folded downstream projection, set via :meth:`set_output`.
        self.output_positions: Optional[List[int]] = None
        self.left_positions = [left.schema.resolve(l) for l, _ in pairs]
        self.right_positions = [right.schema.resolve(r) for _, r in pairs]
        self._compiled_residual = (
            residual.compile(self._combined) if residual is not None else None
        )
        self.estimated_rows = max(left.estimated_rows, right.estimated_rows)

    def set_output(self, positions: Sequence[int], schema: Schema) -> None:
        """Fold a downstream projection into the join's emit (fusion)."""
        self.output_positions = list(positions)
        self.schema = schema

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def _presorted_input(self, sort_op: "Sort") -> Optional[SortedIndex]:
        """A SortedIndex serving one input's order, or None.

        The input must be a base scan (through pass-through renames only)
        whose relation has an already-*built* sorted index on exactly the
        sort columns — this execution-time peek never triggers deferred
        index builds (lazy auto-indexing would otherwise pay for every
        pending index just because a merge join looked).
        """
        node = sort_op.child
        while node.row_passthrough:
            node = node.children[0]
        if not isinstance(node, SeqScan):
            return None
        wanted = tuple(sort_op.positions)
        for index in built_indexes_on(node.relation):
            if isinstance(index, SortedIndex) and index.positions == wanted:
                return index
        return None

    @staticmethod
    def _monotone_sortkeys(index: SortedIndex) -> Optional[List[Tuple]]:
        """The index keys wrapped as ``_sort_key`` tuples, or None.

        Merge comparisons must use the same type-tagged total order as the
        sorting path (raw keys would let ``1`` meet ``1.0``, which
        ``_sort_key`` keeps apart — answers must not depend on whether an
        index exists).  The wrapping is only usable when the index's raw
        order is also monotone under ``_sort_key`` (false for mixed-type
        columns); the result — or the rejection — is cached on the index,
        so repeated executions pay nothing.
        """
        cached = getattr(index, "_sortkey_keys", None)
        if cached is None:
            if index._single:
                wrapped = [_sort_key((k,)) for k in index._keys]
            else:
                wrapped = [_sort_key(tuple(k)) for k in index._keys]
            monotone = all(
                wrapped[i] <= wrapped[i + 1] for i in range(len(wrapped) - 1)
            )
            cached = wrapped if monotone else False
            index._sortkey_keys = cached
        return cached if cached is not False else None

    def _merge_presorted(
        self,
        left_index: SortedIndex,
        lkeys: List[Tuple],
        right_index: SortedIndex,
        rkeys: List[Tuple],
        size: int,
    ) -> Iterator[Batch]:
        """Merge directly over both indexes' ordered rows, streaming."""
        left_rows = left_index.ordered()
        right_rows = right_index.ordered()
        residual = self._compiled_residual
        project = (
            _projector(self.output_positions)
            if self.output_positions is not None
            else None
        )
        out: Batch = []
        i = j = 0
        n, m = len(left_rows), len(right_rows)
        while i < n and j < m:
            lk, rk = lkeys[i], rkeys[j]
            if lk < rk:
                i += 1
            elif lk > rk:
                j += 1
            else:
                i2 = i
                while i2 < n and lkeys[i2] == lk:
                    i2 += 1
                j2 = j
                while j2 < m and rkeys[j2] == rk:
                    j2 += 1
                right_group = right_rows[j:j2]
                for lrow in left_rows[i:i2]:
                    for rrow in right_group:
                        joined = lrow + rrow
                        if residual is None or residual(joined):
                            out.append(joined if project is None else project(joined))
                    if len(out) >= size:
                        yield out
                        out = []
                i, j = i2, j2
        if out:
            yield out

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        return _as_columns(self._merge(size), len(self.schema))

    def _merge(self, size: int) -> Iterator[Batch]:
        left_index = self._presorted_input(self.left)
        if left_index is not None:
            right_index = self._presorted_input(self.right)
            if right_index is not None:
                lkeys = self._monotone_sortkeys(left_index)
                rkeys = self._monotone_sortkeys(right_index)
                if lkeys is not None and rkeys is not None:
                    yield from self._merge_presorted(
                        left_index, lkeys, right_index, rkeys, size
                    )
                    return
        left_rows = _all_rows(self.left, size)
        right_rows = _all_rows(self.right, size)
        lpos, rpos = self.left_positions, self.right_positions
        lproject = _projector(lpos)
        rproject = _projector(rpos)
        # precompute sort keys once per row
        lkeys = [_sort_key(lproject(row)) for row in left_rows]
        rkeys = [_sort_key(rproject(row)) for row in right_rows]
        residual = self._compiled_residual
        project = (
            _projector(self.output_positions)
            if self.output_positions is not None
            else None
        )

        out: Batch = []
        i = j = 0
        n, m = len(left_rows), len(right_rows)
        while i < n and j < m:
            lk, rk = lkeys[i], rkeys[j]
            if lk < rk:
                i += 1
            elif lk > rk:
                j += 1
            else:
                i2 = i
                while i2 < n and lkeys[i2] == lk:
                    i2 += 1
                j2 = j
                while j2 < m and rkeys[j2] == rk:
                    j2 += 1
                if not any(v is None for v in lproject(left_rows[i])):
                    right_group = right_rows[j:j2]
                    for lrow in left_rows[i:i2]:
                        if residual is None and project is None:
                            out.extend(lrow + rrow for rrow in right_group)
                        else:
                            for rrow in right_group:
                                joined = lrow + rrow
                                if residual is None or residual(joined):
                                    out.append(
                                        joined if project is None else project(joined)
                                    )
                        if len(out) >= size:
                            yield out
                            out = []
                i, j = i2, j2
        if out:
            yield out

    def column_nullable(self, position: int) -> bool:
        if self.output_positions is not None:
            position = self.output_positions[position]
        split = len(self.left.schema)
        if position < split:
            return self.left.column_nullable(position)
        return self.right.column_nullable(position - split)

    def explain_label(self) -> str:
        return "Merge Join"

    def explain_details(self) -> List[str]:
        cond = " AND ".join(f"({l} = {r})" for l, r in self.pairs)
        details = [f"Merge Cond: {cond}"]
        if self.residual is not None:
            details.append(f"Join Filter: {self.residual!r}")
        if self.output_positions is not None:
            details.append(f"Output: {', '.join(self.schema.names)}")
        return details


class Materialize(PhysicalPlan):
    """Materializes (and caches) the child output for repeated scans."""

    def __init__(self, child: PhysicalPlan):
        self.child = child
        self.schema = child.schema
        self.estimated_rows = child.estimated_rows
        self._cache: Optional[List[Row]] = None

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        if self._cache is None:
            self._cache = _all_rows(self.child, size)
        return _as_columns(_chunks(self._cache, size), len(self.schema))

    def column_nullable(self, position: int) -> bool:
        return self.child.column_nullable(position)

    def explain_label(self) -> str:
        return "Materialize"


class NestedLoopJoin(PhysicalPlan):
    """Nested-loop join with an arbitrary predicate (or cross product)."""

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        predicate: Optional[Expression] = None,
    ):
        self.left = left
        self.right = Materialize(right)
        self.predicate = predicate
        self.schema = left.schema.concat(right.schema)
        self._compiled = predicate.compile(self.schema) if predicate is not None else None
        self.estimated_rows = left.estimated_rows * max(right.estimated_rows, 1.0)

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        return _as_columns(self._loop(size), len(self.schema))

    def _loop(self, size: int) -> Iterator[Batch]:
        predicate = self._compiled
        right_rows = _all_rows(self.right, size)
        out: Batch = []
        for batch in _row_batches(self.left, size):
            for lrow in batch:
                if predicate is None:
                    out.extend(lrow + rrow for rrow in right_rows)
                else:
                    for rrow in right_rows:
                        joined = lrow + rrow
                        if predicate(joined):
                            out.append(joined)
                if len(out) >= size:
                    yield out
                    out = []
        yield out

    def explain_label(self) -> str:
        return "Nested Loop"

    def explain_details(self) -> List[str]:
        if self.predicate is not None:
            return [f"Join Filter: {self.predicate!r}"]
        return []


class HashDistinct(PhysicalPlan):
    """Duplicate elimination preserving first-seen order."""

    def __init__(self, child: PhysicalPlan):
        self.child = child
        self.schema = child.schema
        self.estimated_rows = child.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        # dedup needs row identity: transpose at the boundary (C-speed zip)
        width = len(self.schema)
        seen: set = set()
        add = seen.add
        for batch in self.child.column_batches(size):
            fresh = [
                row for row in batch.to_rows() if not (row in seen or add(row))
            ]
            if fresh:
                yield ColumnBatch.from_rows(fresh, width)

    def column_nullable(self, position: int) -> bool:
        return self.child.column_nullable(position)

    def explain_label(self) -> str:
        return "HashAggregate"

    def explain_details(self) -> List[str]:
        return ["Group Key: all output columns (distinct)"]


class Append(PhysicalPlan):
    """Bag union of two inputs (schema from the left)."""

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan):
        self.left = left
        self.right = right
        self.schema = left.schema
        self.estimated_rows = left.estimated_rows + right.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        yield from self.left.column_batches(size)
        yield from self.right.column_batches(size)

    def column_nullable(self, position: int) -> bool:
        return self.left.column_nullable(position) or self.right.column_nullable(position)

    def explain_label(self) -> str:
        return "Append"


class Except(PhysicalPlan):
    """Set difference left − right (distinct output)."""

    def __init__(self, left: PhysicalPlan, right: PhysicalPlan):
        self.left = left
        self.right = right
        self.schema = left.schema
        self.estimated_rows = left.estimated_rows

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        return _as_columns(self._difference(size), len(self.schema))

    def _difference(self, size: int) -> Iterator[Batch]:
        gone: set = set()
        for batch in _row_batches(self.right, size):
            gone.update(batch)
        add = gone.add  # emitted rows join `gone`, deduplicating the output
        for batch in _row_batches(self.left, size):
            yield [row for row in batch if not (row in gone or add(row))]

    def column_nullable(self, position: int) -> bool:
        return self.left.column_nullable(position)

    def explain_label(self) -> str:
        return "SetOp Except"


class Confidence(PhysicalPlan):
    """Per-value-tuple confidence over a translated U-relation input.

    The child produces rows in the canonical U-relation column order:
    ``d_width`` ws-descriptor pairs, ``tid_count`` tuple-id columns, then
    the value columns.  The operator groups rows by value tuple
    batch-at-a-time (columnar batches are grouped natively, without
    materializing a :class:`~repro.core.urelation.URelation` or even row
    tuples beyond the group keys), deduplicates encoded descriptor
    prefixes per group, and computes each group's confidence — the
    probability of the union of its descriptors' world-sets — through the
    world table's shared memoized
    :class:`~repro.core.probability.ConfidenceEngine`.

    ``method`` selects exact enumeration, the bounded-error ``(epsilon,
    delta)`` sampler, or per-component auto selection; the method actually
    used, group counts, and error budget are recorded in ``last_summary``
    (the serving layer returns it as the ``conf`` wire field) and in the
    ``conf_groups_total`` / ``conf_method`` / ``conf_seconds`` metrics.

    Output rows are ``value columns + conf``, sorted by descending
    confidence (ties by value repr), matching
    :func:`~repro.core.probability.confidence_relation`.
    """

    def __init__(
        self,
        child: PhysicalPlan,
        d_width: int,
        tid_count: int,
        value_names: Sequence[str],
        world_table,
        method: str = "auto",
        epsilon: float = 0.01,
        delta: float = 0.05,
        seed: int = 0,
    ):
        self.child = child
        self.d_width = int(d_width)
        self.tid_count = int(tid_count)
        self.value_names = list(value_names)
        self.world_table = world_table
        self.method = method
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.seed = int(seed)
        self.schema = Schema(self.value_names + ["conf"])
        # distinct value tuples are a fraction of the input U-relation rows
        self.estimated_rows = max(child.estimated_rows * 0.5, 1.0)
        #: encoded descriptor prefix -> Descriptor, shared across executions
        #: of this (plan-cached) operator
        self._decode_cache: Dict[Tuple[Any, ...], Any] = {}
        #: summary of the most recent execution (wire/trace metadata)
        self.last_summary: Optional[Dict[str, Any]] = None

    @property
    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    # -- grouping ------------------------------------------------------
    def _grouped_columns(self, size: int) -> Dict[Row, set]:
        """Native columnar grouping: zip only the needed column slices."""
        dend = 2 * self.d_width
        vstart = dend + self.tid_count
        groups: Dict[Row, set] = {}
        for batch in self.child.column_batches(size):
            columns = batch.columns
            if vstart < len(columns):
                values_iter = zip(*columns[vstart:])
            else:
                values_iter = (() for _ in range(batch.length))
            if dend:
                descs_iter = zip(*columns[:dend])
            else:
                descs_iter = (() for _ in range(batch.length))
            for values, enc in zip(values_iter, descs_iter):
                group = groups.get(values)
                if group is None:
                    groups[values] = {enc}
                else:
                    group.add(enc)
        return groups

    # -- confidence computation ----------------------------------------
    def _compute(self, groups: Dict[Row, set]) -> List[Row]:
        import time

        from ..core.descriptor import decode_descriptor
        from ..core.probability import confidence_engine
        from ..obs import counter, histogram

        started = time.perf_counter()
        engine = confidence_engine(self.world_table)
        decode = self._decode_cache
        exact = approx = 0
        out: List[Row] = []
        for values, encs in groups.items():
            descriptors = []
            for enc in encs:
                descriptor = decode.get(enc)
                if descriptor is None:
                    descriptor = decode_descriptor(enc)
                    decode[enc] = descriptor
                descriptors.append(descriptor)
            conf, used = engine.confidence_detail(
                descriptors, self.method, self.epsilon, self.delta, self.seed
            )
            if used == "approx":
                approx += 1
            else:
                exact += 1
            out.append(values + (conf,))
        out.sort(key=lambda row: (-row[-1], tuple(map(repr, row[:-1]))))
        elapsed = time.perf_counter() - started
        counter("conf_groups_total", "Value groups confidence-computed").inc(
            len(groups)
        )
        method_counter = counter(
            "conf_method", "Confidence computations by method actually used"
        )
        if exact:
            method_counter.inc(exact, method="exact")
        if approx:
            method_counter.inc(approx, method="approx")
        histogram("conf_seconds", "Confidence kernel wall time").observe(elapsed)
        self.last_summary = {
            "method": self.method,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "seed": self.seed,
            "groups": len(groups),
            "exact_groups": exact,
            "approx_groups": approx,
            "seconds": elapsed,
        }
        return out

    def _column_batches(self, size: int) -> Iterator[ColumnBatch]:
        groups = self._grouped_columns(size)
        yield from _as_columns(_chunks(self._compute(groups), size), len(self.schema))

    def column_nullable(self, position: int) -> bool:
        if position == len(self.schema) - 1:
            return False  # conf is always a float
        return self.child.column_nullable(2 * self.d_width + self.tid_count + position)

    def explain_label(self) -> str:
        return "Confidence"

    def explain_details(self) -> List[str]:
        details = [
            f"Group Key: {', '.join(self.value_names) or '(none)'}",
            f"Method: {self.method}",
        ]
        if self.method != "exact":
            details.append(
                f"Error Budget: epsilon={self.epsilon}, delta={self.delta}, "
                f"seed={self.seed}"
            )
        return details


def execute(plan: PhysicalPlan, batch_size: int = BATCH_SIZE) -> Relation:
    """Run a physical plan to completion and materialize the result."""
    rows: List[Row] = []
    extend = rows.extend
    for batch in plan.column_batches(batch_size):
        extend(batch.to_rows())
    return Relation.from_trusted(plan.schema, rows)
