"""U-relational databases: world table + vertical partitions per relation.

A :class:`UDatabase` holds, for every logical relation ``R[A1..An]``, a list
of U-relations whose value columns jointly cover ``A1..An`` (Definition 2.2
— overlap is allowed), plus the shared world table ``W``.

This module also implements the *semantics*: instantiating the possible
world of a total valuation (Section 2), enumerating all worlds (the
brute-force oracle the test suite checks query translation against), and
the validity condition (no contradictory values for a tuple field in any
world).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..relational.database import Database
from ..relational.index import (
    attach_index,
    build_index,
    built_indexes_on,
    carry_index_defs,
    defer_index,
    ensure_index,
    indexes_on,
)
from ..relational.plancache import bump_relation, watch_relation
from ..relational.relation import Relation
from ..relational.schema import Schema
from .descriptor import Descriptor
from .urelation import URelation, tid_column
from .worldtable import WorldTable

__all__ = ["UDatabase", "LogicalSchema", "CompactionPolicy", "CompactionResult"]


class CompactionPolicy:
    """The configurable bar a partition must cross to be worth compacting.

    A partition is *due* when its segment stack has grown past
    ``segment_limit`` appended segments, or when at least ``min_deleted``
    rows are dead and they make up ``deleted_ratio`` or more of everything
    ever appended.  The inputs are exactly what
    :meth:`UDatabase.segment_health` publishes, so a trigger (the server's
    background hook, a cron, an operator reading the gauges) needs no
    other state.
    """

    __slots__ = ("segment_limit", "deleted_ratio", "min_deleted")

    def __init__(
        self,
        segment_limit: int = 8,
        deleted_ratio: float = 0.3,
        min_deleted: int = 1,
    ):
        if segment_limit < 1:
            raise ValueError("segment_limit must be at least 1")
        self.segment_limit = int(segment_limit)
        self.deleted_ratio = float(deleted_ratio)
        self.min_deleted = int(min_deleted)

    def due(self, health: Mapping[str, Any]) -> bool:
        """Whether one partition's health record crosses the bar."""
        if health["segment_count"] > self.segment_limit:
            return True
        return (
            health["deleted_rows"] >= self.min_deleted
            and health["deleted_ratio"] >= self.deleted_ratio
        )

    def __repr__(self) -> str:
        return (
            f"CompactionPolicy(segment_limit={self.segment_limit}, "
            f"deleted_ratio={self.deleted_ratio}, min_deleted={self.min_deleted})"
        )


class CompactionResult(NamedTuple):
    """What one :meth:`UDatabase.compact` run (a ``VACUUM``) accomplished.

    ``relations`` names the logical relations that had at least one
    partition rewritten; ``partitions`` counts rewritten partitions,
    ``segments_before`` how many segments they held going in (each comes
    out holding one), and ``rows_dropped`` how many dead rows the rewrite
    reclaimed.  An all-compact database yields the zero result.
    """

    relations: Tuple[str, ...]
    partitions: int
    segments_before: int
    rows_dropped: int
    seconds: float

    @property
    def changed(self) -> bool:
        return self.partitions > 0


class LogicalSchema:
    """The logical (uncertain) schema of one relation: name + attributes."""

    def __init__(self, name: str, attributes: Sequence[str]):
        self.name = name
        self.attributes: Tuple[str, ...] = tuple(attributes)

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(self.attributes)})"


def _tid_index_name(name: str, part: URelation) -> str:
    """Deterministic name of a partition's auto-created tuple-id index."""
    return f"idx_u_{name}_{'_'.join(part.value_names)}_tid"


def _value_index_name(name: str, part: URelation, column: str) -> str:
    """Deterministic name of a partition's auto-created value-column index."""
    return f"idx_u_{name}_{'_'.join(part.value_names)}_{column}"


def _auto_index_partition(name: str, part: URelation) -> None:
    """The (eager) auto-indexing policy for one vertical partition.

    Hash index on the tuple-id column (the partition-merge equijoins of
    the Figure 4 translation probe it), plus a sorted index per value
    column (selections of the experiment queries become point/range index
    scans).  Value columns with unsortable content are skipped silently —
    they simply stay sequential-scan-only.
    """
    ensure_index(
        part.relation, [tid_column(name)], kind="hash", name=_tid_index_name(name, part)
    )
    for column in part.value_names:
        try:
            ensure_index(
                part.relation,
                [column],
                kind="sorted",
                name=_value_index_name(name, part, column),
            )
        except TypeError:
            pass


def _defer_index_partition(name: str, part: URelation) -> None:
    """The lazy variant: record the same definitions, build on first
    planner access (``indexes_on``) — write-only pipelines never pay."""
    defer_index(
        part.relation, [tid_column(name)], kind="hash", name=_tid_index_name(name, part)
    )
    for column in part.value_names:
        defer_index(
            part.relation,
            [column],
            kind="sorted",
            name=_value_index_name(name, part, column),
        )


def _merge_tid_index_name(name: str, part: URelation) -> str:
    """Deterministic name of the ``auto_index="merge"`` sorted tid index."""
    return f"idx_u_{name}_{'_'.join(part.value_names)}_tid_sorted"


def _merge_index_partition(name: str, part: URelation) -> None:
    """Eagerly build the sorted tuple-id index of the ``"merge"`` policy.

    The merge-join profile (``prefer_merge_join=True``) consumes an
    already-*built* sorted index on exactly the join columns — and never
    triggers deferred builds — so this policy builds the index now rather
    than deferring.  Checked against *built* indexes only (``ensure_index``
    would force every pending lazy definition just to look).
    """
    target = _merge_tid_index_name(name, part)
    for index in built_indexes_on(part.relation):
        if index.name == target:
            return  # carried over incrementally by the write path
    index = build_index(
        part.relation, [tid_column(name)], kind="sorted", name=target
    )
    attach_index(part.relation, index)


class UDatabase:
    """A U-relational database (Definition 2.2)."""

    def __init__(
        self,
        world_table: Optional[WorldTable] = None,
        auto_index: Union[bool, str] = True,
    ):
        self.world_table = world_table or WorldTable()
        self._partitions: Dict[str, List[URelation]] = {}
        self._schemas: Dict[str, LogicalSchema] = {}
        #: Mirror the paper's experiment setup: every vertical partition
        #: gets a hash index on its tuple-id column (and the world table
        #: one on Var), so the tid-equijoins that reassemble partitions
        #: run as index probes.  ``"merge"`` extends the policy with an
        #: eagerly built *sorted* tuple-id index per partition, so the
        #: merge-join profile (``prefer_merge_join=True``, which never
        #: builds deferred indexes) hits the presorted merge path without
        #: manual ``CREATE INDEX`` — the paper's Figure 13 plans (merge
        #: joins over tid order) then run sort-free.
        self.auto_index = auto_index
        self._database: Optional[Database] = None
        self._database_world_version: Optional[int] = None
        #: User-created world-table index definitions ``(name, columns,
        #: kind)`` restored by persistence; applied whenever the ``w``
        #: snapshot is (re)materialized in :meth:`to_database`.
        self.world_index_defs: List[Tuple[str, Tuple[str, ...], str]] = []
        #: Mutation counter behind :attr:`catalog_version` — bumped by
        #: schema changes here and, via the plan cache's watcher hook, by
        #: any mutation of a partition relation (index DDL, deferred
        #: auto-index builds, statistics refreshes).
        self._catalog_version = 0
        #: Prepared statements keyed by SQL text (``repro.sql.prepare`` /
        #: ``execute_sql`` fill this so re-issued statements skip parsing
        #: *and* planning).
        self._statements: Dict[str, Any] = {}
        #: Next tuple id to hand out per relation, computed lazily from
        #: the partitions' tid columns on first INSERT and invalidated on
        #: :meth:`add_relation` (external replacement may renumber).
        self._next_tid: Dict[str, int] = {}
        #: Serializes DML statements: the write path is read-derive-swap
        #: over the partition lists, so concurrent writers must not
        #: interleave (readers never take this — they work off immutable
        #: relation objects).  RLock because UPDATE/DELETE matching runs a
        #: translated query while the statement holds the lock.
        self._write_lock = threading.RLock()
        #: The database-level open :class:`~repro.core.txn.Transaction`
        #: serving direct ``execute_sql`` BEGIN/COMMIT/ROLLBACK callers;
        #: server sessions carry their own per-connection transaction.
        self._active_txn = None

    @property
    def catalog_version(self) -> int:
        """Monotone catalog version covering schema, index, and world state.

        Bumps on :meth:`add_relation`, on every index mutation of a
        partition (including lazy auto-index first builds), on statistics
        refreshes, and on world-table growth (its own version counter is a
        component).  The prepared-plan cache invalidates *dependent*
        entries exactly on each of these; the version is the observable
        that provably moves whenever any of them happens.
        """
        return self._catalog_version + self.world_table.version

    def _bump_catalog_version(self) -> None:
        """Plan-cache watcher hook: a partition relation mutated."""
        self._catalog_version += 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_relation(
        self,
        name: str,
        attributes: Sequence[str],
        partitions: Iterable[URelation],
        build_now: bool = False,
    ) -> None:
        """Register a logical relation with its vertical partitions.

        The partitions' value columns must jointly cover ``attributes``.
        Auto-indexing is *lazy* by default: the partition index
        definitions are recorded but only built on first planner access,
        so write-only pipelines (conversion, save) skip the cost
        entirely.  ``build_now=True`` builds them eagerly, for callers
        that need deterministic first-query latency (see also
        :meth:`build_indexes`, which benchmark setup uses to force all
        deferred builds after generation).
        """
        partitions = list(partitions)
        covered = set()
        for part in partitions:
            if list(part.tid_names) != [tid_column(name)]:
                raise ValueError(
                    f"partition of {name!r} must have tid column {tid_column(name)!r}, "
                    f"got {list(part.tid_names)}"
                )
            covered.update(part.value_names)
        missing = set(attributes) - covered
        if missing:
            raise ValueError(f"partitions of {name!r} do not cover attributes {sorted(missing)}")
        extra = covered - set(attributes)
        if extra:
            raise ValueError(f"partitions of {name!r} carry unknown attributes {sorted(extra)}")
        replaced = self._partitions.get(name)
        self._schemas[name] = LogicalSchema(name, attributes)
        self._partitions[name] = partitions
        self._database = None  # the cached catalog view is stale now
        self._next_tid.pop(name, None)
        self._catalog_version += 1
        for part in partitions:
            # future index builds / stats refreshes on this partition must
            # bump this database's catalog version
            watch_relation(part.relation, self)
        if replaced is not None:
            # re-registering a name swaps its partition set: evict every
            # cached plan that scanned the old partitions
            for part in replaced:
                bump_relation(part.relation)
        if self.auto_index:
            for part in partitions:
                if build_now:
                    _auto_index_partition(name, part)
                else:
                    _defer_index_partition(name, part)
                if self.auto_index == "merge":
                    _merge_index_partition(name, part)

    # ------------------------------------------------------------------
    # the write path (see :mod:`repro.core.dml`)
    # ------------------------------------------------------------------
    def replace_partitions(self, name: str, partitions: Sequence[URelation]) -> None:
        """Swap a relation's partition set for DML-derived replacements.

        The lightweight sibling of :meth:`add_relation` for the write
        path: the logical schema is unchanged and the replacements were
        *derived* from the current partitions (appended segments and/or
        delete vectors), carrying their index structures or deferred
        definitions with them — so no re-validation and no auto-index
        re-deferral happens here.  Partitions whose relation object is
        reused (untouched by the statement) are not bumped; each actually
        replaced relation goes through :func:`bump_relation`, which evicts
        exactly the cached plans that scanned it and moves this database's
        :attr:`catalog_version` through the watcher hook.
        """
        old = self.partitions(name)
        if len(old) != len(partitions):
            raise ValueError(
                f"replacement for {name!r} must keep its {len(old)} partitions"
            )
        self._partitions[name] = list(partitions)
        self._database = None  # the cached catalog view is stale now
        kept = {id(part.relation) for part in partitions}
        for part in partitions:
            watch_relation(part.relation, self)
        for part in old:
            if id(part.relation) not in kept:
                bump_relation(part.relation)
        if self.auto_index == "merge":
            # keep the presorted-merge access path alive across writes:
            # append-derived relations carried the extended sorted index
            # (no-op here); delete/update-derived ones rebuild it eagerly
            for part in partitions:
                _merge_index_partition(name, part)

    def allocate_tids(self, name: str, count: int) -> int:
        """Reserve ``count`` fresh tuple ids; returns the first.

        The high-water mark is read once from the partitions' integer tid
        columns (non-integer tids are ignored) and advanced in memory
        afterwards, so repeated inserts don't rescan.
        """
        self.logical_schema(name)
        next_tid = self._next_tid.get(name)
        if next_tid is None:
            highest = 0
            tid_name = tid_column(name)
            for part in self._partitions[name]:
                position = part.relation.schema.resolve(tid_name)
                for row in part.relation.rows:
                    tid = row[position]
                    if isinstance(tid, int) and tid > highest:
                        highest = tid
            next_tid = highest + 1
        self._next_tid[name] = next_tid + count
        return next_tid

    def fresh_variable(self, name: str, tid: Any, attribute: str) -> str:
        """A world-table variable name no existing variable collides with."""
        base = f"{name}_{tid}_{attribute}"
        var = base
        suffix = 2
        while var in self.world_table:
            var = f"{base}_{suffix}"
            suffix += 1
        return var

    def insert(self, name: str, *rows: Sequence[Any]):
        """Insert logical tuples; see :func:`repro.core.dml.insert_rows`."""
        from .dml import insert_rows

        with self._write_lock:
            return insert_rows(self, name, rows)

    def copy_rows(self, name: str, rows: Iterable[Sequence[Any]]):
        """Bulk-ingest many logical tuples as ONE appended segment.

        The streaming-ingest funnel: semantically identical to inserting
        every row of ``rows`` one statement at a time, but the whole batch
        builds a single segment per partition and publishes with a single
        :meth:`replace_partitions` swap — exactly one ``bump_relation``
        per touched partition relation, so the plan cache invalidates
        once per batch instead of once per row.  Metered under the
        ``copy`` DML op.  See :func:`repro.core.dml.copy_rows`.
        """
        from .dml import copy_rows

        with self._write_lock:
            return copy_rows(self, name, rows)

    def compact(self, table: Optional[str] = None) -> CompactionResult:
        """Rewrite segment stacks into single base segments (``VACUUM``).

        For every partition of ``table`` (or of every relation when
        ``None``) that holds more than one segment or any deleted rows,
        build a replacement relation whose live rows sit in one fresh base
        segment (:meth:`~repro.relational.relation.Relation.compacted`)
        and swap it in through :meth:`replace_partitions` under the write
        lock.  Readers and pinned snapshots keep the old immutable
        relation objects; the swap is one catalog bump per rewritten
        partition, indistinguishable from any other write.  Index
        definitions carry over (re-deferred — compaction renumbers
        ordinals, so structures rebuild lazily on next planner access) and
        statistics recompute lazily for the new relation objects.  The
        world table is never touched.

        Emits ``compactions_total`` (per rewritten relation) and observes
        ``compaction_seconds``.
        """
        from ..obs import counter, histogram

        if table is not None:
            self.logical_schema(table)  # unknown table: raise before locking
        started = time.perf_counter()
        names = [table] if table is not None else self.relation_names()
        compacted: List[str] = []
        partitions_rewritten = 0
        segments_before = 0
        rows_dropped = 0
        bytes_reclaimed = 0
        with self._write_lock:
            for name in names:
                parts = self.partitions(name)
                replacements: List[URelation] = []
                changed = False
                for part in parts:
                    relation = part.relation
                    rewritten = relation.compacted()
                    if rewritten is relation:
                        replacements.append(part)
                        continue
                    segments_before += len(relation.segments())
                    dropped_here = len(relation.deleted_ordinals())
                    rows_dropped += dropped_here
                    # pointer-slot estimate of the reclaimed tuples (CPython
                    # tuple header + one slot per column); values are shared
                    # so their own sizes are not reclaimed by compaction
                    bytes_reclaimed += dropped_here * (
                        56 + 8 * len(relation.schema)
                    )
                    # ordinals changed wholesale: carry the definitions,
                    # rebuild the structures lazily on first planner access
                    carry_index_defs(relation, rewritten)
                    replacements.append(
                        URelation(
                            rewritten, part.d_width, part.tid_names, part.value_names
                        )
                    )
                    partitions_rewritten += 1
                    changed = True
                if changed:
                    self.replace_partitions(name, replacements)
                    compacted.append(name)
        seconds = time.perf_counter() - started
        if compacted:
            total = counter(
                "compactions_total", "Partition-stack rewrites, by relation"
            )
            for name in compacted:
                total.inc(relation=name)
            histogram(
                "compaction_seconds", "Wall seconds per compaction run"
            ).observe(seconds)
            counter(
                "compaction_rows_reclaimed_total",
                "Deleted rows dropped by compaction",
            ).inc(rows_dropped)
            counter(
                "compaction_bytes_reclaimed_total",
                "Estimated bytes reclaimed by compaction (tuple slots)",
            ).inc(bytes_reclaimed)
        return CompactionResult(
            tuple(compacted), partitions_rewritten, segments_before, rows_dropped,
            seconds,
        )

    def maybe_compact(
        self, policy: Optional[CompactionPolicy] = None
    ) -> CompactionResult:
        """Compact exactly the relations whose health crosses ``policy``.

        The threshold half of the compaction story: reads
        :meth:`segment_health` (without republishing gauges), asks the
        :class:`CompactionPolicy` which partitions are due, and compacts
        the owning relations.  Cheap when nothing is due — no lock taken,
        the zero :class:`CompactionResult` returned.
        """
        policy = policy or CompactionPolicy()
        due: List[str] = []
        for key, health in self.segment_health(publish=False).items():
            name = key.rsplit("/part", 1)[0]
            if name not in due and policy.due(health):
                due.append(name)
        if not due:
            return CompactionResult((), 0, 0, 0, 0.0)
        started = time.perf_counter()
        results = [self.compact(name) for name in due]
        return CompactionResult(
            tuple(n for r in results for n in r.relations),
            sum(r.partitions for r in results),
            sum(r.segments_before for r in results),
            sum(r.rows_dropped for r in results),
            time.perf_counter() - started,
        )

    @classmethod
    def from_certain(
        cls, relations: Mapping[str, Relation], world_table: Optional[WorldTable] = None
    ) -> "UDatabase":
        """Wrap certain one-world relations as trivial U-relations."""
        db = cls(world_table)
        for name, relation in relations.items():
            attrs = relation.schema.names
            partition = URelation.from_certain_rows(relation.rows, tid_column(name), attrs)
            db.add_relation(name, attrs, [partition])
        return db

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def relation_names(self) -> List[str]:
        return sorted(self._schemas)

    def logical_schema(self, name: str) -> LogicalSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise KeyError(
                f"unknown logical relation {name!r}; have {sorted(self._schemas)}"
            ) from None

    def partitions(self, name: str) -> List[URelation]:
        self.logical_schema(name)
        return list(self._partitions[name])

    def catalog_identity(self) -> Dict[str, Tuple[int, ...]]:
        """The identity map of every partition relation object.

        Answer-changing catalog mutations (DML publishes, compaction,
        table replacement) swap relation *objects*; access-path mutations
        (lazy index builds, statistics refreshes) mutate the same objects
        in place.  The identity map therefore moves exactly when answers
        may move — the discriminator :attr:`catalog_version` (bumped by
        both kinds) cannot be.  Consumed by the planner's cache-store
        guard and by session snapshot validation.
        """
        return {
            name: tuple(id(part.relation) for part in parts)
            for name, parts in self._partitions.items()
        }

    def segment_health(self, publish: bool = True) -> Dict[str, Dict[str, Any]]:
        """Per-partition write-path health, optionally published as gauges.

        For every vertical partition (keyed ``relation/part<i>``):
        ``segment_count`` (appended segments accumulated since the last
        base rewrite), ``live_rows``, ``deleted_rows``, and
        ``deleted_ratio`` (dead fraction of all appended rows) — exactly
        the inputs a compaction trigger needs (ROADMAP's write-path
        follow-on).  With ``publish=True`` (default) each value is also
        set on the ``segment_*`` gauges, labeled by partition, so the
        metrics snapshot carries the write path's state.

        Reading is cheap and never forces segment materialization: a
        relation the write path has not touched reports one base segment
        with nothing deleted, without copying its rows.
        """
        from ..obs import gauge

        out: Dict[str, Dict[str, Any]] = {}
        for name, parts in sorted(self._partitions.items()):
            for i, part in enumerate(parts):
                relation = part.relation
                segments = getattr(relation, "_segments", None)
                if segments is None:  # untouched: one implicit base segment
                    segment_count = 1
                    live = len(relation.rows)
                    deleted = 0
                else:
                    segment_count = len(segments)
                    live = len(relation.rows)
                    deleted = len(relation.deleted_ordinals())
                total = live + deleted
                key = f"{name}/part{i}"
                out[key] = {
                    "segment_count": segment_count,
                    "live_rows": live,
                    "deleted_rows": deleted,
                    "deleted_ratio": (deleted / total) if total else 0.0,
                }
        if publish:
            count_gauge = gauge(
                "segment_count", "Segments per partition (1 = compacted base)"
            )
            live_gauge = gauge("segment_live_rows", "Live rows per partition")
            ratio_gauge = gauge(
                "segment_deleted_ratio", "Dead fraction of appended rows"
            )
            deleted_gauge = gauge(
                "segment_deleted_rows",
                "Delete-vector density: dead rows per partition",
            )
            for key, health in out.items():
                count_gauge.set(health["segment_count"], partition=key)
                live_gauge.set(health["live_rows"], partition=key)
                ratio_gauge.set(health["deleted_ratio"], partition=key)
                deleted_gauge.set(health["deleted_rows"], partition=key)
        return out

    def build_indexes(self) -> None:
        """Force-build every deferred partition index now.

        The lazy auto-indexing escape hatch for callers that need
        deterministic query latency — benchmark setup calls this after
        generation so measured times never include one-off index builds.
        """
        for parts in self._partitions.values():
            for part in parts:
                indexes_on(part.relation)

    def prepare(self, sql: str):
        """Prepare a SQL statement (with optional ``$n`` parameter slots).

        Returns a :class:`~repro.core.prepared.PreparedQuery`; repeated
        ``run(...)`` calls — with any parameter bindings — reuse one
        cached physical plan and go executor-only.  Statements are cached
        by text, so preparing the same SQL twice returns the same object.
        """
        from ..sql import prepare as prepare_sql

        return prepare_sql(sql, self)

    def confidence(
        self,
        query,
        method: str = "auto",
        epsilon: float = 0.01,
        delta: float = 0.05,
        seed: int = 0,
        **knobs,
    ):
        """Tuple confidences of a query's possible answers (Section 7).

        Wraps ``query`` in :class:`~repro.core.query.Conf` and executes it
        through the vectorized confidence operator; the result is a
        :class:`~repro.core.probability.ConfidenceAnswer` — the possible
        value tuples plus a ``conf`` column, sorted by descending
        confidence, carrying the computation summary.  ``method`` is
        ``"auto"`` (default), ``"exact"``, or ``"approx"``; the sampler
        guarantees ``|answer - conf| <= epsilon`` with probability at
        least ``1 - delta``.  Extra ``knobs`` pass through to
        :func:`~repro.core.translate.execute_query`.
        """
        from .query import Conf
        from .translate import execute_query

        return execute_query(
            Conf(query, method=method, epsilon=epsilon, delta=delta, seed=seed),
            self,
            **knobs,
        )

    def session(self, **knobs):
        """Open a standalone :class:`~repro.server.session.Session` here.

        The session owns its prepared-statement namespace and ``$n``
        binding stores (concurrent sessions never share parameter state)
        and offers catalog-version snapshot reads.  Statements execute
        inline on the calling thread; for pooled execution with admission
        control, open sessions through a
        :class:`~repro.server.server.QueryServer` instead.
        """
        from ..server.session import Session

        return Session(self, **knobs)

    def serve(self, **knobs):
        """A :class:`~repro.server.server.QueryServer` over this database.

        Keyword arguments are the server's (``workers``, ``policy``,
        ``coalesce``, ``use_indexes``, ``auto_compact``).
        """
        from ..server import QueryServer

        return QueryServer(self, **knobs)

    def world_count(self) -> int:
        return self.world_table.world_count()

    def total_representation_rows(self) -> int:
        """Rows across all U-relations plus the world table."""
        total = len(self.world_table.relation())
        for parts in self._partitions.values():
            total += sum(len(p) for p in parts)
        return total

    def to_database(self) -> Database:
        """Expose the representation as plain named relations (plus ``w``).

        Partition naming follows the paper's experiments: ``u_<rel>_<attrs>``.
        The :class:`Database` (and its index registry) is cached across
        calls — DDL applied to it, e.g. ``CREATE INDEX`` through the SQL
        layer, persists — and invalidated when relations are added.  The
        ``w`` snapshot is refreshed only when the world table's version
        says it gained variables since the last call.

        Registering the auto-index definitions with the catalog *builds*
        any still-deferred ones (the registry stores live indexes): the
        first call here pays the lazy builds.  Only index DDL goes
        through this view — translated queries scan partitions directly
        — so plain query/convert/save pipelines keep their laziness.
        """
        if self._database is None:
            db = Database()
            for name, parts in sorted(self._partitions.items()):
                for part in parts:
                    label = f"u_{name}_" + "_".join(part.value_names)
                    db.create(label, part.relation, replace=True)
                    # register the partition's attached (auto-created)
                    # indexes with the catalog so SQL DDL can see/drop them
                    for idx in indexes_on(part.relation):
                        db.indexes.create(
                            idx.name, label, part.relation, idx.columns,
                            kind=idx.kind, replace=True,
                        )
            self._database = db
        db = self._database
        stale = self._database_world_version != self.world_table.version
        if stale or "w" not in db:
            world_relation = self.world_table.relation()
            db.create("w", world_relation, replace="w" in db)
            # index DDL and statistics refreshes on the world snapshot must
            # move this database's catalog version too (session snapshot
            # reads validate against it)
            watch_relation(world_relation, self)
            if self.auto_index:
                db.create_index("idx_w_var", "w", ["var"], kind="hash", replace=True)
            # restore persisted user-created world-table indexes; replacing
            # an existing ``w`` already carried live definitions over via
            # the registry rebuild, so this is idempotent
            for index_name, columns, kind in self.world_index_defs:
                try:
                    db.create_index(
                        index_name, "w", list(columns), kind=kind, replace=True
                    )
                except TypeError:
                    pass  # unsortable column in this snapshot: skip
            self._database_world_version = self.world_table.version
        return db

    def __repr__(self) -> str:
        rels = ", ".join(
            f"{name}[{len(parts)} parts]" for name, parts in sorted(self._partitions.items())
        )
        return f"UDatabase({rels}; {self.world_table!r})"

    # ------------------------------------------------------------------
    # semantics: possible worlds
    # ------------------------------------------------------------------
    def instantiate(self, valuation: Mapping[str, Any], name: str) -> Relation:
        """The instance of logical relation ``name`` in one world.

        Per Section 2: for every partition tuple whose descriptor the
        valuation extends, assign its values to the fields of the tuple id;
        tuples left partial are removed; the world's relation is a set.
        """
        schema = self.logical_schema(name)
        attr_pos = {a: i for i, a in enumerate(schema.attributes)}
        fields: Dict[Any, List[Any]] = {}
        assigned: Dict[Any, set] = {}
        for part in self._partitions[name]:
            for descriptor, tids, values in part:
                if not descriptor.extended_by(valuation):
                    continue
                (tid,) = tids
                row = fields.setdefault(tid, [None] * len(schema.attributes))
                got = assigned.setdefault(tid, set())
                for attr, value in zip(part.value_names, values):
                    pos = attr_pos[attr]
                    if attr in got and row[pos] != value:
                        raise ValueError(
                            f"invalid U-database: field {name}.{attr} of tuple {tid!r} "
                            f"takes both {row[pos]!r} and {value!r} in one world"
                        )
                    row[pos] = value
                    got.add(attr)
        complete = [
            tuple(row)
            for tid, row in fields.items()
            if len(assigned[tid]) == len(schema.attributes)
        ]
        return Relation(Schema(schema.attributes), complete).distinct()

    def worlds(self) -> Iterator[Tuple[Dict[str, Any], Dict[str, Relation]]]:
        """Enumerate (valuation, {relation name -> instance}) for all worlds.

        Exponential — this is the brute-force oracle for tests and for tiny
        illustrative examples, not a query processing path.
        """
        for valuation in self.world_table.valuations():
            instances = {
                name: self.instantiate(valuation, name) for name in self._schemas
            }
            yield valuation, instances

    def world_relations(self, valuation: Mapping[str, Any]) -> Dict[str, Relation]:
        """All relation instances of one world."""
        return {name: self.instantiate(valuation, name) for name in self._schemas}

    # ------------------------------------------------------------------
    # validity (Definition 2.2 / Example 2.3)
    # ------------------------------------------------------------------
    def is_valid(self) -> bool:
        """Check that no world assigns two values to the same tuple field.

        Pairwise check over partitions sharing value attributes: tuples with
        the same tuple id and consistent descriptors must agree on shared
        attributes.
        """
        for name, parts in self._partitions.items():
            for i, left in enumerate(parts):
                for right in parts[i:]:
                    shared = set(left.value_names) & set(right.value_names)
                    if not shared:
                        continue
                    if not _partitions_agree(left, right, shared, same=left is right):
                        return False
        return True


def _partitions_agree(
    left: URelation, right: URelation, shared: set, same: bool
) -> bool:
    left_pos = [left.value_names.index(a) for a in sorted(shared)]
    right_pos = [right.value_names.index(a) for a in sorted(shared)]
    by_tid: Dict[Any, List[Tuple[Descriptor, Tuple[Any, ...]]]] = {}
    for descriptor, tids, values in right:
        by_tid.setdefault(tids[0], []).append(
            (descriptor, tuple(values[i] for i in right_pos))
        )
    for descriptor, tids, values in left:
        mine = tuple(values[i] for i in left_pos)
        for other_descriptor, other_values in by_tid.get(tids[0], ()):
            if same and descriptor == other_descriptor and mine == other_values:
                continue  # the same physical tuple
            if descriptor.consistent_with(other_descriptor) and mine != other_values:
                return False
    return True
