"""Per-connection sessions: statement namespaces, bindings, snapshots.

A :class:`Session` is the unit of client state on a shared
:class:`~repro.core.udatabase.UDatabase`.  It owns:

* **a prepared-statement namespace** — ``PREPARE``-style named statements
  (:meth:`Session.prepare`) plus a transparent by-text statement cache
  (:meth:`Session.execute`).  Each session *parses its own statements*,
  which is not a nicety but the concurrency mechanism: every parse gets
  its own ``$n`` binding store, so two sessions running ``where x = $1``
  with different bindings never touch each other's parameters.  (The
  physical plan is still shared across sessions for parameter-free
  statements — structural keys are equal — while parameterized statements
  plan once per session, keyed by store identity, and then go
  executor-only for every binding.)
* **read consistency via catalog-version snapshots** — within one
  statement, consistency is automatic (a plan embeds the immutable
  relation objects it was planned over, so a concurrent table
  replacement cannot tear a running query).  *Across* statements,
  :meth:`Session.snapshot` gives optimistic repeatable reads: it records
  the catalog version, and every statement in the block verifies the
  version is unchanged before executing, raising :class:`SnapshotChanged`
  when concurrent DDL moved the catalog under the session.
* **multi-statement write atomicity** — ``BEGIN``/``COMMIT``/``ROLLBACK``
  (or :meth:`Session.begin` / :meth:`Session.commit` /
  :meth:`Session.rollback`) group this connection's DML into one
  :class:`~repro.core.txn.Transaction`: statements stage against a
  private overlay (invisible to every other session) and COMMIT
  publishes them as one atomic partition swap, refusing with
  :class:`~repro.core.txn.TransactionConflict` if a concurrent writer
  touched the same relations.  Queries inside a transaction read the
  committed base state; staged DML is applied inline on the calling
  thread (publication, at COMMIT, is the only catalog mutation).

Sessions serialize their own statements (one client speaks one protocol
connection); different sessions run fully in parallel through the
server's executor.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from ..core.prepared import PreparedDML, PreparedQuery
from ..core.txn import Transaction, TxnResult
from ..core.udatabase import UDatabase
from ..obs import counter as obs_counter
from ..obs import current_trace, record_statement, register_session, request_trace
from ..obs import span as obs_span

__all__ = ["Session", "SnapshotChanged"]

#: Per-session by-text statement cap (mirrors the per-udb cap in
#: :mod:`repro.sql`): ad-hoc texts with inline literals must not grow the
#: namespace without bound.
_SESSION_STATEMENT_LIMIT = 256


def _result_rows(result: Any) -> int:
    """Row count of a statement result, for resource accounting.

    Duck-typed over the three result shapes a session can return:
    relations (certain or uncertain), DML results (rows written), and
    scalars (confidence values — zero rows).
    """
    rows = getattr(result, "rows", None)
    if rows is not None:
        return len(rows)
    inner = getattr(result, "relation", None)
    if inner is not None and getattr(inner, "rows", None) is not None:
        return len(inner.rows)
    count = getattr(result, "count", None)
    if isinstance(count, int):
        return count
    return 0


class SnapshotChanged(RuntimeError):
    """Concurrent DDL moved the catalog under a snapshot read."""

    def __init__(self, expected: int, current: int):
        super().__init__(
            f"catalog version moved from {expected} to {current} during a "
            f"snapshot read; re-issue the statement outside the snapshot "
            f"or take a new one"
        )
        self.expected = expected
        self.current = current
        # every optimistic-read conflict is constructed here, whichever
        # session method detects it — one counter covers them all
        obs_counter(
            "snapshot_conflicts_total",
            "Optimistic snapshot reads aborted by concurrent catalog movement",
        ).inc()


class Session:
    """One client's statements, bindings, and snapshot on a shared UDatabase."""

    def __init__(
        self,
        udb: UDatabase,
        server: Optional[Any] = None,
        use_indexes: bool = True,
    ):
        self.udb = udb
        #: The owning :class:`~repro.server.server.QueryServer`, or None
        #: for a standalone session (statements then execute inline on the
        #: calling thread, without admission control or coalescing).
        self.server = server
        self.use_indexes = use_indexes
        self._named: Dict[str, PreparedQuery] = {}
        self._by_text: Dict[str, PreparedQuery] = {}
        #: Serializes this session's statements (a session models one
        #: connection; its requests are a sequence, not a pool).
        self._lock = threading.RLock()
        self._snapshot_version: Optional[int] = None
        self._snapshot_identity: Optional[dict] = None
        #: The open per-connection :class:`Transaction`, if any: while set,
        #: the session's DML stages against the transaction's overlay and
        #: publishes in one swap at COMMIT (see :mod:`repro.core.txn`).
        self._txn: Optional[Transaction] = None
        self.statements_run = 0
        #: Key into the obs per-session resource accounting (see
        #: :mod:`repro.obs.accounting`; surfaced by ``server.stats()``).
        self.accounting_id = register_session()

    # ------------------------------------------------------------------
    # statement namespace
    # ------------------------------------------------------------------
    def _parse(self, sql: str) -> PreparedQuery:
        """Parse SQL into a session-owned statement (own ``$n`` store).

        Queries become :class:`PreparedQuery`, DML becomes
        :class:`PreparedDML` — both session-owned, so concurrent sessions
        binding ``$n`` slots of identical texts never share state.
        """
        from ..core.dml import Delete, Insert, Update
        from ..core.txn import Begin, Commit, Rollback
        from ..sql.parser import CreateIndex, DropIndex, Vacuum, parse

        statement = parse(sql)
        if isinstance(statement, (CreateIndex, DropIndex)):
            raise ValueError("cannot prepare DDL; use Session.execute_ddl")
        if isinstance(statement, (Vacuum, Begin, Commit, Rollback)):
            raise ValueError(
                "cannot prepare VACUUM or transaction control; "
                "pass it to Session.execute"
            )
        if isinstance(statement, (Insert, Update, Delete)):
            return PreparedDML(statement, self.udb, sql=sql)
        return PreparedQuery(statement, self.udb, sql=sql)

    def prepare(self, name: str, sql: str) -> PreparedQuery:
        """Register a named prepared statement in this session's namespace.

        Re-preparing a name replaces it (the PostgreSQL ``PREPARE``
        convention is an error; replacement is friendlier for a serving
        loop and costs nothing).  The statement belongs to this session:
        its ``$n`` bindings are invisible to every other session.
        """
        prepared = self._parse(sql)
        with self._lock:
            self._named[name] = prepared
        return prepared

    def deallocate(self, name: str) -> None:
        """Drop a named prepared statement (KeyError when absent)."""
        with self._lock:
            del self._named[name]

    def statement(self, name: str) -> PreparedQuery:
        """Look up a named prepared statement."""
        with self._lock:
            try:
                return self._named[name]
            except KeyError:
                raise KeyError(
                    f"no prepared statement {name!r} in this session; "
                    f"have {sorted(self._named)}"
                ) from None

    def _by_text_statement(self, sql: str) -> PreparedQuery:
        with self._lock:
            with obs_span("parse") as sp:
                cached = self._by_text.get(sql)
                sp.set(cached=cached is not None)
                if cached is None:
                    cached = self._parse(sql)
                    if len(self._by_text) >= _SESSION_STATEMENT_LIMIT:
                        self._by_text.clear()
                    self._by_text[sql] = cached
                return cached

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> "_Snapshot":
        """Optimistic repeatable reads: ``with session.snapshot(): ...``.

        Statements inside the block verify the catalog version they
        started under is still current; concurrent DDL raises
        :class:`SnapshotChanged` instead of silently mixing pre- and
        post-DDL answers across the block's statements.
        """
        return _Snapshot(self)

    def _check_snapshot(self) -> None:
        expected = self._snapshot_version
        if expected is not None:
            current = self.udb.catalog_version
            if current != expected:
                raise SnapshotChanged(expected, current)

    def _catalog_identity(self):
        """The relation-object identity map snapshot validation compares.

        Swaps (DML publishes, compaction) replace relation objects;
        in-place access-path work (lazy index builds, statistics) does
        not — so the identity map moves exactly when answers may move.
        See :meth:`~repro.core.udatabase.UDatabase.catalog_identity`.
        """
        return self.udb.catalog_identity()

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self) -> TxnResult:
        """Open a multi-statement transaction on this session (``BEGIN``).

        Refused inside a snapshot block (a write would break the
        snapshot's guarantee, exactly like plain DML) and when a
        transaction is already open (they do not nest).
        """
        with self._lock:
            if self._snapshot_version is not None:
                raise SnapshotChanged(
                    self._snapshot_version, self.udb.catalog_version
                )
            if self._txn is not None and self._txn.status == "open":
                raise ValueError(
                    "a transaction is already open on this session; "
                    "COMMIT or ROLLBACK it first"
                )
            self._txn = Transaction(self.udb)
            return TxnResult("open")

    def commit(self) -> TxnResult:
        """Publish the open transaction atomically (``COMMIT``).

        Raises :class:`~repro.core.txn.TransactionConflict` — with
        nothing published and the transaction rolled back — when a
        concurrent writer replaced a touched relation's partitions.
        """
        with self._lock:
            txn = self._require_txn("COMMIT")
            self._txn = None
            return txn.commit()

    def rollback(self) -> TxnResult:
        """Discard the open transaction's staged statements (``ROLLBACK``)."""
        with self._lock:
            txn = self._require_txn("ROLLBACK")
            self._txn = None
            return txn.rollback()

    def _require_txn(self, verb: str) -> Transaction:
        txn = self._txn
        if txn is None or txn.status != "open":
            raise ValueError(f"{verb} without an open transaction")
        return txn

    def _apply_vacuum(self, table: Optional[str]):
        """Run ``VACUUM [table]`` (caller holds the session lock).

        Refused inside snapshots (compaction moves the catalog version)
        and transactions (its swap would conflict with the transaction's
        own publish).  Server-bound sessions route through the server so
        compaction admits under the ``vacuum`` cost class.
        """
        if self._snapshot_version is not None:
            raise SnapshotChanged(self._snapshot_version, self.udb.catalog_version)
        if self._txn is not None and self._txn.status == "open":
            raise ValueError(
                "VACUUM cannot run inside a transaction (its swap would "
                "conflict with the transaction's own publish)"
            )
        if self.server is not None:
            return self.server.vacuum(table)
        return self.udb.compact(table)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, params: Sequence[Any] = ()):
        """Run a SQL statement (queries, DML, index DDL), returning its result.

        Queries and DML are prepared transparently (cached by text in
        this session) and routed through the server's admission + executor
        layers when the session is server-bound.  DDL executes inline;
        DDL and DML are rejected inside a snapshot block (the session's
        own write would break the snapshot's guarantee).

        ``VACUUM [table]`` compacts segment stacks (through the server's
        ``vacuum`` admission class when server-bound), and
        ``BEGIN``/``COMMIT``/``ROLLBACK`` manage this session's
        multi-statement transaction — while one is open, DML stages
        privately and publishes atomically at COMMIT.
        """
        from ..sql.parser import CreateIndex, DropIndex, parse

        from ..core.txn import Begin, Commit, Rollback
        from ..sql.parser import Vacuum

        with self._lock:
            self._check_snapshot()
            with request_trace(sql=sql):
                head = sql.lstrip().lower()
                word = head.split(None, 1)[0] if head else ""
                if word in ("create", "drop", "vacuum", "begin", "commit", "rollback"):
                    statement = parse(sql)
                    trace = current_trace()
                    if isinstance(statement, (CreateIndex, DropIndex)):
                        if trace is not None:
                            trace.root.set(cost_class="ddl")
                        return self._apply_ddl(statement)
                    if isinstance(statement, Vacuum):
                        if trace is not None:
                            trace.root.set(cost_class="vacuum")
                        return self._apply_vacuum(statement.table)
                    if isinstance(statement, (Begin, Commit, Rollback)):
                        if trace is not None:
                            trace.root.set(cost_class="txn")
                        if isinstance(statement, Begin):
                            return self.begin()
                        if isinstance(statement, Commit):
                            return self.commit()
                        return self.rollback()
                prepared = self._by_text_statement(sql)
                return self._run(prepared, tuple(params))

    def execute_prepared(self, name: str, *params: Any):
        """Run a named prepared statement with the given bindings."""
        with self._lock:
            self._check_snapshot()
            prepared = self.statement(name)
            with request_trace(sql=prepared.sql or ""):
                with obs_span("parse", cached=True):
                    pass  # parsed at PREPARE time; keep the span present
                return self._run(prepared, params)

    def run(self, prepared: PreparedQuery, *params: Any):
        """Run a session-owned :class:`PreparedQuery` (from :meth:`prepare`)."""
        with self._lock:
            self._check_snapshot()
            with request_trace(sql=prepared.sql or ""):
                return self._run(prepared, params)

    def execute_ddl(self, sql: str):
        """Apply index DDL to the shared database (never inside a snapshot)."""
        from ..sql.parser import CreateIndex, DropIndex, parse

        statement = parse(sql)
        if not isinstance(statement, (CreateIndex, DropIndex)):
            raise ValueError("execute_ddl takes CREATE INDEX / DROP INDEX only")
        with self._lock:
            return self._apply_ddl(statement)

    def _apply_ddl(self, statement):
        """Apply a parsed DDL statement (caller holds the session lock).

        Mirrors :func:`repro.sql.execute_sql`'s DDL branch — no replace on
        CREATE, so a name collision with a different definition errors
        instead of destroying an existing access path.
        """
        from ..sql.parser import CreateIndex

        if self._snapshot_version is not None:
            raise SnapshotChanged(self._snapshot_version, self.udb.catalog_version)
        if self._txn is not None and self._txn.status == "open":
            raise ValueError(
                "DDL cannot run inside a transaction; COMMIT or ROLLBACK first"
            )
        db = self.udb.to_database()
        if isinstance(statement, CreateIndex):
            return db.create_index(
                statement.name,
                statement.table,
                list(statement.columns),
                kind=statement.kind,
            )
        db.drop_index(statement.name)
        return None

    def _run(self, prepared: PreparedQuery, params: Tuple[Any, ...]):
        if isinstance(prepared, PreparedDML) and self._snapshot_version is not None:
            # a session's own write would invalidate the snapshot it is
            # reading under — same contract as DDL
            raise SnapshotChanged(self._snapshot_version, self.udb.catalog_version)
        self.statements_run += 1
        if isinstance(prepared, PreparedDML) and self._txn is not None:
            if self._txn.status == "open":
                # stage against the transaction's private overlay, inline
                # (nothing publishes until COMMIT, so there is no shared
                # mutation for the server's executor to serialize)
                return self._txn.run(prepared, params)
        started = time.perf_counter()
        if self.server is not None:
            result = self.server.execute(prepared, params, session=self)
        else:
            result = prepared.run(*params, use_indexes=self.use_indexes)
        trace = current_trace()
        record_statement(
            self.accounting_id,
            trace.root.attrs.get("cost_class") if trace is not None else None,
            rows=_result_rows(result),
            seconds=time.perf_counter() - started,
        )
        # optimistic validation closes on both sides: the version pre-check
        # alone leaves a window where a swap lands after it but before the
        # plan resolves its relations, silently answering from the new
        # catalog inside a "repeatable" block.  The post-check compares
        # relation *identities* — a read's own lazy index builds bump the
        # version without moving answers, and must not conflict the
        # snapshot that triggered them.
        if (
            self._snapshot_identity is not None
            and self._catalog_identity() != self._snapshot_identity
        ):
            raise SnapshotChanged(
                self._snapshot_version, self.udb.catalog_version
            )
        return result

    def __repr__(self) -> str:
        bound = "server-bound" if self.server is not None else "standalone"
        return (
            f"Session({bound}, named={sorted(self._named)}, "
            f"statements_run={self.statements_run})"
        )


class _Snapshot:
    """Context manager recording/clearing a session's snapshot version."""

    def __init__(self, session: Session):
        self._session = session

    def __enter__(self) -> Session:
        session = self._session
        with session._lock:
            if session._snapshot_version is not None:
                raise RuntimeError("session snapshots do not nest")
            session._snapshot_version = session.udb.catalog_version
            session._snapshot_identity = session._catalog_identity()
        return session

    def __exit__(self, *exc: Any) -> None:
        with self._session._lock:
            self._session._snapshot_version = None
            self._session._snapshot_identity = None
