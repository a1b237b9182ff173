"""The benchmark's server process: build a database and serve it.

Started by ``run.py`` as its own process::

    python3 perfbench/launcher.py --workload adhoc_skewed [--trace]

It generates the workload's uncertain TPC-H database, builds its
indexes, serves it with ``repro.server``'s TCP line protocol on an
ephemeral port, and prints one JSON line with the port and its set-up
timings.  Standard output carries only this control
protocol; anything the engine prints goes to standard error.  Commands
arrive on standard input, one JSON object a line, each answered by one
JSON line:

* ``{"cmd": "spans"}`` — the spans recorded since the last ``spans``;
* ``{"cmd": "quit"}`` — stop serving and exit.

End of input also stops the server, so it never outlives the benchmark.
With ``--trace``, calls into the engine's modules are wrapped in spans
(see ``spans.py``) before the server starts.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pathlib
import sys
import threading
import time
from typing import Any, Dict

import workloads
from spans import SpanRecorder

# the engine is imported inside functions, from the checkout's sources
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))


def _count_nodes(node: Any, names: tuple) -> int:
    own = 1 if type(node).__name__ in names else 0
    return own + sum(_count_nodes(child, names) for child in node.children)


def _physical_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    rows = 0
    qerror = 1.0
    stack = [args[0]]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        actual = node.actual_rows
        if actual is None:
            continue
        rows += actual
        if "Join" in type(node).__name__ and node.estimated_rows is not None:
            ratio = max(node.estimated_rows, 1.0) / max(actual, 1.0)
            qerror = max(qerror, ratio, 1.0 / ratio)
    return {"rows_out": len(result), "operator_rows": rows, "join_qerror_max": qerror}


def _translate_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    """Logical joins and, for queries that have any, translated-plan joins."""
    logical = _count_nodes(args[0], ("UJoin",))
    joins = _count_nodes(result.plan, ("Join", "Product")) if logical else 0
    return {"logical_joins": logical, "plan_joins": joins}


def _gc_spans(recorder: SpanRecorder):
    """A ``gc.callbacks`` hook recording each collection as a root span."""
    started: Dict[str, int] = {}

    def on_gc(phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            started["ns"] = time.perf_counter_ns()
        elif "ns" in started:
            recorder.record_root(
                "gc", started.pop("ns"), time.perf_counter_ns(),
                {"gen2": 1 if info["generation"] == 2 else 0},
            )

    return on_gc


def install_tracing(recorder: SpanRecorder) -> None:
    """Wrap the engine's layer entry points in spans (this process only)."""
    # import_module: a package may re-export a function under its module's name
    dml = importlib.import_module("repro.core.dml")
    translate = importlib.import_module("repro.core.translate")
    optimizer = importlib.import_module("repro.relational.optimizer")
    physical = importlib.import_module("repro.relational.physical")
    planner = importlib.import_module("repro.relational.planner")
    sql = importlib.import_module("repro.sql")
    parser = importlib.import_module("repro.sql.parser")
    from repro.core.txn import Transaction
    from repro.core.udatabase import UDatabase
    from repro.server.admission import AdmissionController
    from repro.server.executor import ConcurrentExecutor
    from repro.server.server import QueryServer
    from repro.server.session import Session

    wrap = recorder.wrap
    parser.parse = sql.parse = wrap("sql.parse", parser.parse)
    translate.translate = wrap(
        "translate",
        translate.translate,
        _translate_attrs,
    )
    optimizer.optimize = wrap("optimizer", optimizer.optimize)
    planner.plan_physical = wrap("planner", planner.plan_physical)
    physical.execute = wrap("physical", physical.execute, _physical_attrs)
    QueryServer.render_result = wrap(
        "render", QueryServer.render_result, lambda a, k, r: {"bytes": len(r)}
    )
    Session.execute = wrap("session", Session.execute)
    Session.execute_prepared = wrap("session", Session.execute_prepared)
    AdmissionController.admit = recorder.wrap_enter("admission", AdmissionController.admit)
    run = ConcurrentExecutor.run
    ConcurrentExecutor.run = lambda self, fn, key=None: run(self, recorder.carry(fn), key)

    single = wrap("dml.insert", dml.insert_rows)
    batch = wrap("dml.batch_insert", dml.insert_rows)
    dml.insert_rows = lambda udb, name, rows: (batch if len(rows) > 1 else single)(udb, name, rows)
    dml.update_where = wrap("dml.update", dml.update_where)
    dml.delete_where = wrap("dml.delete", dml.delete_where)
    Transaction.commit = wrap("txn.commit", Transaction.commit)
    UDatabase.compact = wrap(
        "compaction",
        UDatabase.compact,
        lambda a, k, r: {
            "rows_dropped": r.rows_dropped,
            "rewrites": 1 if r.partitions else 0,
            "auto_rewrites": 1
            if r.partitions and threading.current_thread().name == "repro-auto-compact"
            else 0,
        },
    )
    gc.callbacks.append(_gc_spans(recorder))
    UDatabase.replace_partitions = wrap(
        "udatabase.swap",
        UDatabase.replace_partitions,
        lambda a, k, r: {
            "segments_max": max(
                (len(getattr(p.relation, "_segments", None) or (None,)) for p in a[2]),
                default=0,
            )
        },
    )


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark server process")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    # the control protocol owns stdout; engine output goes to stderr
    protocol = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def reply(payload: Dict[str, Any]) -> None:
        protocol.write(json.dumps(payload) + "\n")  # line-buffered

    recorder = SpanRecorder()
    if args.trace:
        install_tracing(recorder)

    from repro.core.udatabase import CompactionPolicy
    from repro.server import QueryServer

    config = workloads.CONFIGS[args.workload]
    timings: Dict[str, float] = {}
    started = time.perf_counter()
    udb = workloads.generate(args.workload)
    timings["generate_s"] = time.perf_counter() - started
    started = time.perf_counter()
    udb.build_indexes()
    timings["index_s"] = time.perf_counter() - started

    server = QueryServer(
        udb, workers=4, auto_compact=CompactionPolicy() if config["auto_compact"] else None
    )
    handle = server.serve_tcp("127.0.0.1", 0)
    reply({"port": handle.address[1], **timings})
    try:
        for line in sys.stdin:
            command = json.loads(line)
            if command["cmd"] == "spans":
                reply({"spans": recorder.take()})
            elif command["cmd"] == "quit":
                break
            else:
                reply({"error": f"unknown command {command['cmd']!r}"})
    finally:
        handle.close()
        server.close()
    reply({"ok": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
