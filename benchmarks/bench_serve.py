"""Serving throughput — requests/sec at 1/4/8 client threads (TCP).

The serving subsystem's headline number: N concurrent clients issue the
Figure 12 queries as prepared statements over the TCP line protocol
against one `QueryServer`.  Repeated queries are plan-cache hits
(executor-only), identical in-flight requests coalesce single-flight, and
admission classifies each request by its cached cost class.

What makes N clients faster than one on a single-core GIL build: with one
client, every request serializes client-side protocol work (serialize,
syscalls, parse) behind server-side execution; with four, the clients'
protocol work overlaps the server's execution, and the hot cached queries
coalesce — K requests arriving during one execution are all answered by
that execution.  On multi-core builds the worker pool adds real CPU
parallelism on top.

Each run appends to ``benchmarks/results/BENCH_serve.json`` (a
timestamped trajectory, like ``BENCH_fig12.json``), and the test gates on
the acceptance bar: >= 2x requests/sec at 4 clients vs 1 on the cached
queries.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import socket
import threading
import time

from repro.server import QueryServer

from benchmarks.conftest import BASE_SCALE, RESULTS_DIR, uncertain_db

#: Figure 12 queries in the SQL surface (Figure 8 dialect).
SERVE_QUERIES = {
    "Q1": (
        "possible (select o.orderkey, o.orderdate, o.shippriority "
        "from customer c, orders o, lineitem l "
        "where c.mktsegment = 'BUILDING' and c.custkey = o.custkey "
        "and o.orderkey = l.orderkey "
        "and o.orderdate > '1995-03-15' and l.shipdate < '1995-03-17')"
    ),
    "Q2": (
        "possible (select extendedprice from lineitem "
        "where shipdate between '1994-01-01' and '1996-01-01' "
        "and discount between 0.05 and 0.08 and quantity < 24)"
    ),
    "Q3": (
        "possible (select n1.name, n2.name "
        "from supplier s, lineitem l, orders o, customer c, "
        "nation n1, nation n2 "
        "where n2.name = 'IRAQ' and n1.name = 'GERMANY' "
        "and c.nationkey = n2.nationkey and s.suppkey = l.suppkey "
        "and o.orderkey = l.orderkey and c.custkey = o.custkey "
        "and s.nationkey = n1.nationkey)"
    ),
}

CLIENT_COUNTS = (1, 4, 8)
MEASURE_SECONDS = 1.2
SERVE_X = 0.01
SERVE_Z = 0.25


def append_serve_run(payload: dict) -> None:
    """Append a timestamped run to ``BENCH_serve.json`` (trajectory)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = pathlib.Path(RESULTS_DIR) / "BENCH_serve.json"
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {"benchmark": "serving throughput (TCP, Figure 12 queries)", "runs": []}
    entry = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
    }
    entry.update(payload)
    data["runs"].append(entry)
    path.write_text(json.dumps(data, indent=2) + "\n")


class _Client:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")

    def rpc(self, **request):
        self.file.write(json.dumps(request).encode("utf-8") + b"\n")
        self.file.flush()
        return json.loads(self.file.readline())

    def close(self):
        self.sock.close()


def _measure_rps(address, sql: str, clients: int, seconds: float) -> float:
    """Requests completed per second by ``clients`` concurrent connections."""
    barrier = threading.Barrier(clients + 1)
    counts = [0] * clients
    errors = []

    def client_loop(slot: int) -> None:
        try:
            client = _Client(address)
            try:
                prepared = client.rpc(op="prepare", name="q", sql=sql)
                warm = client.rpc(op="execute", name="q")
                if not (prepared["ok"] and warm["ok"]):
                    raise AssertionError(f"warmup failed: {prepared} / {warm}")
                barrier.wait(timeout=60)  # synchronized start
                deadline = time.perf_counter() + seconds
                done = 0
                while time.perf_counter() < deadline:
                    answer = client.rpc(op="execute", name="q")
                    if not answer["ok"]:
                        raise AssertionError(f"request failed: {answer}")
                    done += 1
                counts[slot] = done
            finally:
                client.close()
        except BaseException as error:
            # break the barrier so nobody (including the timer thread)
            # blocks forever on a dead client
            errors.append((slot, repr(error)))
            barrier.abort()

    threads = [
        threading.Thread(target=client_loop, args=(slot,)) for slot in range(clients)
    ]
    for t in threads:
        t.start()
    try:
        barrier.wait(timeout=60)
    except threading.BrokenBarrierError:
        pass  # a client died before the start line; errors has the story
    started = time.perf_counter()
    for t in threads:
        t.join(timeout=seconds * 20 + 60)
    elapsed = time.perf_counter() - started
    assert not errors, f"client errors: {errors[:3]}"
    return sum(counts) / elapsed


def test_serve_throughput_scales_with_clients():
    """rps at 1/4/8 TCP clients on each cached Figure 12 query.

    Gate (acceptance): >= 2x rps at 4 clients vs 1 on *every* cached
    Figure 12 query — cached plans + single-flight coalescing must make
    concurrency pay even on a single-core GIL build (measured ~3.3-4.0x
    at 4 clients, ~5.9-7.8x at 8, on a 1-core container).
    """
    bundle = uncertain_db(BASE_SCALE, SERVE_X, SERVE_Z)
    server = QueryServer(bundle.udb, workers=8)
    handle = server.serve_tcp()
    per_query: dict = {}
    try:
        for name, sql in SERVE_QUERIES.items():
            rates = {}
            for clients in CLIENT_COUNTS:
                rates[clients] = _measure_rps(
                    handle.address, sql, clients, MEASURE_SECONDS
                )
            per_query[name] = {
                "rps": {str(c): round(rates[c], 1) for c in CLIENT_COUNTS},
                "speedup_4v1": round(rates[4] / rates[1], 2),
                "speedup_8v1": round(rates[8] / rates[1], 2),
            }
        stats = server.stats()
    finally:
        handle.close()
        server.close()

    speedups = [per_query[name]["speedup_4v1"] for name in per_query]
    payload = {
        "scale": BASE_SCALE,
        "x": SERVE_X,
        "z": SERVE_Z,
        "measure_seconds": MEASURE_SECONDS,
        "queries": per_query,
        "executor": stats["executor"],
        "admission": stats["admission"],
    }
    append_serve_run(payload)
    print("\nserving throughput:", json.dumps(per_query, indent=2))
    assert min(speedups) >= 2.0, f"a query fell below 2x at 4 clients: {per_query}"

