"""End-to-end tests of the TCP line protocol over real sockets."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.server import AdmissionPolicy, QueryServer

from tests.conftest import build_vehicles_udb


class Client:
    """A minimal line-protocol client (one JSON object per line)."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")

    def rpc(self, **request):
        self.file.write(json.dumps(request).encode("utf-8") + b"\n")
        self.file.flush()
        line = self.file.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    def close(self):
        try:
            self.file.write(json.dumps({"op": "close"}).encode("utf-8") + b"\n")
            self.file.flush()
        except OSError:
            pass
        self.sock.close()


@pytest.fixture()
def served():
    udb = build_vehicles_udb()
    server = QueryServer(udb, workers=4)
    handle = server.serve_tcp()
    yield server, handle.address
    handle.close()
    server.close()


def test_ping_query_prepare_execute_stats(served):
    _server, address = served
    client = Client(address)
    try:
        assert client.rpc(op="ping") == {"ok": True, "pong": True}

        answer = client.rpc(
            op="query", sql="possible (select id, faction from r where faction = 'Enemy')"
        )
        assert answer["ok"] and answer["columns"] == ["id", "faction"]
        assert sorted(map(tuple, answer["rows"])) == [
            (2, "Enemy"), (3, "Enemy"), (4, "Enemy"),
        ]

        prepared = client.rpc(
            op="prepare", name="by_type", sql="possible (select id from r where type = $1)"
        )
        assert prepared == {"ok": True, "prepared": "by_type", "parameters": 1}
        tanks = client.rpc(op="execute", name="by_type", params=["Tank"])
        assert sorted(row[0] for row in tanks["rows"]) == [1, 2, 3, 4]
        transports = client.rpc(op="execute", name="by_type", params=["Transport"])
        assert sorted(row[0] for row in transports["rows"]) == [2, 3, 4]

        stats = client.rpc(op="stats")
        assert stats["ok"] and "admission" in stats["stats"]
    finally:
        client.close()


def test_errors_keep_the_connection_alive(served):
    _server, address = served
    client = Client(address)
    try:
        bad = client.rpc(op="query", sql="select broken syntax from")
        assert bad["ok"] is False and bad["kind"] == "error"
        unknown = client.rpc(op="frobnicate")
        assert unknown["ok"] is False
        missing = client.rpc(op="execute", name="never-prepared")
        assert missing["ok"] is False
        # the session survives all three failures
        assert client.rpc(op="ping")["ok"]
    finally:
        client.close()


def test_ddl_over_tcp_returns_an_ack_not_a_table(served):
    """CREATE INDEX must answer with a DDL acknowledgment — not dump the
    indexed relation's rows (Index objects carry a .relation too)."""
    server, address = served
    server.udb.to_database()
    client = Client(address)
    try:
        created = client.rpc(op="query", sql="create index i_tcp on w (var) using sorted")
        assert created["ok"] is True
        assert "rows" not in created and "urelation" not in created
        assert created["result"]  # the index description string
        dropped = client.rpc(op="query", sql="drop index i_tcp")
        assert dropped == {"ok": True, "result": None}
    finally:
        client.close()


def test_sessions_are_per_connection(served):
    _server, address = served
    first = Client(address)
    second = Client(address)
    try:
        first.rpc(op="prepare", name="q", sql="possible (select id from r)")
        assert first.rpc(op="execute", name="q")["ok"]
        # the second connection has its own namespace: no statement "q"
        assert second.rpc(op="execute", name="q")["ok"] is False
    finally:
        first.close()
        second.close()


def test_prepared_nested_loop_follows_each_binding(served):
    # regression: a cached nested loop's inner side once replayed the rows
    # of the statement's first binding on every later execution
    _server, address = served
    client = Client(address)
    try:
        client.rpc(
            op="prepare",
            name="pair",
            sql="possible (select r1.type, r2.faction from r r1, r r2 "
            "where r1.type = $1 and r2.faction = $2)",
        )
        for params in (["Tank", "Friend"], ["Transport", "Enemy"], ["Tank", "Enemy"]):
            answer = client.rpc(op="execute", name="pair", params=params)
            assert answer["ok"] and answer["rows"] == [params]
    finally:
        client.close()


def test_concurrent_clients_get_correct_answers(served):
    _server, address = served
    expected = {
        "Tank": [1, 2, 3, 4],
        "Transport": [2, 3, 4],
    }
    errors = []

    def client_loop(binding):
        client = Client(address)
        try:
            client.rpc(
                op="prepare", name="q", sql="possible (select id from r where type = $1)"
            )
            for _ in range(20):
                answer = client.rpc(op="execute", name="q", params=[binding])
                got = sorted(row[0] for row in answer["rows"])
                if not answer["ok"] or got != expected[binding]:
                    errors.append((binding, answer))
        finally:
            client.close()

    threads = [
        threading.Thread(target=client_loop, args=(b,))
        for b in ("Tank", "Transport", "Tank", "Transport")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors


def test_overload_is_a_response_not_a_hang():
    """With a zero-length queue and a one-slot class, concurrent cold
    queries shed: the client receives an overloaded response quickly."""
    udb = build_vehicles_udb()
    policy = AdmissionPolicy(limits={"cold": 1}, queue_limit=0, queue_timeout=0.1)
    server = QueryServer(udb, workers=4, coalesce=False)
    server.admission = type(server.admission)(policy)
    handle = server.serve_tcp()
    release = threading.Event()
    original_execute = server.executor.run

    def slow_run(fn, key=None):
        def wrapped():
            release.wait(timeout=10)
            return fn()

        return original_execute(wrapped, key)

    server.executor.run = slow_run
    try:
        blocker = Client(handle.address)
        shed = Client(handle.address)

        results = {}

        def blocked():
            results["blocked"] = blocker.rpc(
                op="query", sql="possible (select id from r)"
            )

        thread = threading.Thread(target=blocked)
        thread.start()
        import time

        time.sleep(0.2)  # the first query holds the only cold slot
        results["shed"] = shed.rpc(op="query", sql="possible (select type from r)")
        release.set()
        thread.join(timeout=10)
        assert results["shed"]["ok"] is False
        assert results["shed"]["kind"] == "overloaded"
        assert results["blocked"]["ok"] is True
        blocker.close()
        shed.close()
    finally:
        release.set()
        handle.close()
        server.close()


def test_dml_over_tcp(served):
    server, address = served
    client = Client(address)
    try:
        ack = client.rpc(
            op="query", sql="insert into r values (9, {'Tank', 'Jeep'}, 'Friend')"
        )
        assert ack["ok"] and ack["dml"] == "INSERT" and ack["count"] == 1
        assert len(ack["variables"]) == 1 and ack["variables"][0].endswith("_type")

        assert client.rpc(
            op="prepare", name="add", sql="insert into r values ($1, $2, $3)"
        ) == {"ok": True, "prepared": "add", "parameters": 3}
        ack = client.rpc(op="execute", name="add", params=[10, "Tank", "Friend"])
        assert ack == {"ok": True, "dml": "INSERT", "count": 1, "variables": []}

        ack = client.rpc(op="query", sql="update r set faction = 'Enemy' where id = 10")
        assert ack == {"ok": True, "dml": "UPDATE", "count": 1, "variables": []}
        ack = client.rpc(op="query", sql="delete from r where id = 9")
        assert ack == {"ok": True, "dml": "DELETE", "count": 1, "variables": []}

        answer = client.rpc(
            op="query", sql="possible (select id, faction from r where id = 10)"
        )
        assert sorted(map(tuple, answer["rows"])) == [(10, "Enemy")]
        stats = client.rpc(op="stats")["stats"]
        assert stats["admission"]["dml"]["admitted"] == 4
    finally:
        client.close()


def test_string_date_binding_over_tcp():
    """JSON has no date type: a bound ``'YYYY-MM-DD'`` string must answer
    like the inline date literal."""
    from repro.ugen import generate_uncertain

    udb = generate_uncertain(scale=0.0005, seed=42, tables=["orders"]).udb
    server = QueryServer(udb, workers=2)
    handle = server.serve_tcp()
    client = Client(handle.address)
    try:
        literal = client.rpc(
            op="query",
            sql="possible (select o.orderkey from orders o where o.orderdate > '1995-03-15')",
        )
        assert literal["ok"] and literal["rows"]
        assert client.rpc(
            op="prepare",
            name="since",
            sql="possible (select o.orderkey from orders o where o.orderdate > $1)",
        ) == {"ok": True, "prepared": "since", "parameters": 1}
        bound = client.rpc(op="execute", name="since", params=["1995-03-15"])
        assert bound["ok"]
        assert sorted(map(tuple, bound["rows"])) == sorted(map(tuple, literal["rows"]))
    finally:
        client.close()
        handle.close()
        server.close()
