"""Workload request streams and their reference answers.

Each workload is a seeded stream of wire requests over at most two
connections.  Bindings and inlined literals are drawn from the workload
seed, so neither request coalescing nor the server's render cache can
stand in for execution.  The data itself is generated from a fixed seed
(``DATA_SEED``), identically in the server and in the reference.

The reference answers are computed by the same engine outside the timed
region, with ``optimize=False`` and ``use_indexes=False`` and from
independently built logical query trees (the SQL parser is not used for
reads).  Read-only templates are answered from one unfiltered query per
template whose rows are then filtered per binding in Python; that is
exact because ``possible`` commutes with a selection on projected
columns.  Writes are replayed in stream order: the workload that writes
(``read_write_churn``) has one client, so the server sees that order.

Run as a script, it writes the stream and the expected answers of one
(workload, seed, seconds) as JSON::

    PYTHONPATH=src python3 perfbench/workloads.py --workload adhoc_skewed \\
        --seed 1 --seconds 10 --out ref.json
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import random
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Seed of the generated uncertain TPC-H data, fixed for every workload.
DATA_SEED = 42

#: Per workload: data parameters and server options.
CONFIGS: Dict[str, Dict[str, Any]] = {
    "warm_paper_mix": {"scale": 0.002, "x": 0.1, "z": 0.25, "auto_compact": False, "journals": 0},
    "adhoc_skewed": {"scale": 0.002, "x": 0.01, "z": 0.25, "auto_compact": False, "journals": 0},
    "read_write_churn": {"scale": 0.002, "x": 0.01, "z": 0.25, "auto_compact": True, "journals": 1},
}

#: Requests per second of measured time, per workload.  A stream holds
#: ``rate * seconds`` requests, so both commits of a comparison do the
#: same work; the closed-loop rates are sized to take about ``seconds``.
WARM_RATE = 17
ADHOC_RATE = 50
CHURN_OPS_RATE = 36

#: Single-row inserts per second of ``seconds`` in the write probe that
#: closes the read-only workloads (600 inserts, ~16 s, at 15 s).  Over
#: five seeds of the warm mix, 200 inserts spread the write p90 by 0.40
#: of its median and 400 by 0.15.  Updates and deletes cost ~10x an insert and
#: are measured by the churn workload.
PROBE_WRITES_RATE = 40

#: Zipf exponent and key count of the ad-hoc workload.  At s=1.1 about
#: 55% of requests hit the plan cache, which puts the median on the edge
#: between the hit and miss latency modes (read_p50 spread 0.23 of its
#: median over ten seeds); at 1.2 about two thirds hit.
ZIPF_S = 1.2
ADHOC_KEYS = 3000
#: Untimed requests that warm a fresh server before the open loop starts.
ADHOC_WARMUP = 300

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
NATIONS = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]

# Figure 12 Q1-Q3 with the segment, quantity, discount and nation pair
# bound.  Dates stay literal: a date-typed $n binding is compared as a
# string by the engine and raises TypeError (a known limit).
WARM_STATEMENTS = {
    "q1": (
        "possible (select o.orderkey, o.orderdate, o.shippriority "
        "from customer c, orders o, lineitem l "
        "where c.mktsegment = $1 and c.custkey = o.custkey "
        "and o.orderkey = l.orderkey "
        "and o.orderdate > '1995-03-15' and l.shipdate < '1995-03-17')"
    ),
    "q2": (
        "possible (select extendedprice from lineitem "
        "where shipdate between '1994-01-01' and '1996-01-01' "
        "and discount >= $2 and discount <= $3 and quantity < $1)"
    ),
    "q3": (
        "possible (select n1.name, n2.name "
        "from supplier s, lineitem l, orders o, customer c, nation n1, nation n2 "
        "where n1.name = $1 and n2.name = $2 "
        "and c.nationkey = n2.nationkey and s.suppkey = l.suppkey "
        "and o.orderkey = l.orderkey and c.custkey = o.custkey "
        "and s.nationkey = n1.nationkey)"
    ),
}

ADHOC_TEMPLATES = {
    "t_orders": (
        "possible (select o.orderstatus, o.totalprice, o.orderdate "
        "from orders o where o.orderkey = {k})"
    ),
    "t_lineitem": (
        "possible (select l.linenumber, l.quantity, l.shipdate "
        "from lineitem l where l.orderkey = {k})"
    ),
    "t_join": (
        "possible (select c.name, c.mktsegment, o.orderpriority "
        "from customer c, orders o where c.custkey = o.custkey and o.orderkey = {k})"
    ),
}

ORDER_COLUMNS = [
    "orderkey", "custkey", "orderstatus", "totalprice", "orderdate",
    "orderpriority", "clerk", "shippriority", "comment",
]

CHURN_STATEMENTS = {
    "point": (
        "possible (select o.orderkey, o.totalprice, o.orderpriority, o.orderdate "
        "from orders o where o.orderkey = $1)"
    ),
    "window": (
        "possible (select o.orderkey, o.orderdate, o.shippriority "
        "from customer c, orders o, lineitem l "
        "where c.mktsegment = $1 and c.custkey = o.custkey "
        "and o.orderkey = l.orderkey and o.orderkey >= $2 and o.orderkey < $3 "
        "and o.orderdate > '1995-03-15' and l.shipdate < '1995-03-17')"
    ),
    "insert": (
        "insert into orders values ($1, $2, 'O', $3, '1996-01-02', $4, "
        "'Clerk#000000001', 0, 'perfbench')"
    ),
    "update": "update orders set totalprice = $2, orderpriority = $3 where orderkey = $1",
    "delete": "delete from orders where orderkey = $1",
}

JOURNAL_COLUMNS = ["id", "orderkey", "note"]

#: Churn operation mix (percent of the client's operations).  Every seed
#: runs the same operations in the same order (``_even_order``) and draws
#: only their keys and values, as the warm mix's seeds draw only bindings.
CHURN_MIX = [
    ("point", 40),
    ("window", 10),
    ("insert", 20),
    ("batch", 8),
    ("update", 8),
    ("delete", 6),
    ("txn", 8),
]

#: The churn client vacuums its journal after this many transactions.  Under
#: the default CompactionPolicy a partition is due after 8 appended
#: segments; each transaction appends 2, so vacuuming every 3 keeps the
#: background compactor off the journal.  A background compaction that
#: lands inside an open transaction makes its COMMIT conflict.
JOURNAL_VACUUM_EVERY = 3

NEW_KEY_BASE = 10_000_000
PROBE_KEY_BASE = 30_000_000


def _orders_range_sql(lo: int, hi: int) -> str:
    cols = ", ".join(f"o.{c}" for c in ORDER_COLUMNS)
    return f"possible (select {cols} from orders o where o.orderkey >= {lo} and o.orderkey < {hi})"


def _journal_sql(client: int) -> str:
    return f"possible (select id, orderkey, note from journal{client})"


def _item(conn: int, kind: str, req: Dict[str, Any], ref: Optional[list]) -> Dict[str, Any]:
    return {"conn": conn, "kind": kind, "req": req, "ref": ref}


def _execute(name: str, *params: Any) -> Dict[str, Any]:
    return {"op": "execute", "name": name, "params": list(params)}


def _query(sql: str) -> Dict[str, Any]:
    return {"op": "query", "sql": sql}


def _price(rng: random.Random) -> float:
    return round(rng.uniform(1000.0, 300000.0), 2)


# ----------------------------------------------------------------------
# streams
# ----------------------------------------------------------------------
def build_stream(
    workload: str, seed: int, seconds: int, order_keys: Optional[Sequence[int]] = None
) -> Dict[str, Any]:
    """The seeded request stream of one run.

    ``order_keys`` are the orders keys the churn client may write (keys of
    tuples whose orderkey is certain); other workloads ignore it.
    Returns ``statements`` (per-connection prepared SQL), ``setup``
    (per-connection untimed requests), ``main`` (the measured stream),
    ``probe`` (the closing writes of read-only workloads) and ``checks``
    (final-state reads of the rows the run wrote).
    """
    if workload not in CONFIGS:
        raise ValueError(f"unknown workload {workload!r}; have {sorted(CONFIGS)}")
    if seconds < 1:
        raise ValueError("seconds must be at least 1")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "warm_paper_mix":
        stream = _warm_stream(rng, seconds)
    elif workload == "adhoc_skewed":
        stream = _adhoc_stream(rng, seconds)
    else:
        if not order_keys:
            raise ValueError("read_write_churn needs the writable order keys")
        stream = _churn_stream(rng, seconds, sorted(order_keys))
    if workload != "read_write_churn":
        stream["probe"], stream["checks"] = _probe(rng, PROBE_WRITES_RATE * seconds)
    return stream


def _warm_stream(rng: random.Random, seconds: int) -> Dict[str, Any]:
    """One closed-loop client on connection 0 running prepared Q1-Q3.

    Two clients on the one server made each read wait for the other's
    query: on the same five seeds, run alternately, two clients read with
    a p50 of 86-117 ms and one client with 46-52 ms.
    """
    setup = [[{"op": "prepare", "name": n, "sql": s} for n, s in WARM_STATEMENTS.items()], []]
    # one execution each: the three plan-cache misses of a session
    setup[0] += [
        _execute("q1", "BUILDING"),
        _execute("q2", 24, 0.05, 0.08),
        _execute("q3", "GERMANY", "IRAQ"),
    ]
    count = WARM_RATE * seconds
    # equal shares in every stretch of the stream: the three templates
    # run in a seeded order within blocks of three
    templates = [t for _ in range(math.ceil(count / 3)) for t in rng.sample(("q1", "q2", "q3"), 3)]
    # stratified bindings: a seed reorders and pairs them, but every seed
    # covers the segments, quantities and discounts evenly, so the cost of
    # a run (Q2's answer size follows its bindings) does not vary by seed
    segments = _strata(rng, SEGMENTS, count)
    quantities = _strata(rng, range(10, 51), count)
    discounts = _strata(rng, range(0, 9), count)
    main = []
    for template in templates[:count]:
        if template == "q1":
            params = [segments.pop()]
        elif template == "q2":
            lo = discounts.pop() / 100
            params = [quantities.pop(), lo, round(lo + 0.03, 2)]
        else:
            params = rng.sample(NATIONS, 2)
        main.append(_item(0, "read", _execute(template, *params), [template, *params]))
    return {"statements": [dict(WARM_STATEMENTS), {}], "setup": setup, "main": main}


def _even_order(mix: Sequence[tuple], count: int) -> List[str]:
    """``count`` operations in the ``mix`` shares, each kind spread evenly."""
    slots = []
    for name, pct in mix:
        n = round(count * pct / 100)
        slots += [((i + 0.5) / n, name) for i in range(n)]
    return [name for _, name in sorted(slots)]


def _strata(rng: random.Random, values: Iterable[Any], count: int) -> List[Any]:
    """``count`` values cycling evenly through ``values``, in seeded order."""
    values = list(values)
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def zipf_ranks(rng: random.Random, count: int, n: int, s: float) -> List[int]:
    """``count`` ranks in ``[0, n)`` drawn with probability ∝ 1/(rank+1)^s."""
    cumulative = []
    total = 0.0
    for rank in range(1, n + 1):
        total += 1.0 / rank**s
        cumulative.append(total)
    return [bisect.bisect_left(cumulative, rng.random() * total) for _ in range(count)]


def _adhoc_stream(rng: random.Random, seconds: int) -> Dict[str, Any]:
    keys = list(range(1, ADHOC_KEYS + 1))
    rng.shuffle(keys)  # which keys are hot depends on the seed

    def draw(count: int) -> List[tuple]:
        ranks = zipf_ranks(rng, count, ADHOC_KEYS, ZIPF_S)
        return [(rng.choice(sorted(ADHOC_TEMPLATES)), keys[rank]) for rank in ranks]

    # warm-up: one-time lazy work (statistics, generated kernels) is paid
    # before timing, and the plan cache reaches its steady state
    warm = draw(ADHOC_WARMUP)
    setup = [
        [_query(ADHOC_TEMPLATES[t].format(k=k)) for t, k in warm[conn::2]] for conn in range(2)
    ]
    main = []
    for i, (template, key) in enumerate(draw(ADHOC_RATE * seconds)):
        item = _item(
            i % 2, "read", _query(ADHOC_TEMPLATES[template].format(k=key)), [template, key]
        )
        item["at"] = i / ADHOC_RATE
        main.append(item)
    return {"statements": [{}, {}], "setup": setup, "main": main}


def _churn_stream(rng: random.Random, seconds: int, order_keys: List[int]) -> Dict[str, Any]:
    """One closed-loop client on connection 0; it writes ``order_keys``.

    Two clients racing on one server made the run-to-run spread of the
    read latencies 0.26-0.44 of their median (same or different seeds):
    a read's latency was mostly the other client's write it waited
    behind.  With one client, 0.04-0.17 over three rounds of seeds.
    """
    conn = 0
    stmts = dict(CHURN_STATEMENTS)
    stmts["journal"] = f"insert into journal{conn} values ($1, $2, $3)"
    setup = [[{"op": "prepare", "name": n, "sql": s} for n, s in stmts.items()], []]
    live = list(order_keys)
    next_key = NEW_KEY_BASE
    next_journal = 1
    txns = points = inserts = 0
    lane = []
    ops = _even_order(CHURN_MIX, CHURN_OPS_RATE * seconds)
    segments = _strata(rng, SEGMENTS, ops.count("window"))
    for op in ops:
        if op == "point":
            # one read in ten may ask for a key this client deleted
            points += 1
            key = rng.choice(order_keys) if points % 10 == 0 else rng.choice(live)
            lane.append(_item(conn, "read", _execute("point", key), ["point", key]))
        elif op == "window":
            start = rng.randrange(0, max(1, len(order_keys) - 150))
            lo, hi = order_keys[start], order_keys[min(start + 150, len(order_keys) - 1)]
            seg = segments.pop()
            lane.append(
                _item(conn, "read", _execute("window", seg, lo, hi), ["window", seg, lo, hi])
            )
        elif op == "insert":
            key = next_key
            next_key += 1
            live.append(key)
            cust = rng.randint(1, 300)
            prio = rng.choice(PRIORITIES)
            inserts += 1
            if inserts % 4 == 0:
                # an uncertain total price: two alternatives, one new variable
                sql = (
                    f"insert into orders values ({key}, {cust}, 'O', "
                    f"{{{_price(rng)}, {_price(rng)}}}, '1996-01-02', '{prio}', "
                    f"'Clerk#000000001', 0, 'perfbench')"
                )
                lane.append(_item(conn, "write", _query(sql), ["dml", key]))
            else:
                lane.append(
                    _item(conn, "write", _execute("insert", key, cust, _price(rng), prio), ["dml", key])
                )
        elif op == "batch":
            rows = []
            first = next_key
            for _ in range(10):
                live.append(next_key)
                rows.append(
                    f"({next_key}, {rng.randint(1, 300)}, 'O', {_price(rng)}, "
                    f"'1996-01-03', '{rng.choice(PRIORITIES)}', 'Clerk#000000002', 0, 'batch')"
                )
                next_key += 1
            lane.append(
                _item(
                    conn,
                    "write",
                    _query("insert into orders values " + ", ".join(rows)),
                    ["dml", *range(first, next_key)],
                )
            )
        elif op == "update":
            key = rng.choice(live)
            lane.append(
                _item(
                    conn,
                    "write",
                    _execute("update", key, _price(rng), rng.choice(PRIORITIES)),
                    ["dml", key],
                )
            )
        elif op == "delete":
            key = live.pop(rng.randrange(len(live)))
            lane.append(_item(conn, "write", _execute("delete", key), ["dml", key]))
        else:
            lane.append(_item(conn, "control", _query("begin"), ["txn", "open"]))
            for _ in range(2):
                lane.append(
                    _item(
                        conn,
                        "write",
                        _execute("journal", next_journal, rng.choice(live), f"note-{next_journal}"),
                        ["dml"],
                    )
                )
                next_journal += 1
            lane.append(_item(conn, "write", _query("commit"), ["txn", "committed"]))
            txns += 1
            if txns % JOURNAL_VACUUM_EVERY == 0:
                lane.append(_item(conn, "control", _query(f"vacuum journal{conn}"), ["vacuum"]))
    lo, hi = order_keys[0], order_keys[-1] + 1
    checks = [
        _item(conn, "check", _query(_orders_range_sql(lo, hi)), ["range", lo, hi]),
        _item(conn, "check", _query(_orders_range_sql(NEW_KEY_BASE, next_key)), ["range", NEW_KEY_BASE, next_key]),
        _item(conn, "check", _query(_journal_sql(conn)), ["journal", conn]),
    ]
    return {"statements": [stmts, {}], "setup": setup, "main": lane, "probe": [], "checks": checks}


_PROBE_PREFIX = "insert into orders values "


def _probe(rng: random.Random, count: int):
    """Closing writes of a read-only workload: ``count`` single-row inserts."""
    probe = []
    for i in range(count):
        # every fifth insert has an uncertain price: two alternatives
        price = f"{{{_price(rng)}, {_price(rng)}}}" if i % 5 == 4 else f"{_price(rng)}"
        sql = _PROBE_PREFIX + (
            f"({PROBE_KEY_BASE + i}, {rng.randint(1, 300)}, 'O', {price}, "
            f"'1996-02-01', '{rng.choice(PRIORITIES)}', 'Clerk#000000003', 0, 'probe')"
        )
        probe.append(_item(0, "write", _query(sql), ["dml", PROBE_KEY_BASE + i]))
    hi = PROBE_KEY_BASE + count
    checks = [_item(0, "check", _query(_orders_range_sql(PROBE_KEY_BASE, hi)), ["range", PROBE_KEY_BASE, hi])]
    return probe, checks


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------
def row_key(row: Iterable[Any]) -> str:
    """One answer row as canonical JSON (the server's ``default=str`` rule)."""
    return json.dumps(list(row), default=str, separators=(",", ":"))


def digest_rows(rows: Iterable[Iterable[Any]]) -> str:
    """Order-insensitive digest of an answer's rows."""
    blob = "\n".join(sorted(row_key(r) for r in rows)).encode()
    return hashlib.sha1(blob).hexdigest()[:20]


def response_digest(response: Dict[str, Any]) -> Optional[str]:
    """The digest of a wire response, or None for a not-ok response."""
    if not response.get("ok"):
        return None
    if "rows" in response:
        return digest_rows(response["rows"])
    if "dml" in response:
        return f"{response['dml']}:{response['count']}"
    if "txn" in response:
        return f"txn:{response['txn']['status']}"
    if "vacuum" in response:
        return "vacuum"
    return "ok"


def add_journals(udb, count: int) -> None:
    """Give each churn client a journal table it alone writes in transactions."""
    from repro.core.urelation import URelation, tid_column

    for client in range(count):
        name = f"journal{client}"
        part = URelation.from_certain_rows([(0, 0, "start")], tid_column(name), JOURNAL_COLUMNS)
        udb.add_relation(name, JOURNAL_COLUMNS, [part])


def data_scale(workload: str) -> float:
    """The TPC-H scale; ``PERFBENCH_SCALE`` shrinks it for smoke tests."""
    return float(os.environ.get("PERFBENCH_SCALE", CONFIGS[workload]["scale"]))


def generate(workload: str):
    """The workload's uncertain TPC-H database (as the server builds it)."""
    from repro.ugen import generate_uncertain

    config = CONFIGS[workload]
    bundle = generate_uncertain(
        scale=data_scale(workload), x=config["x"], z=config["z"], seed=DATA_SEED
    )
    add_journals(bundle.udb, config["journals"])
    return bundle.udb


def certain_order_keys(udb) -> List[int]:
    """Orders keys held by exactly one tuple whose orderkey is certain.

    The churn client updates and deletes by key, so it writes only keys
    that name exactly one tuple.
    """
    from repro.core.urelation import tid_column

    tid_keys: Dict[Any, set] = {}
    for part in udb.partitions("orders"):
        if "orderkey" not in part.value_names:
            continue
        relation = part.relation
        tid_pos = relation.schema.resolve(tid_column("orders"))
        key_pos = relation.schema.resolve("orderkey")
        for row in relation.rows:
            tid_keys.setdefault(row[tid_pos], set()).add(row[key_pos])
    owners: Dict[int, int] = {}
    for keys in tid_keys.values():
        for key in keys:
            owners[key] = owners.get(key, 0) + (1 if len(keys) == 1 else 2)
    return sorted(key for key, n in owners.items() if n == 1)


class Reference:
    """Expected answers, evaluated by the engine without optimizer or indexes."""

    def __init__(self, udb):
        self.udb = udb
        self._groups: Dict[str, Any] = {}
        #: order keys some replayed write touched (their point answers moved)
        self._written: set = set()

    def _run(self, query) -> List[tuple]:
        from repro.core.translate import execute_query

        return list(execute_query(query, self.udb, optimize=False, use_indexes=False).rows)

    def _grouped(self, name: str) -> Dict[Any, set]:
        """Rows of one unfiltered template query, keyed by their first column.

        The key column is dropped from the rows, except for ``point``,
        whose answer carries it.
        """
        if name not in self._groups:
            groups: Dict[Any, set] = {}
            start = 0 if name == "point" else 1
            for row in self._run(_generalized_query(name)):
                groups.setdefault(row[0], set()).add(row[start:])
            self._groups[name] = groups
        return self._groups[name]

    def answer(self, ref: list):
        """The answer rows of one read reference spec."""
        kind = ref[0]
        if kind == "point" and ref[1] not in self._written:
            # a key no replayed write touched still has its initial answer
            return self._grouped("point").get(ref[1], set())
        if kind == "q2":
            qty, lo, hi = ref[1:]
            return {
                (price,)
                for q, rest in self._grouped("q2").items()
                for d, price in rest
                if q is not None and d is not None and q < qty and lo <= d <= hi
            }
        if kind == "q3":
            return {(ref[1], ref[2])} if (ref[2],) in self._grouped("q3").get(ref[1], ()) else set()
        if kind == "q1" or kind in ADHOC_TEMPLATES:
            return self._grouped(kind).get(ref[1], set())
        return self._run(_read_query(ref))

    def apply(self, req: Dict[str, Any], statements: Dict[str, str], keys: Iterable[int]) -> str:
        """Replay one write request touching ``keys``; returns its digest."""
        from repro.sql import execute_sql, prepare

        self._grouped("point")  # the initial answers, before any write
        self._written.update(keys)
        if req["op"] == "execute":
            result = prepare(statements[req["name"]], self.udb).run(*req["params"])
        else:
            result = execute_sql(req["sql"], self.udb)
        return f"{result.statement.upper()}:{result.count}"


def _generalized_query(name: str):
    """One unfiltered query per read-only template, binding columns first."""
    from repro.core.query import Poss, Rel, UJoin, UProject, USelect
    from repro.relational.expressions import col, lit
    from repro.relational.types import Date

    if name == "q1":
        c = Rel("customer", "c")
        o = USelect(Rel("orders", "o"), col("o.orderdate") > lit(Date("1995-03-15")))
        l = USelect(Rel("lineitem", "l"), col("l.shipdate") < lit(Date("1995-03-17")))
        co = UJoin(c, o, col("c.custkey").eq(col("o.custkey")))
        col_ = UJoin(co, l, col("o.orderkey").eq(col("l.orderkey")))
        return Poss(UProject(col_, ["c.mktsegment", "o.orderkey", "o.orderdate", "o.shippriority"]))
    if name == "q2":
        l = USelect(
            Rel("lineitem", "l"),
            col("l.shipdate").between(Date("1994-01-01"), Date("1996-01-01")),
        )
        return Poss(UProject(l, ["l.quantity", "l.discount", "l.extendedprice"]))
    if name == "q3":
        sl = UJoin(Rel("supplier", "s"), Rel("lineitem", "l"), col("s.suppkey").eq(col("l.suppkey")))
        slo = UJoin(sl, Rel("orders", "o"), col("o.orderkey").eq(col("l.orderkey")))
        sloc = UJoin(slo, Rel("customer", "c"), col("c.custkey").eq(col("o.custkey")))
        w1 = UJoin(sloc, Rel("nation", "n1"), col("s.nationkey").eq(col("n1.nationkey")))
        w2 = UJoin(w1, Rel("nation", "n2"), col("c.nationkey").eq(col("n2.nationkey")))
        return Poss(UProject(w2, ["n1.name", "n2.name"]))
    if name == "point":
        return Poss(
            UProject(Rel("orders", "o"), ["o.orderkey", "o.totalprice", "o.orderpriority", "o.orderdate"])
        )
    if name == "t_orders":
        return Poss(
            UProject(Rel("orders", "o"), ["o.orderkey", "o.orderstatus", "o.totalprice", "o.orderdate"])
        )
    if name == "t_lineitem":
        return Poss(
            UProject(Rel("lineitem", "l"), ["l.orderkey", "l.linenumber", "l.quantity", "l.shipdate"])
        )
    if name == "t_join":
        co = UJoin(Rel("customer", "c"), Rel("orders", "o"), col("c.custkey").eq(col("o.custkey")))
        return Poss(UProject(co, ["o.orderkey", "c.name", "c.mktsegment", "o.orderpriority"]))
    raise ValueError(f"no generalized query for {name!r}")


def _read_query(ref: list):
    """The logical tree of a churn or final-state read."""
    from repro.core.query import Poss, Rel, UJoin, UProject, USelect
    from repro.relational.expressions import col, lit
    from repro.relational.types import Date

    kind = ref[0]
    if kind == "point":
        o = USelect(Rel("orders", "o"), col("o.orderkey").eq(lit(ref[1])))
        return Poss(UProject(o, ["o.orderkey", "o.totalprice", "o.orderpriority", "o.orderdate"]))
    if kind == "window":
        seg, lo, hi = ref[1:]
        c = USelect(Rel("customer", "c"), col("c.mktsegment").eq(lit(seg)))
        o = USelect(
            Rel("orders", "o"),
            (col("o.orderkey") >= lit(lo))
            & (col("o.orderkey") < lit(hi))
            & (col("o.orderdate") > lit(Date("1995-03-15"))),
        )
        l = USelect(Rel("lineitem", "l"), col("l.shipdate") < lit(Date("1995-03-17")))
        co = UJoin(c, o, col("c.custkey").eq(col("o.custkey")))
        col_ = UJoin(co, l, col("o.orderkey").eq(col("l.orderkey")))
        return Poss(UProject(col_, ["o.orderkey", "o.orderdate", "o.shippriority"]))
    if kind == "range":
        o = USelect(
            Rel("orders", "o"), (col("o.orderkey") >= lit(ref[1])) & (col("o.orderkey") < lit(ref[2]))
        )
        return Poss(UProject(o, [f"o.{c}" for c in ORDER_COLUMNS]))
    if kind == "journal":
        return Poss(UProject(Rel(f"journal{ref[1]}", "j"), [f"j.{c}" for c in JOURNAL_COLUMNS]))
    raise ValueError(f"unknown reference {ref!r}")


def expected_answers(workload: str, stream: Dict[str, Any], udb) -> Dict[str, Any]:
    """Expected digests for ``main`` and ``probe`` and row sets for ``checks``."""
    ref = Reference(udb)

    def replay(items: List[Dict[str, Any]]) -> List[str]:
        out = []
        for item in items:
            spec = item["ref"]
            if spec[0] == "dml":
                out.append(ref.apply(item["req"], stream["statements"][item["conn"]], spec[1:]))
            elif spec[0] == "txn":
                out.append(f"txn:{spec[1]}")
            elif spec[0] == "vacuum":
                out.append("vacuum")
            else:
                out.append(digest_rows(ref.answer(spec)))
        return out

    main = replay(stream["main"])
    # the probe's single-row inserts of fresh keys are replayed as one
    # multi-row insert: the same rows land, at a fraction of the cost
    probe = ["INSERT:1"] * len(stream["probe"])
    if probe:
        values = [item["req"]["sql"][len(_PROBE_PREFIX):] for item in stream["probe"]]
        ref.apply(_query(_PROBE_PREFIX + ", ".join(values)), {}, [])
    checks = [sorted(row_key(r) for r in ref.answer(item["ref"])) for item in stream["checks"]]
    return {"main": main, "probe": probe, "checks": checks}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    udb = generate(args.workload)
    keys = certain_order_keys(udb) if args.workload == "read_write_churn" else None
    stream = build_stream(args.workload, args.seed, args.seconds, keys)
    expected = expected_answers(args.workload, stream, udb)
    with open(args.out, "w") as out:
        json.dump({"stream": stream, "expected": expected}, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
