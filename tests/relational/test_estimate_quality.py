"""Estimate-quality gate: every join of Figure 12 Q1-Q3 within 10x of actual.

The q-error of a join node is ``max(est, 1) / max(actual, 1)`` or its
inverse, whichever is larger (the figure ``perfbench`` reports as
``optimizer.join_qerror_max``).  Every executed join operator counts —
the joins between relations and the partition merges inside each one —
on the paper's queries with the paper's constants, at two data sets:
the small seeded database of the work-counter goldens and the warm
benchmark's data (scale 0.002, x=0.1, z=0.25).

Two nodes miss 10x for reasons an estimate built from per-column
statistics cannot see; they are named in ``KNOWN_MISSES`` with their own,
looser bound so that they still catch a regression.
"""

from __future__ import annotations

import pytest

from repro.core import execute_query
from repro.obs import start_trace
from repro.tpch import q1, q2, q3
from repro.ugen import generate_uncertain

BOUND = 10.0

DATA = {
    "small": dict(scale=0.0005, seed=42),
    "warm": dict(scale=0.002, x=0.1, z=0.25, seed=42),
}

#: (data, query) -> (bound, why).  Both misses are the top join.
KNOWN_MISSES = {
    ("small", "Q1"): (
        16.0,
        "o.orderkey = l.orderkey estimates 143 rows, 14 arrive: orders dated "
        "after 1995-03-15 rarely have lineitems shipped before 1995-03-17, a "
        "correlation independent per-column estimates cannot see (even exact "
        "input sizes give 226)",
    ),
    ("warm", "Q3"): (
        16.0,
        "s.suppkey = l.suppkey estimates 13 rows, none arrive: GERMANY has "
        "no supplier at this scale, where 20 suppliers average 0.8 a nation",
    ),
}


def _join_qerrors(node, out):
    label = node["operator"]
    if ("Join" in label or label == "Nested Loop") and node["actual_rows"] is not None:
        ratio = max(node["estimated_rows"], 1.0) / max(node["actual_rows"], 1.0)
        out.append((max(ratio, 1.0 / ratio), label, node["estimated_rows"], node["actual_rows"]))
    for child in node["children"]:
        _join_qerrors(child, out)
    return out


@pytest.fixture(scope="module", params=sorted(DATA))
def data(request):
    udb = generate_uncertain(**DATA[request.param]).udb
    udb.build_indexes()
    return request.param, udb


@pytest.mark.parametrize("label", ["Q1", "Q2", "Q3"])
@pytest.mark.parametrize("use_indexes", [True, False], ids=["indexed", "scans"])
def test_fig12_join_estimates_within_bound(data, label, use_indexes):
    name, udb = data
    query = {"Q1": q1, "Q2": q2, "Q3": q3}[label]()
    with start_trace("estimate-quality", force=True) as trace:
        execute_query(query, udb, use_indexes=use_indexes)
    joins = _join_qerrors(trace.root.attrs["operators"], [])
    assert joins, "every Figure 12 query plan holds a join"
    bound = KNOWN_MISSES.get((name, label), (BOUND, ""))[0]
    worst = max(joins)
    assert worst[0] <= bound, f"{label} on {name} data: {worst}"
