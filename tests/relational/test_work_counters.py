"""Exact per-operator work counters for Figure 12 Q1-Q3 (golden test).

Every operator's ``actual_rows``/``actual_batches`` is deterministic for a
fixed database, plan and batch size, so the executor's work is pinned
exactly rather than timed.  A change to the golden file means the executor
or the planner does different work, and has to be explained.

Regenerate the golden file (only for an intended change) with::

    PYTHONPATH=src python tests/relational/test_work_counters.py
"""

import hashlib
import json
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).with_name("data") / "fig12_work_counters.json"

SCALE = 0.0005
SEED = 42
BATCH_SIZES = (1024, 64)


def _counters(node):
    return {
        "operator": node["operator"],
        "rows": node["actual_rows"],
        "batches": node["actual_batches"],
        "children": [_counters(child) for child in node["children"]],
    }


def measure():
    """``{"<query>/<access paths>/<batch size>": counters and answer digest}``."""
    from repro.core import execute_query
    from repro.obs import start_trace
    from repro.relational.plancache import reset_plan_cache
    from repro.tpch import q1, q2, q3
    from repro.ugen import generate_uncertain

    udb = generate_uncertain(scale=SCALE, seed=SEED).udb
    udb.build_indexes()
    out = {}
    for label, builder in (("Q1", q1), ("Q2", q2), ("Q3", q3)):
        for use_indexes in (True, False):
            for batch_size in BATCH_SIZES:
                reset_plan_cache()
                with start_trace("work-counters", force=True) as trace:
                    answer = execute_query(
                        builder(), udb, use_indexes=use_indexes, batch_size=batch_size
                    )
                paths = "indexed" if use_indexes else "scans"
                out[f"{label}/{paths}/{batch_size}"] = {
                    "answer_rows": len(answer),
                    "answer_sha256": hashlib.sha256(
                        repr(list(answer.rows)).encode()
                    ).hexdigest(),
                    "operators": _counters(trace.root.attrs["operators"]),
                }
    return out


@pytest.fixture(scope="module")
def measured():
    return measure()


@pytest.mark.parametrize(
    "key",
    [
        f"{q}/{paths}/{size}"
        for q in ("Q1", "Q2", "Q3")
        for paths in ("indexed", "scans")
        for size in BATCH_SIZES
    ],
)
def test_fig12_work_counters_match_golden(measured, key):
    golden = json.loads(GOLDEN.read_text())
    assert measured[key] == golden[key]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(measure(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
