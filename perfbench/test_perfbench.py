"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The smoke test runs every workload end to end at a tiny data scale
(``PERFBENCH_SCALE``) and takes a few minutes.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loadgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

KEYS = list(range(1, 401))


@pytest.mark.parametrize("workload", sorted(workloads.CONFIGS))
def test_same_seed_same_stream_other_seed_other_stream(workload):
    one = workloads.build_stream(workload, 7, 3, KEYS)
    again = workloads.build_stream(workload, 7, 3, KEYS)
    other = workloads.build_stream(workload, 8, 3, KEYS)
    blob = json.dumps(one, sort_keys=True).encode()
    assert blob == json.dumps(again, sort_keys=True).encode()
    assert blob != json.dumps(other, sort_keys=True).encode()


def test_churn_order_is_fixed_and_the_seed_draws_the_values():
    one = workloads.build_stream("read_write_churn", 7, 10, KEYS)["main"]
    other = workloads.build_stream("read_write_churn", 8, 10, KEYS)["main"]
    assert [i["ref"][0] for i in one] == [i["ref"][0] for i in other]
    assert [i["req"] for i in one] != [i["req"] for i in other]
    assert {i["conn"] for i in one} == {0}


def test_warm_templates_have_equal_shares_in_every_block():
    main = workloads.build_stream("warm_paper_mix", 7, 10)["main"]
    lane = [item["ref"][0] for item in main]
    for start in range(0, len(lane) - 2, 3):
        assert sorted(lane[start:start + 3]) == ["q1", "q2", "q3"]


def test_adhoc_keys_are_skewed_and_inlined():
    main = workloads.build_stream("adhoc_skewed", 1, 10)["main"]
    keys = [item["ref"][1] for item in main]
    top = max(keys.count(k) for k in set(keys))
    assert top > 10 * len(keys) / workloads.ADHOC_KEYS  # far above uniform
    assert all(str(item["ref"][1]) in item["req"]["sql"] for item in main)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.min_samples(90) == 100
    assert stats.min_samples(95) == 200
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(99)), 90)
    assert stats.percentile(list(range(1, 101)), 90) == 90
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0  # the median needs no tail


def _item(kind="read"):
    return {"conn": 0, "kind": kind, "req": {"op": "ping"}, "ref": ["x"]}


def _sample(due, sent, done, raw):
    sample = loadgen.Sample()
    sample.due, sample.sent, sample.done, sample.raw = due, sent, done, raw
    return sample


def test_failed_request_counts_as_missing_every_limit():
    ok = json.dumps({"ok": True, "rows": [[1]]}).encode()
    refused = json.dumps({"ok": False, "kind": "overloaded"}).encode()
    want = workloads.digest_rows([[1]])
    samples = [_sample(0.0, 0.0, 0.001, ok) for _ in range(89)]
    samples += [_sample(0.0, 0.0, 0.001, refused) for _ in range(6)]
    samples += [_sample(0.0, 0.0, None, None) for _ in range(5)]  # never answered
    out = run._evaluate([_item()] * 100, samples, [want] * 100)
    assert out["failed"] == 11 and out["wrong"] == 0 and out["ok"]["read"] == 89
    # 11% failed: the p90 limit is missed although every answer was fast
    assert stats.percentile(out["lat"]["read"], 90) == math.inf
    assert stats.percentile(out["lat"]["read"], 50) == 1.0


class _SlowConnection:
    """Answers every request, but each send blocks for ``delay`` seconds."""

    def __init__(self, delay):
        self.delay = delay
        self.ready = threading.Semaphore(0)

    def send(self, line):
        time.sleep(self.delay)
        self.ready.release()

    def recv(self):
        self.ready.acquire()
        return json.dumps({"ok": True, "rows": []}).encode()


def test_open_loop_counts_generator_lateness():
    conn = _SlowConnection(delay=0.02)
    schedule = [(i, 0, i * 0.001, b"{}\n") for i in range(20)]
    samples = [loadgen.Sample() for _ in schedule]
    loadgen.open_loop([conn], schedule, samples)
    want = workloads.digest_rows([])
    out = run._evaluate([_item()] * 20, samples, [want] * 20)
    # the sender falls ~19 ms further behind per request; latency runs
    # from the scheduled time, so it includes that lateness
    assert max(out["late_ms"]) > 300
    assert min(out["lat"]["read"]) >= 0
    assert out["lat"]["read"][-1] >= out["late_ms"][-1]


def test_self_time_subtracts_direct_children():
    recorded = [
        {"id": 1, "parent": None, "root": 1, "name": "session", "start": 0, "end": 100},
        {"id": 2, "parent": 1, "root": 1, "name": "physical", "start": 10, "end": 70,
         "attrs": {"rows_out": 3, "join_qerror_max": 4.0}},
        {"id": 3, "parent": 1, "root": 1, "name": "physical", "start": 75, "end": 95,
         "attrs": {"rows_out": 2, "join_qerror_max": 2.0}},
    ]
    agg = spans.aggregate(recorded)
    assert agg["session"]["self_ns"] == 20
    assert agg["physical"]["self_ns"] == 80 and agg["physical"]["calls"] == 2
    assert agg["physical"]["attrs"] == {"rows_out": 5, "join_qerror_max": 4.0}


def _benchmark_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.CONFIGS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    spec = _benchmark_spec()
    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    env = dict(os.environ, PERFBENCH_SCALE="0.0005")
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "10", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, env=env, cwd=str(HERE.parent),
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
