"""Figure 12 — query evaluation time vs scale, uncertainty, correlation.

The paper's nine log-log diagrams (3 queries x 3 correlation ratios, one
line per uncertainty ratio) show evaluation time growing roughly linearly
with the scale factor and the uncertainty ratio, moderately with the
correlation ratio.

The pytest-benchmark cases time each query at the grid midpoint per
uncertainty ratio; the report regenerates the full 3x3x3 series with
median-of-3 wall-clock timings (the paper uses the median of 4 runs).
"""

import datetime
import json
import pathlib
import statistics

import pytest

from repro.bench import Table, format_seconds, median_time, timed
from repro.core import execute_query
from repro.relational.expressions import compile_cache_stats, reset_compile_cache
from repro.relational.plancache import plan_cache_stats, reset_plan_cache
from repro.tpch import ALL_QUERIES, q1, q2, q3

from benchmarks.conftest import (
    BASE_SCALE,
    CORRELATIONS,
    RESULTS_DIR,
    SCALES,
    UNCERTAINTIES,
    uncertain_db,
    write_result,
)

QUERIES = {"Q1": q1, "Q2": q2, "Q3": q3}

#: Config for the access-path (index) head-to-head.  The scale is fixed —
#: not multiplied by ``REPRO_BENCH_SCALE`` — because the comparison only
#: means something when executor work dominates the per-query fixed costs
#: (translation, optimization, planning); index advantages grow with data
#: size.  x is the Figure 12 grid's midpoint uncertainty ratio.
INDEX_BENCH_SCALE = 0.008
INDEX_BENCH_X = 0.01
INDEX_BENCH_Z = 0.25
INDEX_BENCH_PAIRS = 7

#: Config for the plan-cache head-to-head.  Fixed small scale: the cache
#: removes the per-query *fixed* costs (translation + optimization +
#: physical planning), whose relative weight is largest when the executor
#: work is small — which is also the serving-layer regime (many small
#: repeated queries) the cache exists for.
PLAN_BENCH_SCALE = 0.001
PLAN_BENCH_PAIRS = 9

#: Config for the observability-overhead gate.  Warm-cache (executor-only)
#: runs at the access-path scale: per-run work small enough that the
#: fixed per-query obs cost (trace spans, counter bumps, histogram
#: observes) shows up in the ratio, large enough that timings are stable.
OBS_BENCH_PAIRS = 9
OBS_OVERHEAD_CEILING = 1.05


def append_bench_run(kind: str, payload: dict) -> None:
    """Append a timestamped run to ``BENCH_fig12.json`` (trajectory).

    The file accumulates one entry per recorded head-to-head instead of
    being overwritten, so the perf trajectory across PRs stays readable.
    A pre-trajectory file (a single run object) is wrapped as the first
    entry.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = pathlib.Path(RESULTS_DIR) / "BENCH_fig12.json"
    if path.exists():
        data = json.loads(path.read_text())
        if "runs" not in data:  # legacy single-run layout
            legacy = dict(data)
            legacy.setdefault("kind", "index-access-paths")
            data = {"figure": "12 (addenda)", "runs": [legacy]}
    else:
        data = {"figure": "12 (addenda)", "runs": []}
    entry = {
        "kind": kind,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    entry.update(payload)
    data["runs"].append(entry)
    path.write_text(json.dumps(data, indent=2) + "\n")


def test_fig12_time_series_table(benchmark):
    """Regenerate the Figure 12 series: time(s, x, z) for Q1-Q3."""

    def build():
        table = Table(
            ["query", "z", "x", "scale", "median time", "answer tuples"],
            title="Figure 12 analogue: query evaluation time",
        )
        times = {}
        for label, builder in QUERIES.items():
            for z in CORRELATIONS:
                for x in UNCERTAINTIES:
                    for scale in SCALES:
                        bundle = uncertain_db(scale, x, z)
                        elapsed, answer = median_time(
                            lambda: execute_query(builder(), bundle.udb),
                            repeats=3,
                        )
                        times[(label, z, x, scale)] = elapsed
                        table.add(
                            label, z, x, scale, format_seconds(elapsed), len(answer)
                        )
        write_result("fig12_query_times.txt", table.render())
        return times

    times = benchmark.pedantic(build, rounds=1, iterations=1)

    # shape: evaluation time grows with scale (roughly linearly, allow slack)
    for label in QUERIES:
        for z in CORRELATIONS:
            small = times[(label, z, 0.01, SCALES[0])]
            large = times[(label, z, 0.01, SCALES[-1])]
            assert large >= small * 0.8  # monotone up to noise
            assert large <= small * 100  # far from quadratic blow-up


@pytest.mark.parametrize("label", ["Q1", "Q2", "Q3"])
@pytest.mark.parametrize("x", UNCERTAINTIES)
def test_fig12_query(benchmark, label, x):
    """Per-query timing at the grid midpoint (one line point of Figure 12)."""
    bundle = uncertain_db(BASE_SCALE, x, 0.25)
    builder = QUERIES[label]
    benchmark.pedantic(
        lambda: execute_query(builder(), bundle.udb), rounds=3, iterations=1
    )


def test_fig12_index_speedup(benchmark):
    """Access paths vs the scan-and-hash baseline, machine-readable.

    Times each Figure 12 query with cost-based access-path selection
    (``use_indexes=True``: tid-index nested-loop joins for the partition
    merges, index scans for selective predicates) against the pure
    scan-and-hash plans (``use_indexes=False``), asserting identical
    answers.  Runs are interleaved in
    baseline/indexed pairs and the reported median speedup is the median
    of the per-pair ratios — back-to-back runs see the same machine
    state, so drift cancels where a ratio of two independent medians
    would not.  The JSON records the median and best times per arm so
    the perf trajectory is tracked across PRs.
    """
    bundle = uncertain_db(INDEX_BENCH_SCALE, INDEX_BENCH_X, INDEX_BENCH_Z)

    def compare():
        table = Table(
            ["query", "baseline (median)", "indexed (median)", "speedup", "answers"],
            title="Figure 12 addendum: cost-based access paths vs scan-and-hash plans",
        )
        queries = {}
        for label, builder in QUERIES.items():
            query = builder()
            answer_base = execute_query(query, bundle.udb, use_indexes=False)
            answer_idx = execute_query(query, bundle.udb, use_indexes=True)
            assert answer_base == answer_idx  # identical bags, NULL-safe
            base, indexed = [], []
            for _ in range(INDEX_BENCH_PAIRS):
                elapsed, _ = timed(
                    lambda: execute_query(query, bundle.udb, use_indexes=False)
                )
                base.append(elapsed)
                elapsed, _ = timed(
                    lambda: execute_query(query, bundle.udb, use_indexes=True)
                )
                indexed.append(elapsed)
            entry = {
                "baseline_median_s": statistics.median(base),
                "indexed_median_s": statistics.median(indexed),
                "baseline_best_s": min(base),
                "indexed_best_s": min(indexed),
                "speedup_median": statistics.median(
                    b / i for b, i in zip(base, indexed)
                ),
                "speedup_best": min(base) / min(indexed),
                "answer_rows": len(answer_idx),
                "identical_answers": True,
            }
            queries[label] = entry
            table.add(
                label,
                format_seconds(entry["baseline_median_s"]),
                format_seconds(entry["indexed_median_s"]),
                f"{entry['speedup_median']:.2f}x",
                entry["answer_rows"],
            )
        append_bench_run(
            "index-access-paths",
            {
                "baseline": "scan-and-hash plans (use_indexes=False)",
                "config": {
                    "scale": INDEX_BENCH_SCALE,
                    "x": INDEX_BENCH_X,
                    "z": INDEX_BENCH_Z,
                    "seed": 42,
                    "interleaved_pairs": INDEX_BENCH_PAIRS,
                },
                "queries": queries,
            },
        )
        write_result("fig12_index_speedup.txt", table.render())
        return queries

    queries = benchmark.pedantic(compare, rounds=1, iterations=1)
    # the floor sits well under the measured speedups (~2.3x on Q1, ~2.6x
    # on Q2 at this config) so background load cannot flake the suite
    assert sum(1 for q in queries.values() if q["speedup_median"] >= 1.15) >= 2


def test_fig12_work_counters(benchmark):
    """Executor work on Figure 12 Q1-Q3, exactly, plus codegen reuse (CI gate).

    Replays the tier-1 golden test ``tests/relational/test_work_counters.py``:
    every operator's ``actual_rows``/``actual_batches`` and every answer
    digest must equal the golden file, so any change in the work the
    executor does (or in the answers) fails here rather than hiding in
    timing noise.  The compile cache is measured explicitly: after one
    warm-up execution the second run must generate no code at all
    (``codegen_misses_second_run == 0``).  Wall-time regressions of the
    executor are guarded end to end by the repo benchmark (``BENCHMARK.json``,
    workload ``warm_paper_mix``).
    """
    from tests.relational.test_work_counters import GOLDEN, SCALE, SEED, measure

    bundle = uncertain_db(INDEX_BENCH_SCALE, INDEX_BENCH_X, INDEX_BENCH_Z)

    def compare():
        table = Table(
            ["query", "operator rows", "answers", "codegen misses (2nd run)"],
            title="Figure 12 addendum: executor work counters (golden config)",
        )
        measured = measure()
        golden = json.loads(GOLDEN.read_text())
        queries = {}
        for label, builder in QUERIES.items():
            query = builder()
            # codegen proof (at the access-path config): a cold cache
            # misses on the first run and must not miss again on the second
            reset_compile_cache()
            execute_query(query, bundle.udb)
            first = compile_cache_stats()
            execute_query(query, bundle.udb)
            second = compile_cache_stats()
            counters = measured[f"{label}/indexed/1024"]
            entry = {
                "operator_rows": _operator_rows(counters["operators"]),
                "answer_rows": counters["answer_rows"],
                "codegen_misses_second_run": second["misses"] - first["misses"],
            }
            queries[label] = entry
            table.add(
                label,
                entry["operator_rows"],
                entry["answer_rows"],
                entry["codegen_misses_second_run"],
            )
        append_bench_run(
            "work-counters",
            {
                "config": {
                    "counters": {"scale": SCALE, "seed": SEED, "batch_size": 1024},
                    "codegen": {
                        "scale": INDEX_BENCH_SCALE,
                        "x": INDEX_BENCH_X,
                        "z": INDEX_BENCH_Z,
                        "seed": 42,
                    },
                },
                "queries": queries,
            },
        )
        write_result("fig12_work_counters.txt", table.render())
        return measured, golden, queries

    measured, golden, queries = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert measured == golden
    # second-run queries must be codegen-free (the compile cache works)
    for entry in queries.values():
        assert entry["codegen_misses_second_run"] == 0


def _operator_rows(node) -> int:
    """Rows produced by every operator of a counter tree, summed."""
    return (node["rows"] or 0) + sum(_operator_rows(c) for c in node["children"])


def test_fig12_plan_cache_speedup(benchmark):
    """Prepared-plan cache: warm (cached plan) vs cold (replan every run).

    The warm arm executes each Figure 12 query from its cached physical
    plan — zero translation/optimization/planning work, proven by the plan
    cache's miss counter staying flat on the second run — while the cold
    arm resets the plan cache before every execution, re-paying the full
    fixed cost.  Answers must be identical to the cold run.  Runs are interleaved in cold/warm pairs and the
    reported median speedup is the median of per-pair ratios.

    CI gates (``make bench-smoke`` fails on either): warm-run planning
    misses must be zero for every query, and the warm median must beat the
    cold median on Q1 and Q2.
    """
    bundle = uncertain_db(PLAN_BENCH_SCALE, INDEX_BENCH_X, INDEX_BENCH_Z)

    def compare():
        table = Table(
            ["query", "cold (median)", "warm (median)", "speedup", "planning misses (2nd run)"],
            title="Figure 12 addendum: prepared-plan cache, warm vs cold",
        )
        queries = {}
        for label, builder in QUERIES.items():
            query = builder()
            # answer proof: the cached plan answers exactly what a fresh
            # plan answers
            reset_plan_cache()
            cold_answer = execute_query(query, bundle.udb)
            warm_answer = execute_query(query, bundle.udb)
            assert warm_answer == cold_answer  # identical bags, NULL-safe
            # planning proof: the second run performs zero planning work
            reset_plan_cache()
            execute_query(query, bundle.udb)
            first = plan_cache_stats()
            execute_query(query, bundle.udb)
            second = plan_cache_stats()
            planning_misses_second_run = second["misses"] - first["misses"]
            # timing: interleaved cold/warm pairs
            cold, warm = [], []
            for _ in range(PLAN_BENCH_PAIRS):
                reset_plan_cache()
                elapsed, _ = timed(lambda: execute_query(query, bundle.udb))
                cold.append(elapsed)
                elapsed, _ = timed(lambda: execute_query(query, bundle.udb))
                warm.append(elapsed)
            entry = {
                "cold_median_s": statistics.median(cold),
                "warm_median_s": statistics.median(warm),
                "cold_best_s": min(cold),
                "warm_best_s": min(warm),
                "speedup_median": statistics.median(
                    c / w for c, w in zip(cold, warm)
                ),
                "speedup_best": min(cold) / min(warm),
                "answer_rows": len(warm_answer),
                "identical_answers": True,
                "planning_misses_second_run": planning_misses_second_run,
            }
            queries[label] = entry
            table.add(
                label,
                format_seconds(entry["cold_median_s"]),
                format_seconds(entry["warm_median_s"]),
                f"{entry['speedup_median']:.2f}x",
                planning_misses_second_run,
            )
        append_bench_run(
            "plan-cache",
            {
                "baseline": "cold: plan cache reset before every execution",
                "config": {
                    "scale": PLAN_BENCH_SCALE,
                    "x": INDEX_BENCH_X,
                    "z": INDEX_BENCH_Z,
                    "seed": 42,
                    "interleaved_pairs": PLAN_BENCH_PAIRS,
                },
                "queries": queries,
            },
        )
        write_result("fig12_plan_cache_speedup.txt", table.render())
        return queries

    queries = benchmark.pedantic(compare, rounds=1, iterations=1)
    # hard gate: repeated queries are executor-only
    for entry in queries.values():
        assert entry["planning_misses_second_run"] == 0
    # the warm arm must measurably beat the cold arm where fixed costs
    # matter (Q1/Q2; Q3's six-way join planning is also its biggest win)
    assert queries["Q1"]["speedup_median"] > 1.0
    assert queries["Q2"]["speedup_median"] > 1.0


def test_fig12_obs_overhead(benchmark):
    """Observability must be nearly free: <= 5% on Figure 12 medians.

    Times each query with the obs layer fully engaged — a request trace
    owning the run (spans, per-operator actuals, histogram observe,
    counter bumps) — against the same run with observability disabled
    (``set_enabled(False)``, the ``REPRO_OBS=off`` switch).  Both arms use
    a warm plan cache, so the measured work is executor-only: the regime
    where the fixed per-query obs cost weighs the most.  Runs interleave
    in off/on pairs; the gate takes ``min(median per-pair ratio, ratio of
    medians)`` so one scheduler hiccup in either estimator cannot flake
    the suite, and answers must be identical in both arms.
    """
    from repro.obs import request_trace, set_enabled

    bundle = uncertain_db(INDEX_BENCH_SCALE, INDEX_BENCH_X, INDEX_BENCH_Z)

    def traced_run(query, label):
        with request_trace(sql=label):
            return execute_query(query, bundle.udb)

    def compare():
        table = Table(
            ["query", "obs off (median)", "obs on (median)", "overhead", "answers"],
            title="Figure 12 addendum: observability overhead, on vs off",
        )
        queries = {}
        for label, builder in QUERIES.items():
            query = builder()
            # warm the plan cache and prove both arms answer identically
            answer_on = traced_run(query, label)
            previous = set_enabled(False)
            try:
                answer_off = traced_run(query, label)
            finally:
                set_enabled(previous)
            assert answer_on == answer_off  # identical bags, NULL-safe
            off, on = [], []
            for _ in range(OBS_BENCH_PAIRS):
                previous = set_enabled(False)
                try:
                    elapsed, _ = timed(lambda: traced_run(query, label))
                finally:
                    set_enabled(previous)
                off.append(elapsed)
                elapsed, _ = timed(lambda: traced_run(query, label))
                on.append(elapsed)
            ratio_of_medians = statistics.median(on) / statistics.median(off)
            median_pair_ratio = statistics.median(
                n / f for n, f in zip(on, off)
            )
            entry = {
                "off_median_s": statistics.median(off),
                "on_median_s": statistics.median(on),
                "off_best_s": min(off),
                "on_best_s": min(on),
                "overhead_ratio_of_medians": ratio_of_medians,
                "overhead_median_pair_ratio": median_pair_ratio,
                "overhead_gated": min(ratio_of_medians, median_pair_ratio),
                "answer_rows": len(answer_on),
                "identical_answers": True,
            }
            queries[label] = entry
            table.add(
                label,
                format_seconds(entry["off_median_s"]),
                format_seconds(entry["on_median_s"]),
                f"{(entry['overhead_gated'] - 1) * 100:+.1f}%",
                entry["answer_rows"],
            )
        append_bench_run(
            "obs-overhead",
            {
                "baseline": "observability disabled (REPRO_OBS=off switch)",
                "config": {
                    "scale": INDEX_BENCH_SCALE,
                    "x": INDEX_BENCH_X,
                    "z": INDEX_BENCH_Z,
                    "seed": 42,
                    "interleaved_pairs": OBS_BENCH_PAIRS,
                },
                "queries": queries,
            },
        )
        write_result("fig12_obs_overhead.txt", table.render())
        return queries

    queries = benchmark.pedantic(compare, rounds=1, iterations=1)
    # CI gate: the full obs layer costs at most 5% on Q1 and Q2
    assert queries["Q1"]["overhead_gated"] <= OBS_OVERHEAD_CEILING
    assert queries["Q2"]["overhead_gated"] <= OBS_OVERHEAD_CEILING
