"""perfbench — the repository's end-to-end benchmark of the query server.

Run from the root of a checkout::

    python3 perfbench/run.py --workload warm_paper_mix --seed 1 --seconds 15 --trace 0

It builds nothing: the server is ``src/repro`` run by ``launcher.py`` in
its own process, driven over TCP by at most two connections.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it measures the same stream once untraced and once with spans around the
engine's modules, and reports the per-layer metrics and the tracing
overhead.  Every response is checked against the reference answers of
``workloads.py``; the last line of standard output is one JSON object::

    {"correct": true, "attempted": 650, "failed": 0, "metrics": {...}}

See ``perfbench/README.md`` for the workloads, the metrics and the known
limits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import loadgen
import spans
import stats
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Server launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3

E2E_UNITS = {
    "setup_s": "s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "read_rps": "1/s",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "write_rps": "1/s",
    "rss_mb": "MiB",
}


# ----------------------------------------------------------------------
# reference answers (outside the timed region, cached per seed)
# ----------------------------------------------------------------------
def _sources_digest() -> str:
    """Digest of the engine and workload sources the reference depends on."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")) + [HERE / "workloads.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_reference(workload: str, seed: int, seconds: int, workdir: pathlib.Path) -> Dict[str, Any]:
    """The stream and expected answers of this run, computed once per seed.

    Cached under ``perfbench/.refcache`` keyed by the workload, seed,
    length and a digest of the sources, so a changed engine or workload
    recomputes them.
    """
    scale = workloads.data_scale(workload)
    cache = HERE / ".refcache" / f"{workload}-x{scale}-s{seed}-t{seconds}-{_sources_digest()}.json"
    if not cache.exists():
        cache.parent.mkdir(exist_ok=True)
        partial = cache.with_suffix(f".{os.getpid()}.tmp")
        with open(workdir / "reference.log", "wb") as log:
            subprocess.run(
                [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--out", str(partial)],
                check=True, stderr=log, stdout=log, timeout=170, cwd=str(ROOT),
                env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0"),
            )
        os.replace(partial, cache)
    with open(cache) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# one served pass over a stream
# ----------------------------------------------------------------------
class Pass:
    """What one server run observed: samples, checks, timings."""

    def __init__(self, stream: Dict[str, Any]):
        self.stream = stream
        self.main = [loadgen.Sample() for _ in stream["main"]]
        self.probe = [loadgen.Sample() for _ in stream["probe"]]
        self.setup_failed = 0
        self.setup_attempted = 0
        self.check_rows: List[Optional[List[str]]] = []
        self.info: Dict[str, Any] = {}
        self.spans: List[List[Dict[str, Any]]] = []
        self.stats: List[Dict[str, Any]] = []
        #: calibration scores taken between phases (``stats.calibration_score``)
        self.calibrations: List[float] = []


def _setup_sessions(conns, stream, run: Pass) -> None:
    for conn, requests in zip(conns, stream["setup"]):
        for request in requests:
            run.setup_attempted += 1
            if not conn.call(request).get("ok"):
                run.setup_failed += 1


def _drive(conns, items: List[Dict[str, Any]], samples: List[loadgen.Sample]) -> None:
    if not items:
        return
    if "at" in items[0]:
        schedule = [(i, it["conn"], it["at"], loadgen.encode(it["req"])) for i, it in enumerate(items)]
        loadgen.open_loop(conns, schedule, samples)
    else:
        lanes = [[] for _ in conns]
        for i, it in enumerate(items):
            lanes[it["conn"]].append((i, loadgen.encode(it["req"])))
        loadgen.closed_loop([c for c, lane in zip(conns, lanes) if lane],
                            [lane for lane in lanes if lane], samples)


def _run_checks(conns, stream) -> List[Optional[List[str]]]:
    out = []
    for item in stream["checks"]:
        response = conns[item["conn"]].call(item["req"])
        out.append(
            sorted(workloads.row_key(r) for r in response["rows"]) if response.get("ok") else None
        )
    return out


def _stats(conn) -> Dict[str, Any]:
    return conn.call({"op": "stats"})["stats"]


def serve_pass(workload: str, stream: Dict[str, Any], workdir: pathlib.Path, *,
               trace: bool, full: bool, launches: int = 1) -> Pass:
    """Launch, drive the main stream, and (``full``) probe and check.

    ``setup_s`` is the median over ``launches`` server launches; the last
    one is the server driven.  Every server is stopped.
    """
    run = Pass(stream)
    setups = []
    for n in range(launches - 1):
        with loadgen.ServerProcess(workdir, workload, f"setup{n}") as spare:
            setups.append(spare.setup_s)
    with loadgen.ServerProcess(workdir, workload, "server", trace=trace) as server:
        setups.append(server.setup_s)
        run.info["setup_s"] = statistics.median(setups)
        run.info["server"] = server.info
        conns = [loadgen.Connection(server.address) for _ in range(2)]
        try:
            _setup_sessions(conns, stream, run)
            if trace:
                server.command({"cmd": "spans"})  # drop set-up spans
                run.stats.append(_stats(conns[0]))
            run.calibrations.append(stats.calibration_score())
            with server.sample_rss() as rss:
                started = time.perf_counter()
                _drive(conns, stream["main"], run.main)
                run.info["main_s"] = time.perf_counter() - started
            run.info["rss_mb"] = statistics.median(rss.samples)
            run.calibrations.append(stats.calibration_score())
            if trace:
                run.stats.append(_stats(conns[0]))
                run.spans.append(server.command({"cmd": "spans"})["spans"])
            if not full:
                return run
            started = time.perf_counter()
            _drive(conns, stream["probe"], run.probe)
            run.info["probe_s"] = time.perf_counter() - started
            run.calibrations.append(stats.calibration_score())
            if trace:
                run.stats.append(_stats(conns[0]))
                run.spans.append(server.command({"cmd": "spans"})["spans"])
            run.check_rows = _run_checks(conns, stream)
            run.info["peak_rss_mb"] = server.memory_mb("VmHWM")
        finally:
            for conn in conns:
                conn.close()
    return run


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
def _evaluate(items, samples, expected) -> Dict[str, Any]:
    """Per-kind latencies (ms; failures as inf), counts and mismatches."""
    out = {"lat": {"read": [], "write": []}, "ok": {"read": 0, "write": 0},
           "attempted": 0, "failed": 0, "wrong": 0, "sent_ms": [], "late_ms": []}
    for item, sample, want in zip(items, samples, expected):
        out["attempted"] += 1
        response = json.loads(sample.raw) if sample.raw is not None else {}
        digest = workloads.response_digest(response)
        kind = item["kind"]
        if digest is None:
            out["failed"] += 1
            latency = math.inf
        else:
            if digest != want:
                out["wrong"] += 1
            latency = (sample.done - sample.due) * 1000.0
            out["sent_ms"].append((sample.done - sample.sent) * 1000.0)
            out["late_ms"].append((sample.sent - sample.due) * 1000.0)
            if kind in out["ok"]:
                out["ok"][kind] += 1
        if kind in out["lat"]:
            out["lat"][kind].append(latency)
    return out


def _compare_checks(expected: List[List[str]], observed: List[Optional[List[str]]]) -> Tuple[int, int]:
    """(lost rows, unexpected rows) of the final-state checks."""
    lost = extra = 0
    for want, got in zip(expected, observed):
        want_set = set(want)
        got_set = set(got) if got is not None else set()
        lost += len(want_set - got_set)
        extra += len(got_set - want_set)
    return lost, extra


def end_to_end(run: Pass, expected: Dict[str, Any]) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The end-to-end metrics of a full pass, and its correctness tally."""
    main = _evaluate(run.stream["main"], run.main, expected["main"])
    probe = _evaluate(run.stream["probe"], run.probe, expected["probe"])
    writes_in_main = bool(main["lat"]["write"])
    write_phase, write_s = (main, run.info["main_s"]) if writes_in_main else (probe, run.info["probe_s"])
    reads, writes = main["lat"]["read"], write_phase["lat"]["write"]
    lost, extra = _compare_checks(expected["checks"], run.check_rows)
    run.info["latencies_ms"] = {"read": sorted(reads), "write": sorted(writes)}
    metrics = {
        "setup_s": run.info["setup_s"],
        "read_p50_ms": stats.percentile(reads, 50),
        "read_p90_ms": stats.percentile(reads, 90),
        "read_rps": main["ok"]["read"] / run.info["main_s"],
        "write_p50_ms": stats.percentile(writes, 50),
        "write_p90_ms": stats.percentile(writes, 90),
        "write_rps": write_phase["ok"]["write"] / write_s,
        "rss_mb": run.info["rss_mb"],
    }
    tally = {
        "attempted": main["attempted"] + probe["attempted"] + run.setup_attempted
        + len(run.check_rows),
        "failed": main["failed"] + probe["failed"] + run.setup_failed
        + sum(1 for rows in run.check_rows if rows is None),
        "wrong_answers": main["wrong"] + probe["wrong"] + extra,
        "lost_writes": lost,
        "read_samples": len(reads),
        "write_samples": len(writes),
    }
    tally["failed_ratio"] = tally["failed"] / tally["attempted"]
    return metrics, tally


def per_layer(untraced: Pass, traced: Pass, expected: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced pass (window 1: main; 2: probe)."""
    main_window, probe_window = traced.spans
    reads = spans.aggregate(main_window)
    every = spans.aggregate(main_window + probe_window)
    before, after_main, after_all = traced.stats

    def self_ms(agg, name):
        return agg.get(name, {}).get("self_ns", 0) / 1e6

    def incl_ms(agg, name):
        return agg.get(name, {}).get("ns", 0) / 1e6

    def calls(agg, name):
        return agg.get(name, {}).get("calls", 0)

    def attr(agg, name, key, default=0):
        return agg.get(name, {}).get("attrs", {}).get(key, default)

    def delta(section, key, after=after_main):
        return after[section][key] - before[section][key]

    hits, misses = delta("plan_cache", "hits"), delta("plan_cache", "misses")
    executed, coalesced = delta("executor", "executed"), delta("executor", "coalesced")
    shed = sum(c["shed"] for c in after_main["admission"].values()) - sum(
        c["shed"] for c in before["admission"].values()
    )
    main_eval = _evaluate(traced.stream["main"], traced.main, expected["main"])
    plain_eval = _evaluate(untraced.stream["main"], untraced.main, expected["main"])
    logical = attr(reads, "translate", "logical_joins")
    late = main_eval["late_ms"]
    layers = {
        "sql.parse_ms": (self_ms(reads, "sql.parse"), "ms"),
        "sql.parses": (calls(reads, "sql.parse"), "count"),
        "translate.ms": (self_ms(reads, "translate"), "ms"),
        "translate.calls": (calls(reads, "translate"), "count"),
        "translate.joins_ratio": (
            attr(reads, "translate", "plan_joins") / logical if logical else 0.0, "ratio"),
        "optimizer.ms": (self_ms(reads, "optimizer"), "ms"),
        "optimizer.join_qerror_max": (attr(reads, "physical", "join_qerror_max", 1.0), "ratio"),
        "planner.ms": (self_ms(reads, "planner"), "ms"),
        "plancache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "plancache.misses": (misses, "count"),
        "plancache.evictions": (delta("plan_cache", "evictions"), "count"),
        "plancache.invalidations": (delta("plan_cache", "invalidations"), "count"),
        "physical.execute_ms": (self_ms(reads, "physical"), "ms"),
        "physical.rows_out": (attr(reads, "physical", "rows_out"), "count"),
        "physical.operator_rows": (attr(reads, "physical", "operator_rows"), "count"),
        "admission.queue_ms": (incl_ms(reads, "admission"), "ms"),
        "admission.shed": (shed, "count"),
        "executor.coalesced_ratio": (
            coalesced / (executed + coalesced) if executed + coalesced else 0.0, "ratio"),
        "session.execute_ms": (self_ms(reads, "session"), "ms"),
        "render.ms": (self_ms(reads, "render"), "ms"),
        "render.bytes_per_response": (
            attr(reads, "render", "bytes") / calls(reads, "render") if calls(reads, "render") else 0.0,
            "bytes"),
        "wire.ms": (sum(main_eval["sent_ms"]) - incl_ms(reads, "session") - incl_ms(reads, "render"), "ms"),
        "dml.insert_ms": (self_ms(every, "dml.insert"), "ms"),
        "dml.batch_insert_ms": (self_ms(every, "dml.batch_insert"), "ms"),
        "dml.update_ms": (self_ms(every, "dml.update"), "ms"),
        "dml.delete_ms": (self_ms(every, "dml.delete"), "ms"),
        "udatabase.segments_max": (attr(every, "udatabase.swap", "segments_max"), "count"),
        "udatabase.catalog_bumps": (
            after_all["catalog_version"] - before["catalog_version"], "count"),
        "compaction.runs": (attr(every, "compaction", "rewrites"), "count"),
        "compaction.auto_runs": (attr(every, "compaction", "auto_rewrites"), "count"),
        "compaction.ms": (incl_ms(every, "compaction"), "ms"),
        "compaction.rows_dropped": (attr(every, "compaction", "rows_dropped"), "count"),
        "txn.commit_ms": (self_ms(every, "txn.commit"), "ms"),
        "txn.conflicts": (every.get("txn.commit", {}).get("errors", {}).get("TransactionConflict", 0), "count"),
        "ugen.generate_s": (traced.info["server"]["generate_s"], "s"),
        "index.build_s": (traced.info["server"]["index_s"], "s"),
        "memory.peak_rss_mb": (traced.info["peak_rss_mb"], "MiB"),
        "gc.pause_ms": (incl_ms(reads, "gc"), "ms"),
        "gc.gen2_collections": (attr(reads, "gc", "gen2"), "count"),
        "trace.overhead_ms": (
            stats.percentile(main_eval["lat"]["read"], 50) - stats.percentile(plain_eval["lat"]["read"], 50),
            "ms"),
        "loadgen.late_p90_ms": (stats.percentile(late, 90), "ms"),
    }
    return layers


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark of the repro query server")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine sources at {SRC / 'repro'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    meta = stats.run_metadata(str(ROOT))
    reference = load_reference(args.workload, args.seed, args.seconds, workdir)
    stream, expected = reference["stream"], reference["expected"]

    if args.trace:
        untraced = serve_pass(args.workload, stream, workdir, trace=False, full=False)
        traced = serve_pass(args.workload, stream, workdir, trace=True, full=True)
        _, tally = end_to_end(traced, expected)
        layers = per_layer(untraced, traced, expected)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        with open(workdir / "spans.json", "w") as out:
            json.dump(traced.spans, out)
    else:
        run = serve_pass(args.workload, stream, workdir, trace=False, full=True,
                         launches=SETUP_LAUNCHES)
        values, tally = end_to_end(run, expected)
        metrics = {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}

    correct = tally["wrong_answers"] == 0 and tally["lost_writes"] == 0
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta, "tally": tally, "metrics": metrics,
              "calibrations": (traced if args.trace else run).calibrations,
              "latencies_ms": (traced if args.trace else run).info["latencies_ms"]}
    with open(workdir / "report.json", "w") as out:
        json.dump(report, out, indent=2)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  meta {json.dumps(meta)}")
    print(f"  reads n={tally['read_samples']} writes n={tally['write_samples']}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"  wrong_answers={tally['wrong_answers']} lost_writes={tally['lost_writes']} "
          f"failed_ratio={tally['failed_ratio']:.4g} ({tally['failed']}/{tally['attempted']})")
    print(json.dumps({"correct": correct, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
