"""Figure 13 — the optimized physical plan of Q2's rewriting.

The paper shows PostgreSQL's EXPLAIN output for the translated Q2: merge
joins over the lineitem partitions on the tuple-id columns, with the ψ
conditions as join filters and the selections pushed into the partition
scans.  This benchmark produces our engine's plan for the same rewriting
(with the merge-join planner profile for visual parity), saves it, and
asserts the structural properties the paper's plan exhibits.
"""

import re

from repro.core.translate import translate
from repro.relational import explain, optimize
from repro.relational.planner import plan_physical
from repro.tpch import q2_inner

from benchmarks.conftest import BASE_SCALE, uncertain_db, write_result


def test_fig13_q2_plan(benchmark):
    """Produce and validate the Q2 plan (Figure 13 analogue)."""
    bundle = uncertain_db(BASE_SCALE, 0.1, 0.1)

    def build():
        translated = translate(q2_inner(), bundle.udb)
        logical = optimize(translated.plan)
        physical = plan_physical(logical, prefer_merge_join=True)
        return explain(physical)

    text = benchmark.pedantic(build, rounds=3, iterations=1)
    write_result("fig13_q2_plan.txt", text)

    # the paper's plan joins the lineitem partitions with merge joins ...
    assert text.count("Merge Join") >= 3
    # ... on the tuple-id columns (Q2 aliases lineitem as "l") ...
    assert "Merge Cond: (tid_l = tid_l__r)" in text
    # ... with the psi condition as a join filter (var mismatch OR rng equal)
    assert re.search(r"Join Filter: .*<>.*OR.*=", text)
    # ... and the selections pushed down into the partition scans
    assert "Seq Scan on u_lineitem_shipdate" in text
    assert "Seq Scan on u_lineitem_discount" in text
    assert "Seq Scan on u_lineitem_quantity" in text
    assert "Seq Scan on u_lineitem_extendedprice" in text


def test_fig13_q2_plan_indexed(benchmark):
    """The same rewriting under the cost-based access-path profile.

    Where the merge-join profile mirrors the paper's PostgreSQL plan
    verbatim, the default profile exploits the auto-created partition
    indexes: tid-equijoins become index nested-loop probes of the
    partition tid indexes, and selective predicates become index scans —
    the plan shape PostgreSQL produces once the experiment's indexes are
    in place.
    """
    bundle = uncertain_db(BASE_SCALE, 0.1, 0.1)

    def build():
        translated = translate(q2_inner(), bundle.udb)
        logical = optimize(translated.plan)
        # through Database.explain so the catalog's registry is exercised
        return bundle.udb.to_database().explain(logical, optimize_first=False)

    text = benchmark.pedantic(build, rounds=3, iterations=1)
    write_result("fig13_q2_plan_indexed.txt", text)

    # partition merges probe the auto-created tid indexes ...
    assert "Index Nested Loop Join" in text
    assert re.search(r"Index Scan using idx_u_lineitem_\w+_tid on u_lineitem_", text)
    assert re.search(r"Index Cond: \(tid_l(__r)? = tid_l(__r)?\)", text)
    # ... while the psi condition still guards the joins
    assert re.search(r"Join Filter: .*<>.*OR.*=", text)


def test_fig13_q2_plan_analyze(benchmark):
    """EXPLAIN ANALYZE of the Q2 rewriting: per-operator rows and batches.

    Runs the translated plan through the executor and saves the plan
    annotated with actual row counts and batch counts per operator.
    """
    from repro.relational import explain_analyze

    bundle = uncertain_db(BASE_SCALE, 0.1, 0.1)

    def build():
        translated = translate(q2_inner(), bundle.udb)
        logical = optimize(translated.plan)
        physical = plan_physical(logical, prefer_merge_join=True)
        _result, text = explain_analyze(physical)
        return text

    text = benchmark.pedantic(build, rounds=3, iterations=1)
    write_result("fig13_q2_plan_analyze.txt", text)

    # every operator line reports what it actually produced, in batches
    assert "actual rows=" in text
    assert "batches=" in text
    for line in text.splitlines():
        if "(rows=" in line:
            assert "actual rows=" in line


def test_fig13_translation_is_parsimonious(benchmark):
    """Section 1's parsimonious-translation claim, counted on Q2:
    one selection per predicate group, merges become joins, nothing else."""
    bundle = uncertain_db(BASE_SCALE, 0.1, 0.1)

    def count_ops():
        from repro.relational.algebra import Join, Plan, Select

        translated = translate(q2_inner(), bundle.udb)

        def count(node: Plan, kind) -> int:
            return int(isinstance(node, kind)) + sum(
                count(c, kind) for c in node.children
            )

        return count(translated.plan, Join), count(translated.plan, Select)

    joins, selects = benchmark.pedantic(count_ops, rounds=3, iterations=1)
    # Q2 touches 4 lineitem attributes -> 3 merges -> exactly 3 joins
    assert joins == 3
    # the WHERE clause stays a single selection on the merged partitions
    assert selects == 1
