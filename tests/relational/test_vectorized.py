"""Tests for batch-at-a-time execution and compiled expressions.

Two families:

* batch-boundary tests — every physical operator is executed over inputs
  of size 0, 1, one batch exactly, and one batch ± 1, and must produce the
  bag the reference interpreter computes for the equivalent logical plan;
* property tests — randomized logical plans must execute to the reference
  interpreter's answer, and compiled expressions must agree with bound
  closures on randomized rows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.algebra import (
    Difference,
    Distinct,
    Extend,
    Join,
    Product,
    Project,
    ProjectAs,
    Scan,
    Select,
    SemiJoin,
    Union,
)
from repro.relational.expressions import col, compile_expression, lit
from repro.relational.physical import (
    BATCH_SIZE,
    Append,
    Except,
    ExtendOp,
    Filter,
    HashDistinct,
    HashJoin,
    Materialize,
    MergeJoin,
    NestedLoopJoin,
    Projection,
    ProjectionAs,
    SemiJoinOp,
    SeqScan,
    Sort,
    execute,
)
from repro.relational.planner import plan_physical
from repro.relational.reference import evaluate
from repro.relational.relation import Relation
from repro.relational.schema import Schema

#: Small batch size so "exactly one batch" inputs stay cheap to build.
B = 4

#: Input sizes around the batch boundary: empty, singleton, one batch
#: exactly, and one batch minus/plus one row.
BOUNDARY_SIZES = [0, 1, B - 1, B, B + 1]


def left_relation(n: int) -> Relation:
    # every third key is NULL, values repeat so distinct/except have work
    rows = [(None if i % 3 == 2 else i % 5, f"v{i % 4}") for i in range(n)]
    return Relation(["l.k", "l.v"], rows)


def right_relation(n: int) -> Relation:
    rows = [(None if i % 4 == 3 else i % 5, i * 10) for i in range(n)]
    return Relation(["r.k", "r.w"], rows)


def assert_matches_reference(physical, logical, batch_size: int = B) -> None:
    """``physical`` executes to the bag ``logical`` denotes."""
    got = execute(physical, batch_size=batch_size)
    expected = evaluate(logical)
    assert got.schema.names == expected.schema.names
    assert sorted(map(repr, got.rows)) == sorted(map(repr, expected.rows))


def inputs(n: int, right_rows=None):
    """Base relations with their scans: ``(l, r, SeqScan l, SeqScan r)``."""
    lrel = left_relation(n)
    rrel = right_relation(n if right_rows is None else right_rows)
    return Scan(lrel, "l"), Scan(rrel, "r"), SeqScan(lrel, "l"), SeqScan(rrel, "r")


EQUI = col("l.k").eq(col("r.k"))


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
class TestBatchBoundaries:
    """Every operator, at every input size around the batch boundary."""

    def test_seq_scan(self, n):
        l, _, left, _ = inputs(n)
        assert_matches_reference(left, l)

    def test_filter(self, n):
        l, _, left, _ = inputs(n)
        predicate = col("l.k") > lit(1)
        assert_matches_reference(Filter(left, predicate), Select(l, predicate))

    def test_filter_all_rows_pass(self, n):
        l, _, left, _ = inputs(n)
        predicate = col("l.v").ne(lit("nope"))
        assert_matches_reference(Filter(left, predicate), Select(l, predicate))

    def test_projection(self, n):
        l, _, left, _ = inputs(n)
        assert_matches_reference(Projection(left, ["l.v"]), Project(l, ["l.v"]))

    def test_projection_as(self, n):
        l, _, left, _ = inputs(n)
        items = [("l.k", "k1"), ("l.k", "k2"), ("l.v", "v")]
        assert_matches_reference(ProjectionAs(left, items), ProjectAs(l, items))

    def test_extend(self, n):
        l, _, left, _ = inputs(n)
        items = [("kk", col("l.k") + col("l.k")), ("one", lit(1))]
        assert_matches_reference(ExtendOp(left, items), Extend(l, items))

    def test_hash_join(self, n):
        l, r, left, right = inputs(n)
        assert_matches_reference(HashJoin(left, right, [("l.k", "r.k")]), Join(l, r, EQUI))

    def test_hash_join_residual(self, n):
        l, r, left, right = inputs(n)
        residual = col("r.w") > lit(0)
        assert_matches_reference(
            HashJoin(left, right, [("l.k", "r.k")], residual=residual),
            Join(l, r, EQUI & residual),
        )

    def test_merge_join(self, n):
        l, r, left, right = inputs(n)
        assert_matches_reference(MergeJoin(left, right, [("l.k", "r.k")]), Join(l, r, EQUI))

    def test_merge_join_residual(self, n):
        l, r, left, right = inputs(n)
        residual = col("r.w") > lit(10)
        assert_matches_reference(
            MergeJoin(left, right, [("l.k", "r.k")], residual=residual),
            Join(l, r, EQUI & residual),
        )

    def test_nested_loop_cross(self, n):
        l, r, left, right = inputs(n, right_rows=min(n, B))
        assert_matches_reference(NestedLoopJoin(left, right, None), Product(l, r))

    def test_nested_loop_theta(self, n):
        l, r, left, right = inputs(n)
        predicate = col("l.k") < col("r.k")
        assert_matches_reference(NestedLoopJoin(left, right, predicate), Join(l, r, predicate))

    def test_semi_join_hash(self, n):
        l, r, left, right = inputs(n)
        predicate = EQUI & (col("r.w") > lit(0))
        assert_matches_reference(SemiJoinOp(left, right, predicate), SemiJoin(l, r, predicate))

    def test_semi_join_loop(self, n):
        l, r, left, right = inputs(n)
        predicate = col("l.k") < col("r.k")
        assert_matches_reference(SemiJoinOp(left, right, predicate), SemiJoin(l, r, predicate))

    def test_hash_distinct(self, n):
        l, _, left, _ = inputs(n)
        assert_matches_reference(HashDistinct(left), Distinct(l))

    def test_append(self, n):
        a, b = left_relation(n), left_relation(max(n - 1, 0))
        assert_matches_reference(
            Append(SeqScan(a, "a"), SeqScan(b, "b")), Union(Scan(a, "a"), Scan(b, "b"))
        )

    def test_except(self, n):
        a, b = left_relation(n), left_relation(n // 2)
        assert_matches_reference(
            Except(SeqScan(a, "a"), SeqScan(b, "b")), Difference(Scan(a, "a"), Scan(b, "b"))
        )

    def test_sort(self, n):
        l, _, left, _ = inputs(n)
        assert_matches_reference(Sort(left, ["l.v", "l.k"]), l)

    def test_materialize(self, n):
        l, _, left, _ = inputs(n)
        assert_matches_reference(Materialize(left), l)


class TestBatchMechanics:
    def test_scan_batch_sizes(self):
        scan = SeqScan(left_relation(B + 1), "l")
        batches = list(scan.column_batches(B))
        assert [len(b) for b in batches] == [B, 1]

    def test_batch_stats_recorded(self):
        scan = SeqScan(left_relation(2 * B), "l")
        plan = Filter(scan, col("l.k") > lit(0))
        execute(plan, batch_size=B)
        assert scan.actual_rows == 2 * B
        assert scan.actual_batches == 2
        assert plan.actual_rows == sum(1 for r in left_relation(2 * B).rows if r[0] is not None and r[0] > 0)

    def test_default_batch_size_used(self):
        scan = SeqScan(left_relation(BATCH_SIZE + 1), "l")
        out = execute(scan)  # default BATCH_SIZE
        assert len(out) == BATCH_SIZE + 1
        assert scan.actual_batches == 2

    def test_explain_analyze_reports_actuals(self):
        left = SeqScan(left_relation(B + 1), "l")
        right = SeqScan(right_relation(B), "r")
        plan = HashJoin(left, right, [("l.k", "r.k")])
        from repro.relational.explain import explain_analyze

        result, text = explain_analyze(plan, batch_size=B)
        assert "actual rows=" in text and "batches=" in text
        assert f"actual rows={len(result)}" in text.splitlines()[0]


# ----------------------------------------------------------------------
# property tests: the executor equals the reference interpreter
# ----------------------------------------------------------------------
values = st.integers(min_value=0, max_value=4)
rows_r = st.lists(st.tuples(values, values), min_size=0, max_size=9)
rows_s = st.lists(st.tuples(values, values), min_size=0, max_size=9)
batch_sizes = st.sampled_from([1, 2, 3, 7, 1024])


@st.composite
def predicates(draw, columns):
    column = draw(st.sampled_from(columns))
    op = draw(st.sampled_from(["eq", "lt", "gt", "ne"]))
    value = draw(values)
    c = col(column)
    if op == "eq":
        return c.eq(lit(value))
    if op == "ne":
        return c.ne(lit(value))
    if op == "lt":
        return c < lit(value)
    return c > lit(value)


@st.composite
def plans(draw):
    r = Scan(Relation(["r.a", "r.b"], draw(rows_r)), "r")
    s = Scan(Relation(["s.c", "s.d"], draw(rows_s)), "s")
    shape = draw(
        st.sampled_from(
            ["select", "join", "join_select", "project_join", "distinct", "product", "union"]
        )
    )
    if shape == "select":
        return Select(Select(r, draw(predicates(["r.a", "r.b"]))), draw(predicates(["r.a", "r.b"])))
    if shape == "join":
        return Join(r, s, col("r.a").eq(col("s.c")))
    if shape == "join_select":
        pred = draw(predicates(["r.a", "r.b", "s.c", "s.d"]))
        return Select(Join(r, s, col("r.a").eq(col("s.c"))), pred)
    if shape == "project_join":
        return Project(Join(r, s, col("r.b").eq(col("s.d"))), ["r.a", "s.c"])
    if shape == "product":
        return Select(Product(r, s), draw(predicates(["r.a", "s.d"])))
    if shape == "union":
        return Union(Project(r, ["r.a"]), Project(s, ["s.c"]))
    return Distinct(Project(Select(r, draw(predicates(["r.a"]))), ["r.b"]))


def bag(relation: Relation):
    return sorted(map(repr, relation.rows))


@given(plans(), batch_sizes, st.booleans())
@settings(max_examples=120, deadline=None)
def test_blocks_mode_equals_rows_mode(plan, batch_size, prefer_merge_join):
    """The batch-at-a-time executor equals the row-at-a-time reference
    interpreter."""
    physical = plan_physical(plan, prefer_merge_join=prefer_merge_join)
    got = execute(physical, batch_size=batch_size)
    expected = evaluate(plan)
    assert bag(got) == bag(expected)
    assert got.schema.names == expected.schema.names


# ----------------------------------------------------------------------
# property tests: compiled expressions == bound closures
# ----------------------------------------------------------------------
@st.composite
def expressions(draw, depth=2):
    leafs = [col("a"), col("b"), col("c"), lit(draw(values)), lit("x"), lit(None)]
    if depth == 0:
        return draw(st.sampled_from(leafs))
    kind = draw(
        st.sampled_from(
            ["cmp", "and", "or", "not", "arith", "isnull", "inlist", "between"]
        )
    )
    sub = expressions(depth=depth - 1)
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        from repro.relational.expressions import Comparison

        return Comparison(op, draw(st.sampled_from(leafs[:4])), draw(st.sampled_from(leafs[:4])))
    if kind == "and":
        return draw(sub) & draw(sub)
    if kind == "or":
        return draw(sub) | draw(sub)
    if kind == "not":
        return ~draw(sub)
    if kind == "arith":
        op = draw(st.sampled_from(["+", "-", "*"]))
        from repro.relational.expressions import Arithmetic

        return Arithmetic(op, draw(st.sampled_from(leafs[:4])), draw(st.sampled_from(leafs[:4])))
    if kind == "isnull":
        return col(draw(st.sampled_from(["a", "b", "c"]))).is_null()
    if kind == "inlist":
        return col(draw(st.sampled_from(["a", "b", "c"]))).in_list([0, 2, 4])
    return col(draw(st.sampled_from(["a", "b"]))).between(1, 3)


maybe_values = st.one_of(values, st.none())


@given(expressions(), st.lists(st.tuples(maybe_values, maybe_values, maybe_values), max_size=12))
@settings(max_examples=200, deadline=None)
def test_compiled_expression_equals_bound(expr, rows):
    schema = Schema(["a", "b", "c"])
    bound = expr.bind(schema)
    compiled = compile_expression(expr, schema)
    for row in rows:
        try:
            expected = bound(row)
        except TypeError:
            # mixed-type comparisons raise identically on both paths
            with pytest.raises(TypeError):
                compiled(row)
            continue
        assert compiled(row) == expected, f"{expr!r} on {row}"
