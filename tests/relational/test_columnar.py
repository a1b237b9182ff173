"""Tests for the columnar executor.

Three families:

* ColumnBatch mechanics — transposition round trips at the boundaries
  (empty, one row, zero-width schemas);
* batch-boundary tests — every physical operator executed over inputs of
  size 0, 1, one batch exactly, and one batch ± 1, producing the bag the
  reference interpreter computes for the equivalent logical plan;
* property tests — randomized plans (with and without optimization, with
  and without indexes) must evaluate to the reference interpreter's answer
  across batch sizes {0, 1, 1023, 1024, 1025}.
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
    Rename,
    Scan,
    Select,
    SemiJoin,
    Union,
)
from repro.relational.columnar import ColumnBatch
from repro.relational.expressions import col, lit
from repro.relational.index import ensure_index
from repro.relational.optimizer import optimize
from repro.relational.physical import (
    Append,
    Except,
    ExtendOp,
    Filter,
    FusedPipeline,
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

B = 4
BOUNDARY_SIZES = [0, 1, B - 1, B, B + 1]


def left_relation(n: int) -> Relation:
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


def equi(predicate=None):
    """``l.k = r.k``, optionally conjoined with a residual predicate."""
    pair = col("l.k").eq(col("r.k"))
    return pair if predicate is None else pair & predicate


class TestColumnBatch:
    def test_round_trip(self):
        rows = [(1, "a"), (None, "b"), (3, None)]
        batch = ColumnBatch.from_rows(rows, 2)
        assert batch.length == len(batch) == 3
        assert batch.to_rows() == rows

    def test_empty(self):
        batch = ColumnBatch.from_rows([], 2)
        assert batch.length == 0
        assert batch.columns == [[], []]
        assert batch.to_rows() == []

    def test_zero_width(self):
        batch = ColumnBatch([], 3)
        assert batch.to_rows() == [(), (), ()]


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
class TestColumnarBatchBoundaries:
    """Every operator at every batch-boundary size."""

    def test_seq_scan(self, n):
        rel = left_relation(n)
        assert_matches_reference(SeqScan(rel, "l"), Scan(rel, "l"))

    def test_filter(self, n):
        rel = left_relation(n)
        predicate = col("l.k") > lit(1)
        assert_matches_reference(
            Filter(SeqScan(rel, "l"), predicate), Select(Scan(rel, "l"), predicate)
        )

    def test_projection(self, n):
        rel = left_relation(n)
        assert_matches_reference(
            Projection(SeqScan(rel, "l"), ["l.v"]), Project(Scan(rel, "l"), ["l.v"])
        )

    def test_projection_as(self, n):
        rel = left_relation(n)
        items = [("l.k", "k1"), ("l.k", "k2"), ("l.v", "v")]
        assert_matches_reference(
            ProjectionAs(SeqScan(rel, "l"), items), ProjectAs(Scan(rel, "l"), items)
        )

    def test_extend(self, n):
        rel = left_relation(n)
        items = [("kk", col("l.k") + col("l.k")), ("one", lit(1))]
        assert_matches_reference(
            ExtendOp(SeqScan(rel, "l"), items), Extend(Scan(rel, "l"), items)
        )

    def test_fused_pipeline(self, n):
        rel = left_relation(n)
        scan = SeqScan(rel, "l")
        predicate = col("l.k") > lit(0)
        fused = FusedPipeline(
            scan, predicate, [1, 0], scan.schema.project(["l.v", "l.k"])
        )
        assert_matches_reference(
            fused, Project(Select(Scan(rel, "l"), predicate), ["l.v", "l.k"])
        )

    def test_fused_pipeline_filter_only(self, n):
        rel = left_relation(n)
        scan = SeqScan(rel, "l")
        predicate = col("l.v").ne(lit("v1"))
        assert_matches_reference(
            FusedPipeline(scan, predicate, None, scan.schema),
            Select(Scan(rel, "l"), predicate),
        )

    def test_fused_pipeline_over_index_scan(self, n):
        from repro.relational.physical import IndexScan

        rel = left_relation(n)
        index = ensure_index(rel, ["l.v"], kind="hash")
        residual = col("l.k") < lit(4)
        scan = IndexScan(index, "l", rel.schema, point="v1", residual=residual)
        predicate = col("l.k") > lit(0)
        fused = FusedPipeline(
            scan, predicate, [1, 0], scan.schema.project(["l.v", "l.k"])
        )
        point = col("l.v").eq(lit("v1"))
        assert_matches_reference(
            fused,
            Project(Select(Scan(rel, "l"), point & residual & predicate), ["l.v", "l.k"]),
        )
        # the scan keeps its own accounting: matched rows after the residual,
        # chunked by the batch size
        matched = len(evaluate(Select(Scan(rel, "l"), point & residual)))
        assert scan.actual_rows == matched
        assert scan.actual_batches == -(-matched // B)

    def test_hash_join(self, n):
        lrel, rrel = left_relation(n), right_relation(n)
        assert_matches_reference(
            HashJoin(SeqScan(lrel, "l"), SeqScan(rrel, "r"), [("l.k", "r.k")]),
            Join(Scan(lrel, "l"), Scan(rrel, "r"), equi()),
        )

    def test_hash_join_residual(self, n):
        lrel, rrel = left_relation(n), right_relation(n)
        residual = col("r.w") > lit(0)
        assert_matches_reference(
            HashJoin(
                SeqScan(lrel, "l"),
                SeqScan(rrel, "r"),
                [("l.k", "r.k")],
                residual=residual,
            ),
            Join(Scan(lrel, "l"), Scan(rrel, "r"), equi(residual)),
        )

    def test_hash_join_folded_output(self, n):
        lrel, rrel = left_relation(n), right_relation(n)
        residual = col("r.w") > lit(0)
        join = HashJoin(
            SeqScan(lrel, "l"),
            SeqScan(rrel, "r"),
            [("l.k", "r.k")],
            residual=residual,
        )
        join.set_output([3, 1], join.schema.project(["r.w", "l.v"]))
        assert_matches_reference(
            join,
            Project(Join(Scan(lrel, "l"), Scan(rrel, "r"), equi(residual)), ["r.w", "l.v"]),
        )

    def test_index_join_folded_output(self, n):
        lrel, inner = left_relation(n), right_relation(n)
        index = ensure_index(inner, ["r.k"], kind="hash")
        outer = SeqScan(lrel, "l")
        from repro.relational.physical import IndexNestedLoopJoin, IndexScan

        probe = IndexScan(index, "r", inner.schema, probe=True)
        join = IndexNestedLoopJoin(outer, probe, index, [0], [("l.k", "r.k")])
        join.set_output([2, 1], join.schema.project(["r.k", "l.v"]))
        assert_matches_reference(
            join, Project(Join(Scan(lrel, "l"), Scan(inner, "r"), equi()), ["r.k", "l.v"])
        )

    def test_merge_join(self, n):
        lrel, rrel = left_relation(n), right_relation(n)
        residual = col("r.w") > lit(10)
        assert_matches_reference(
            MergeJoin(
                SeqScan(lrel, "l"),
                SeqScan(rrel, "r"),
                [("l.k", "r.k")],
                residual=residual,
            ),
            Join(Scan(lrel, "l"), Scan(rrel, "r"), equi(residual)),
        )

    def test_nested_loop(self, n):
        lrel, rrel = left_relation(n), right_relation(min(n, B))
        predicate = col("l.k") < col("r.k")
        assert_matches_reference(
            NestedLoopJoin(SeqScan(lrel, "l"), SeqScan(rrel, "r"), predicate),
            Join(Scan(lrel, "l"), Scan(rrel, "r"), predicate),
        )

    def test_semi_join(self, n):
        lrel, rrel = left_relation(n), right_relation(n)
        predicate = equi(col("r.w") > lit(0))
        assert_matches_reference(
            SemiJoinOp(SeqScan(lrel, "l"), SeqScan(rrel, "r"), predicate),
            SemiJoin(Scan(lrel, "l"), Scan(rrel, "r"), predicate),
        )

    def test_hash_distinct(self, n):
        rel = left_relation(n)
        assert_matches_reference(HashDistinct(SeqScan(rel, "l")), Distinct(Scan(rel, "l")))

    def test_append(self, n):
        a, b = left_relation(n), left_relation(max(n - 1, 0))
        assert_matches_reference(
            Append(SeqScan(a, "a"), SeqScan(b, "b")), Union(Scan(a, "a"), Scan(b, "b"))
        )

    def test_except(self, n):
        a, b = left_relation(n), left_relation(n // 2)
        assert_matches_reference(
            Except(SeqScan(a, "a"), SeqScan(b, "b")),
            Difference(Scan(a, "a"), Scan(b, "b")),
        )

    def test_sort(self, n):
        rel = left_relation(n)
        assert_matches_reference(Sort(SeqScan(rel, "l"), ["l.v", "l.k"]), Scan(rel, "l"))
        # order, not just the bag: the output is the stable key sort
        got = execute(Sort(SeqScan(rel, "l"), ["l.v", "l.k"]), batch_size=B)
        assert got.rows == rel.sorted(["l.v", "l.k"]).rows

    def test_materialize(self, n):
        rel = left_relation(n)
        assert_matches_reference(Materialize(SeqScan(rel, "l")), Scan(rel, "l"))


class TestMergeJoinPresorted:
    """Merge join consuming SortedIndex.ordered instead of re-sorting."""

    def test_presorted_inputs_skip_the_sorts(self):
        left = Relation(["l.k", "l.v"], [(i % 7, i) for i in range(40)])
        right = Relation(["r.k", "r.w"], [(i % 5, i * 2) for i in range(30)])
        ensure_index(left, ["l.k"], kind="sorted")
        ensure_index(right, ["r.k"], kind="sorted")
        join = MergeJoin(
            SeqScan(left, "l"), SeqScan(right, "r"), [("l.k", "r.k")]
        )
        got = execute(join)
        # the Sort children were never drained: the join consumed the
        # indexes' ordered rows directly
        assert join.left.actual_rows is None
        assert join.right.actual_rows is None
        expected = evaluate(
            Join(Scan(left, "l"), Scan(right, "r"), col("l.k").eq(col("r.k")))
        )
        assert sorted(got.rows) == sorted(expected.rows)

    def test_presorted_with_nulls_matches_sorting_path(self):
        left = Relation(["l.k"], [(None,), (1,), (2,), (1,)])
        right = Relation(["r.k"], [(1,), (None,), (3,)])
        ensure_index(left, ["l.k"], kind="sorted")
        ensure_index(right, ["r.k"], kind="sorted")
        join = MergeJoin(SeqScan(left, "l"), SeqScan(right, "r"), [("l.k", "r.k")])
        assert_matches_reference(
            join, Join(Scan(left, "l"), Scan(right, "r"), col("l.k").eq(col("r.k")))
        )

    def test_one_presorted_side_falls_back(self):
        left = Relation(["l.k"], [(2,), (1,)])
        ensure_index(left, ["l.k"], kind="sorted")
        right = Relation(["r.k"], [(1,), (2,)])
        join = MergeJoin(SeqScan(left, "l"), SeqScan(right, "r"), [("l.k", "r.k")])
        assert len(execute(join)) == 2

    def test_cross_type_keys_match_sorting_path(self):
        # 1 == 1.0 under raw comparison but not under _sort_key: the
        # presorted path must agree with the index-free merge join
        left = Relation(["l.k", "l.v"], [(1, "l")])
        right = Relation(["r.k", "r.w"], [(1.0, "r")])
        ensure_index(left, ["l.k"], kind="sorted")
        ensure_index(right, ["r.k"], kind="sorted")
        join = MergeJoin(SeqScan(left, "l"), SeqScan(right, "r"), [("l.k", "r.k")])
        bare = MergeJoin(
            SeqScan(Relation(["l.k", "l.v"], [(1, "l")]), "l"),
            SeqScan(Relation(["r.k", "r.w"], [(1.0, "r")]), "r"),
            [("l.k", "r.k")],
        )
        assert sorted(execute(join).rows) == sorted(execute(bare).rows)

    def test_incomparable_sides_fall_back(self):
        left = Relation(["l.k"], [(1,), (2,)])
        right = Relation(["r.k"], [("a",), ("b",)])
        ensure_index(left, ["l.k"], kind="sorted")
        ensure_index(right, ["r.k"], kind="sorted")
        join = MergeJoin(SeqScan(left, "l"), SeqScan(right, "r"), [("l.k", "r.k")])
        assert execute(join).rows == []


# ----------------------------------------------------------------------
# property tests: the executor equals the reference interpreter, with and
# without optimization, indexed and sequential
# ----------------------------------------------------------------------
values = st.one_of(st.integers(min_value=0, max_value=9), st.none())
rows_r = st.lists(st.tuples(values, values), min_size=0, max_size=30)
rows_s = st.lists(st.tuples(values, values), min_size=0, max_size=30)
batch_sizes = st.sampled_from([0, 1, 1023, 1024, 1025])


@st.composite
def predicates(draw, columns):
    column = col(draw(st.sampled_from(columns)))
    kind = draw(st.sampled_from(["eq", "lt", "gt", "between", "in", "isnull", "and"]))
    v = draw(st.integers(min_value=0, max_value=9))
    if kind == "eq":
        return column.eq(lit(v))
    if kind == "lt":
        return column < lit(v)
    if kind == "gt":
        return column > lit(v)
    if kind == "between":
        lo = draw(st.integers(min_value=0, max_value=9))
        return column.between(min(lo, v), max(lo, v))
    if kind == "in":
        return column.in_list([v, (v + 3) % 10])
    if kind == "isnull":
        return column.is_null()
    other = col(draw(st.sampled_from(columns)))
    return (column >= lit(min(v, 5))) & (other <= lit(max(v, 5)))


@st.composite
def plans(draw):
    r = Relation(["r.a", "r.b"], draw(rows_r))
    s = Relation(["s.c", "s.d"], draw(rows_s))
    for rel, names in ((r, ["r.a", "r.b"]), (s, ["s.c", "s.d"])):
        for name in names:
            ensure_index(rel, [name], kind="hash")
            ensure_index(rel, [name], kind="sorted")
    r_scan, s_scan = Scan(r, "r"), Scan(s, "s")
    shape = draw(
        st.sampled_from(
            [
                "select",
                "project_select",
                "rename_select",
                "join",
                "join_select",
                "project_join",
                "distinct",
                "product",
                "union",
            ]
        )
    )
    if shape == "select":
        return Select(r_scan, draw(predicates(["r.a", "r.b"])))
    if shape == "project_select":
        return Project(
            Select(r_scan, draw(predicates(["r.a", "r.b"]))), ["r.b", "r.a", "r.b"][:2]
        )
    if shape == "rename_select":
        renamed = Rename(r_scan, {"r.a": "x.a"})
        return Project(Select(renamed, draw(predicates(["x.a", "r.b"]))), ["x.a"])
    join = Join(
        Select(r_scan, draw(predicates(["r.a", "r.b"]))),
        s_scan,
        col("r.a").eq(col("s.c")),
    )
    if shape == "join":
        return join
    if shape == "join_select":
        return Select(join, draw(predicates(["r.b", "s.d"])))
    if shape == "project_join":
        return Project(join, ["r.b", "s.d"])
    if shape == "distinct":
        return Distinct(Project(Select(r_scan, draw(predicates(["r.a"]))), ["r.b"]))
    if shape == "product":
        return Select(Product(r_scan, s_scan), draw(predicates(["r.a", "s.d"])))
    return Union(Project(r_scan, ["r.a"]), Project(s_scan, ["s.c"]))


def bag(relation: Relation):
    return sorted(map(repr, relation.rows))


@given(plans(), batch_sizes, st.booleans())
@settings(max_examples=150, deadline=None)
def test_three_modes_agree(plan, batch_size, use_indexes):
    """Three routes to one answer: the reference interpreter, the executor
    on the plan as written, and the executor on the optimized plan."""
    expected = evaluate(plan)
    direct = execute(plan_physical(plan, use_indexes=use_indexes), batch_size=batch_size)
    optimized_plan = plan_physical(optimize(plan), use_indexes=use_indexes)
    optimized = execute(optimized_plan, batch_size=batch_size)
    assert bag(direct) == bag(expected)
    assert bag(optimized) == bag(expected)
    assert direct.schema.names == optimized.schema.names == expected.schema.names
    # plans are re-entrant: a second execution of the same tree agrees
    assert bag(execute(optimized_plan, batch_size=batch_size)) == bag(expected)


@given(plans(), batch_sizes)
@settings(max_examples=60, deadline=None)
def test_merge_join_profile_three_modes(plan, batch_size):
    """The merge-join planner profile, as written and optimized, equals
    the reference interpreter."""
    expected = bag(evaluate(plan))
    for logical in (plan, optimize(plan)):
        physical = plan_physical(logical, prefer_merge_join=True)
        assert bag(execute(physical, batch_size=batch_size)) == expected
