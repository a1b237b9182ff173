"""Tests for physical operators: joins, distinct, set ops, extend."""

import pytest

from repro.relational.expressions import col, lit
from repro.relational.physical import (
    Append,
    Except,
    ExtendOp,
    Filter,
    HashDistinct,
    HashJoin,
    MergeJoin,
    NestedLoopJoin,
    Projection,
    ProjectionAs,
    SeqScan,
    Sort,
    execute,
)
from repro.relational.relation import Relation


@pytest.fixture
def left():
    return SeqScan(Relation(["l.k", "l.v"], [(1, "a"), (2, "b"), (2, "c"), (None, "n")]), "left")


@pytest.fixture
def right():
    return SeqScan(Relation(["r.k", "r.w"], [(1, 10), (2, 20), (3, 30), (None, 99)]), "right")


class TestScanFilterProject:
    def test_seq_scan(self, left):
        assert len(execute(left)) == 4

    def test_filter(self, left):
        out = execute(Filter(left, col("l.k").eq(lit(2))))
        assert out.rows == [(2, "b"), (2, "c")]

    def test_projection(self, left):
        out = execute(Projection(left, ["l.v"]))
        assert out.schema.names == ["l.v"]
        assert len(out) == 4

    def test_projection_as_duplicates_columns(self, left):
        out = execute(ProjectionAs(left, [("l.k", "k1"), ("l.k", "k2")]))
        assert out.schema.names == ["k1", "k2"]
        assert out.rows[0] == (1, 1)

    def test_extend_adds_literal_column(self, left):
        out = execute(ExtendOp(left, [("z", lit(None)), ("one", lit(1))]))
        assert out.schema.names == ["l.k", "l.v", "z", "one"]
        assert out.rows[0][-2:] == (None, 1)


class TestJoins:
    def test_hash_join(self, left, right):
        out = execute(HashJoin(left, right, [("l.k", "r.k")]))
        assert sorted(out.rows) == [(1, "a", 1, 10), (2, "b", 2, 20), (2, "c", 2, 20)]

    def test_hash_join_null_keys_never_match(self, left, right):
        out = execute(HashJoin(left, right, [("l.k", "r.k")]))
        assert not any(row[0] is None for row in out.rows)

    def test_hash_join_residual(self, left, right):
        out = execute(
            HashJoin(left, right, [("l.k", "r.k")], residual=col("l.v").eq(lit("b")))
        )
        assert out.rows == [(2, "b", 2, 20)]

    def test_hash_join_requires_pairs(self, left, right):
        with pytest.raises(ValueError):
            HashJoin(left, right, [])

    def test_merge_join_equals_hash_join(self, left, right):
        h = execute(HashJoin(left, right, [("l.k", "r.k")]))
        m = execute(MergeJoin(left, right, [("l.k", "r.k")]))
        assert sorted(h.rows) == sorted(m.rows)

    def test_merge_join_residual(self, left, right):
        out = execute(
            MergeJoin(left, right, [("l.k", "r.k")], residual=col("r.w") > lit(15))
        )
        assert sorted(out.rows) == [(2, "b", 2, 20), (2, "c", 2, 20)]

    def test_nested_loop_cross(self, left, right):
        out = execute(NestedLoopJoin(left, right, None))
        assert len(out) == 16

    def test_nested_loop_theta(self, left, right):
        out = execute(NestedLoopJoin(left, right, col("l.k") < col("r.k")))
        assert all(row[0] < row[2] for row in out.rows)

    def test_empty_inputs(self, right):
        empty = SeqScan(Relation(["l.k", "l.v"], []), "empty")
        assert len(execute(HashJoin(empty, right, [("l.k", "r.k")]))) == 0
        assert len(execute(MergeJoin(empty, right, [("l.k", "r.k")]))) == 0


class TestSetOpsAndMisc:
    def test_hash_distinct(self):
        scan = SeqScan(Relation(["a"], [(1,), (1,), (2,)]), "t")
        assert execute(HashDistinct(scan)).rows == [(1,), (2,)]

    def test_append(self):
        a = SeqScan(Relation(["a"], [(1,)]), "a")
        b = SeqScan(Relation(["a"], [(2,)]), "b")
        assert execute(Append(a, b)).rows == [(1,), (2,)]

    def test_except(self):
        a = SeqScan(Relation(["a"], [(1,), (2,), (2,), (3,)]), "a")
        b = SeqScan(Relation(["a"], [(2,)]), "b")
        assert execute(Except(a, b)).rows == [(1,), (3,)]

    def test_sort(self):
        scan = SeqScan(Relation(["a", "b"], [(2, "x"), (1, "y")]), "t")
        assert execute(Sort(scan, ["a"])).rows == [(1, "y"), (2, "x")]

    def test_explain_labels_present(self, left, right):
        join = HashJoin(left, right, [("l.k", "r.k")], residual=col("r.w") > lit(0))
        assert join.explain_label() == "Hash Join"
        details = join.explain_details()
        assert any("Hash Cond" in d for d in details)
        assert any("Join Filter" in d for d in details)
