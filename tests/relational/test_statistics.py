"""Tests for cardinality and selectivity estimation."""

import pytest

from repro.relational.expressions import col, lit
from repro.relational.relation import Relation
from repro.relational.statistics import (
    ColumnStats,
    TableStats,
    equijoin_selectivity,
    selectivity,
)
from repro.relational.types import Date


@pytest.fixture
def stats():
    rows = [(i, i % 10, Date(1995, 1 + i % 12, 1)) for i in range(100)]
    return TableStats(Relation(["k", "v", "d"], rows))


class TestColumnStats:
    def test_ndistinct(self, stats):
        assert stats.column("k").ndistinct == 100
        assert stats.column("v").ndistinct == 10

    def test_min_max(self, stats):
        c = stats.column("k")
        assert c.minimum == 0 and c.maximum == 99

    def test_null_fraction(self):
        c = ColumnStats([1, None, None, 4])
        assert c.null_fraction == pytest.approx(0.5)

    def test_unknown_column_is_none(self, stats):
        assert stats.column("zzz") is None

    def test_eq_selectivity(self, stats):
        assert stats.column("v").eq_selectivity() == pytest.approx(0.1)

    def test_range_selectivity_midpoint(self, stats):
        sel = stats.column("k").range_selectivity("<", 50)
        assert 0.4 < sel < 0.6

    def test_range_selectivity_clamped(self, stats):
        assert stats.column("k").range_selectivity("<", -5) <= 1e-5
        assert stats.column("k").range_selectivity(">", 200) <= 1e-5

    def test_date_ranges_estimated(self, stats):
        sel = stats.column("d").range_selectivity(">", Date(1995, 6, 15))
        assert 0.2 < sel < 0.8


class TestPredicateSelectivity:
    def test_equality(self, stats):
        assert selectivity(col("v").eq(lit(3)), stats) == pytest.approx(0.1)

    def test_inequality(self, stats):
        assert selectivity(col("v").ne(lit(3)), stats) == pytest.approx(0.9)

    def test_conjunction_multiplies(self, stats):
        e = col("v").eq(lit(3)) & col("v").eq(lit(4))
        assert selectivity(e, stats) == pytest.approx(0.01)

    def test_disjunction(self, stats):
        e = col("v").eq(lit(3)) | col("v").eq(lit(4))
        assert selectivity(e, stats) == pytest.approx(0.19)

    def test_negation(self, stats):
        e = ~col("v").eq(lit(3))
        assert selectivity(e, stats) == pytest.approx(0.9)

    def test_between(self, stats):
        e = col("k").between(25, 75)
        assert 0.2 < selectivity(e, stats) < 0.8

    def test_in_list_scales_with_size(self, stats):
        single = selectivity(col("v").in_list([1]), stats)
        triple = selectivity(col("v").in_list([1, 2, 3]), stats)
        assert triple == pytest.approx(3 * single)

    def test_without_stats_uses_defaults(self):
        assert 0 < selectivity(col("v").eq(lit(3)), None) < 1

    def test_selectivity_capped_at_one(self, stats):
        e = col("v").in_list(list(range(100)))
        assert selectivity(e, stats) == 1.0


class TestJoinCardinality:
    def test_key_foreign_key(self):
        left = ColumnStats(list(range(100)))  # key side
        right = ColumnStats([i % 100 for i in range(1000)])
        est = 100 * 1000 * equijoin_selectivity(100, 1000, left, right)
        assert est == pytest.approx(1000)

    def test_without_stats_falls_back(self):
        est = 100 * 100 * equijoin_selectivity(100, 100, None, None)
        assert est == pytest.approx(100)
