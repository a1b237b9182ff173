"""Tests for prepare()/PreparedQuery and $n parameter slots."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PreparedQuery, Poss, Rel, UProject, USelect, execute_query
from repro.core.prepared import collect_params
from repro.relational import (
    Param,
    col,
    compile_cache_stats,
    lit,
    plan_cache_stats,
)
from repro.sql import SqlSyntaxError, execute_sql, parse, prepare

from tests.conftest import build_vehicles_udb


class TestParamExpression:
    def test_parse_builds_shared_store(self):
        query = parse("possible (select id from r where type = $1 and id < $2)")
        store, count = collect_params(query)
        assert count == 2
        store[:] = ["Tank", 3]
        assert store == ["Tank", 3]

    def test_dollar_zero_rejected(self):
        for slot in ("$0", "$00", "$000"):
            with pytest.raises(SqlSyntaxError):
                parse(f"possible (select id from r where type = {slot})")

    def test_statement_cache_is_bounded(self, vehicles_udb):
        from repro.sql import _STATEMENT_CACHE_LIMIT

        for i in range(_STATEMENT_CACHE_LIMIT + 5):
            execute_sql(f"possible (select id from r where id = {i})", vehicles_udb)
        assert len(vehicles_udb._statements) <= _STATEMENT_CACHE_LIMIT

    def test_param_repr_and_value(self):
        store = []
        p = Param(1, store)
        assert repr(p) == "$2"
        assert store == [None, None]  # padded to the slot
        store[1] = 7
        assert p.value == 7

    def test_mixed_stores_rejected(self):
        q1 = parse("possible (select id from r where type = $1)")
        q2 = parse("possible (select id from r where type = $1)")
        mixed = USelect(q1.child, col("id").eq(Param(0, [None])))
        with pytest.raises(ValueError):
            collect_params(Poss(mixed))


class TestPreparedQuery:
    def test_run_binds_and_answers(self, vehicles_udb):
        stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
        tanks = stmt.run("Tank")
        transports = stmt.run("Transport")
        # match the unparameterized statements
        assert tanks == execute_sql(
            "possible (select id from r where type = 'Tank')", vehicles_udb
        )
        assert transports == execute_sql(
            "possible (select id from r where type = 'Transport')", vehicles_udb
        )

    def test_one_plan_serves_every_binding(self, vehicles_udb):
        stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
        stmt.run("Tank")
        misses = plan_cache_stats()["misses"]
        codegen = compile_cache_stats()["misses"]
        for value in ("Transport", "Tank", "NoSuchType", None):
            stmt.run(value)
        assert plan_cache_stats()["misses"] == misses  # zero re-planning
        assert compile_cache_stats()["misses"] == codegen  # zero codegen

    def test_null_binding_matches_nothing(self, vehicles_udb):
        stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
        stmt.run("Tank")
        assert len(stmt.run(None)) == 0  # NULL never compares equal

    def test_wrong_arity_raises(self, vehicles_udb):
        stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
        with pytest.raises(ValueError):
            stmt.run()
        with pytest.raises(ValueError):
            stmt.run("Tank", "Extra")

    def test_prepare_is_idempotent(self, vehicles_udb):
        sql = "possible (select id from r where type = $1)"
        assert prepare(sql, vehicles_udb) is prepare(sql, vehicles_udb)

    def test_prepare_rejects_ddl(self, vehicles_udb):
        with pytest.raises(ValueError):
            prepare("create index i on u_r_type (type)", vehicles_udb)

    def test_explain_marks_cached_after_first_run(self, vehicles_udb):
        stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
        cold = stmt.explain()
        assert "(cached)" not in cold.splitlines()[0] or cold  # first may be cold
        stmt.run("Tank")
        warm = stmt.explain()
        assert warm.splitlines()[0].endswith("(cached)")
        assert "$1" in warm  # the parameter slot shows in the plan

    def test_udatabase_prepare_convenience(self, vehicles_udb):
        stmt = vehicles_udb.prepare("possible (select id from r where type = $1)")
        assert isinstance(stmt, PreparedQuery)
        assert len(stmt.run("Tank")) > 0

    def test_parameter_free_statement_prepares(self, vehicles_udb):
        stmt = prepare("possible (select id from r where type = 'Tank')", vehicles_udb)
        assert stmt.parameter_count == 0
        first = stmt.run()
        misses = plan_cache_stats()["misses"]
        assert stmt.run() == first
        assert plan_cache_stats()["misses"] == misses

    def test_execute_sql_params_share_statement_cache(self, vehicles_udb):
        sql = "possible (select id from r where id < $1)"
        a = execute_sql(sql, vehicles_udb, params=(3,))
        misses = plan_cache_stats()["misses"]
        b = execute_sql(sql, vehicles_udb, params=(5,))
        assert plan_cache_stats()["misses"] == misses  # plan reused
        assert len(b) >= len(a)

    def test_execute_sql_missing_params_raises(self, vehicles_udb):
        with pytest.raises(ValueError):
            execute_sql(
                "possible (select id from r where id < $1)", vehicles_udb
            )

    def test_between_parameters(self, vehicles_udb):
        stmt = prepare(
            "possible (select id from r where id between $1 and $2)", vehicles_udb
        )
        both = stmt.run(1, 4)
        narrow = stmt.run(2, 3)
        assert set(narrow.rows) <= set(both.rows)
        reference = execute_sql(
            "possible (select id from r where id between 2 and 3)", vehicles_udb
        )
        assert narrow == reference

    def test_repeated_slot_reads_one_binding(self, vehicles_udb):
        stmt = prepare(
            "possible (select id from r where id = $1 or id < $1)", vehicles_udb
        )
        got = stmt.run(3)
        reference = execute_sql(
            "possible (select id from r where id = 3 or id < 3)", vehicles_udb
        )
        assert got == reference


class TestParamPointLookup:
    """Parameterized equality predicates become index point lookups that
    resolve the bound value per execution."""

    def test_param_point_lookup_uses_index_and_rebinds(self, vehicles_udb):
        # udb partitions auto-index their value columns (sorted)
        stmt = prepare("possible (select id from r where type = $1)", vehicles_udb)
        stmt.run("Tank")
        text = stmt.explain()
        assert "Index Scan" in text and "$1" in text
        # same cached plan, different binding, correct answer
        transports = stmt.run("Transport")
        reference = execute_sql(
            "possible (select id from r where type = 'Transport')", vehicles_udb
        )
        assert transports == reference


@given(
    st.lists(
        st.sampled_from(["Tank", "Transport", "NoSuchType", None]),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=40, deadline=None)
def test_prepared_matches_literal_queries(bindings):
    """Property: for any binding sequence, the prepared query answers
    exactly what the literal query answers."""
    udb = build_vehicles_udb()
    stmt = prepare("possible (select id from r where type = $1)", udb)
    for value in bindings:
        got = stmt.run(value)
        if value is None:
            assert len(got) == 0
            continue
        literal = Poss(UProject(USelect(Rel("r"), col("type").eq(lit(value))), ["id"]))
        assert got == execute_query(literal, udb)


def orders_udb():
    from repro.ugen import generate_uncertain

    return generate_uncertain(scale=0.0005, seed=42, tables=["orders"]).udb


class TestDateStringBindings:
    """A ``'YYYY-MM-DD'`` string bound to ``$n`` types like the literal."""

    QUERY = "possible (select o.orderkey from orders o where o.orderdate > $1)"
    LITERAL = "possible (select o.orderkey from orders o where o.orderdate > '1995-03-15')"

    def test_string_binding_equals_inline_literal(self):
        udb = orders_udb()
        expected = execute_sql(self.LITERAL, udb)
        assert len(expected) > 0
        assert prepare(self.QUERY, udb).run("1995-03-15") == expected

    def test_date_binding_unchanged(self):
        import datetime

        udb = orders_udb()
        got = prepare(self.QUERY, udb).run(datetime.date(1995, 3, 15))
        assert got == execute_sql(self.LITERAL, udb)

    def test_non_date_strings_stay_strings(self):
        udb = build_vehicles_udb()
        got = prepare("possible (select id from r where type = $1)", udb).run("Tank")
        assert sorted(row[0] for row in got.rows) == [1, 2, 3, 4]

    def test_prepared_dml_string_binding_equals_inline_literal(self):
        bound, inline = orders_udb(), orders_udb()
        expected = execute_sql("delete from orders where orderdate < '1992-02-01'", inline)
        assert expected.count > 0
        got = prepare("delete from orders where orderdate < $1", bound).run("1992-02-01")
        assert got.count == expected.count
        remaining = "possible (select o.orderkey from orders o)"
        assert execute_sql(remaining, bound) == execute_sql(remaining, inline)
