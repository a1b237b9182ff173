"""Property tests: cached execute_query == fresh execution, all knobs.

Mirrors ``tests/relational/test_columnar.py``'s reference properties one
level up: for randomized logical queries over the vehicles database,
executing through the (warm) prepared-plan cache must be tuple-identical
to a fresh, cache-free translation across batch sizes {0, 1, 1023, 1024,
1025} and ``use_indexes`` on/off, and must equal the possible-worlds
answer (the union of the query's per-world answers).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import Poss, Rel, UJoin, UProject, UQuery, USelect
from repro.core.translate import execute_query
from repro.relational import col, lit, plan_cache_stats, reset_plan_cache

from tests.conftest import brute_force_poss, build_vehicles_udb

batch_sizes = st.sampled_from([0, 1, 1023, 1024, 1025])


@st.composite
def predicates(draw):
    kind = draw(st.sampled_from(["type", "faction", "id_lt", "id_between", "and"]))
    if kind == "type":
        return col("type").eq(lit(draw(st.sampled_from(["Tank", "Transport", "None"]))))
    if kind == "faction":
        return col("faction").eq(lit(draw(st.sampled_from(["Friend", "Enemy"]))))
    if kind == "id_lt":
        return col("id") < lit(draw(st.integers(min_value=0, max_value=5)))
    if kind == "id_between":
        lo = draw(st.integers(min_value=0, max_value=4))
        hi = draw(st.integers(min_value=0, max_value=5))
        return col("id").between(min(lo, hi), max(lo, hi))
    return (col("type").eq(lit("Tank"))) & (
        col("id") < lit(draw(st.integers(min_value=1, max_value=5)))
    )


@st.composite
def queries(draw) -> UQuery:
    shape = draw(st.sampled_from(["select", "project", "join", "merge_heavy"]))
    if shape == "select":
        return Poss(USelect(Rel("r"), draw(predicates())))
    if shape == "project":
        attrs = draw(
            st.sampled_from([["id"], ["type", "id"], ["faction"], ["id", "faction"]])
        )
        return Poss(UProject(USelect(Rel("r"), draw(predicates())), attrs))
    if shape == "join":
        join = UJoin(
            USelect(Rel("r", "a"), col("a.type").eq(lit("Tank"))),
            Rel("r", "b"),
            col("a.id").eq(col("b.id")),
        )
        return Poss(UProject(join, ["a.id", "b.faction"]))
    # touches all three partitions: forces two tid merges
    return Poss(
        UProject(USelect(Rel("r"), draw(predicates())), ["id", "type", "faction"])
    )


@given(queries(), batch_sizes, st.booleans())
@settings(max_examples=100, deadline=None)
def test_cached_query_identical_to_fresh(query, batch_size, use_indexes):
    udb = build_vehicles_udb()
    reset_plan_cache()
    cold = execute_query(query, udb, use_indexes=use_indexes, batch_size=batch_size)
    misses = plan_cache_stats()["misses"]
    warm = execute_query(query, udb, use_indexes=use_indexes, batch_size=batch_size)
    warm_again = execute_query(
        query, udb, use_indexes=use_indexes, batch_size=batch_size
    )
    # the repeated runs were executor-only...
    assert plan_cache_stats()["misses"] == misses
    assert plan_cache_stats()["hits"] >= 2
    # ...and tuple-identical to the cold run
    assert warm == cold
    assert warm_again == cold
    assert sorted(map(repr, warm.rows)) == sorted(map(repr, cold.rows))


@given(queries(), batch_sizes, st.booleans())
@settings(max_examples=40, deadline=None)
def test_warm_modes_agree_with_each_other(query, batch_size, use_indexes):
    """Cold (freshly planned) and warm (cached-plan) runs agree with each
    other and with the possible-worlds answer."""
    udb = build_vehicles_udb()
    expected = brute_force_poss(query.child, udb)
    cold = execute_query(query, udb, use_indexes=use_indexes, batch_size=batch_size)
    # warm pass: runs from the cached plan
    warm = execute_query(query, udb, use_indexes=use_indexes, batch_size=batch_size)
    assert warm == cold
    assert set(warm.rows) == expected
    assert len(warm) == len(expected)  # possible answers carry no duplicates
