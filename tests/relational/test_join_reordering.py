"""Join reordering of translated U-relation plans, one rule at a time.

Each rule of the reordering gets a small golden test both ways — where it
applies and where it must not — in the style of rule-by-rule logical
optimizer test suites:

* the join spine flattens through a ``Project`` that only reorders a
  join's columns, and stops at a merge's ``Project`` that drops columns;
* constant-true conjuncts fold away, constant-false ones stay;
* a comparison of two literals has an exact selectivity;
* a ψ-only pair of inputs is not connected, a real equi-pair is;
* several equi-pairs of one join combine as if independent.

A Hypothesis property then checks whole chains of aliased joins with
``$n`` filters end to end: the optimized, cached plan equals the
reference interpreter and the possible-worlds union, under two bindings
executed one after the other on the same cached plan.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import Poss, Rel, UJoin, UProject, USelect
from repro.core.prepared import PreparedQuery
from repro.core.translate import translate
from repro.relational.algebra import Distinct, Join, Plan, Product, Project, Scan, Select
from repro.relational.expressions import (
    FALSE,
    TRUE,
    Col,
    Comparison,
    Lit,
    Or,
    Param,
    col,
    conjunction,
)
from repro.relational.optimizer import (
    _flatten_joins,
    _greedy_order,
    estimate_rows,
    optimize,
    push_selections,
)
from repro.relational.reference import evaluate
from repro.relational.relation import Relation
from repro.relational.statistics import PSI_SELECTIVITY, selectivity
from tests.conftest import brute_force_poss
from tests.core.test_property_core import udatabases


def scan(alias: str, columns, rows) -> Scan:
    return Scan(Relation([f"{alias}.{c}" for c in columns], rows), alias)


def psi(i: int, j: int):
    return Or(
        Comparison("<>", Col(f"c{i}"), Col(f"c{j}")),
        Comparison("=", Col(f"w{i}"), Col(f"w{j}")),
    )


def shape(plan: Plan) -> str:
    """The join tree under ``plan``, leaves named by alias.

    Single-input nodes above the top join are skipped, and so are
    column-reordering projects inside the tree.  A leaf is named by its
    tuple-id column (``tid_n1`` → ``n1``), else by the alias of its first
    qualified column.
    """
    while not isinstance(plan, (Join, Product)) and len(plan.children) == 1:
        plan = plan.children[0]
    return _tree(plan)


def _tree(plan: Plan) -> str:
    if isinstance(plan, (Join, Product)):
        return f"({_tree(plan.left)} {_tree(plan.right)})"
    if _reorders(plan) is not None:
        return _tree(plan.child)
    names = plan.schema.names
    tids = [n for n in names if n.startswith("tid_")]
    if tids:
        return tids[0][len("tid_"):]
    return next(n for n in names if "." in n).split(".")[0]


def _reorders(plan: Plan):
    if isinstance(plan, Project) and isinstance(plan.child, (Join, Product)):
        if len(plan.columns) == len(plan.child.schema.names):
            return plan
    return None


# ----------------------------------------------------------------------
# flattening
# ----------------------------------------------------------------------
def test_flattens_through_a_reordering_project():
    a = scan("a", ["k"], [(1,)])
    b = scan("b", ["k", "v"], [(1, 2)])
    c = scan("c", ["v"], [(2,)])
    inner = Join(a, b, col("a.k").eq(col("b.k")))
    reordered = Project(inner, ["b.v", "a.k", "b.k"])
    leaves, predicates = _flatten_joins(Join(reordered, c, col("b.v").eq(col("c.v"))))
    assert [_tree(leaf) for leaf in leaves] == ["a", "b", "c"]
    assert [repr(p) for p in predicates] == ["(b.v = c.v)", "(a.k = b.k)"]


def test_stops_at_a_project_that_drops_columns():
    # a translated merge: the right side's tid__r column is projected away
    a = scan("a", ["tid", "k"], [(1, 1)])
    b = Scan(Relation(["tid__r", "b.v"], [(1, 2)]), "b")
    merge = Project(Join(a, b, col("a.tid").eq(col("tid__r"))), ["a.tid", "a.k", "b.v"])
    c = scan("c", ["v"], [(2,)])
    leaves, predicates = _flatten_joins(Join(merge, c, col("b.v").eq(col("c.v"))))
    assert leaves == [merge, c]
    assert [repr(p) for p in predicates] == ["(b.v = c.v)"]


# ----------------------------------------------------------------------
# constant folding
# ----------------------------------------------------------------------
def test_conjunction_drops_constant_true():
    pair = col("a.k").eq(col("b.k"))
    assert conjunction([pair, TRUE]) is pair
    assert conjunction([TRUE, TRUE]) is TRUE
    assert conjunction([Comparison("=", Lit(2), Lit(2))]) is TRUE
    # false and parameter comparisons are not constant-true: they stay
    assert repr(conjunction([pair, FALSE])) == "((a.k = b.k) AND (1 = 0))"
    slot = Comparison("=", Param(0, [1]), Lit(1))
    assert conjunction([slot]) is slot


def test_join_spine_and_selections_drop_constant_true():
    a = scan("a", ["k"], [(1,)])
    b = scan("b", ["k"], [(1,)])
    c = scan("c", ["k"], [(1,)])
    spine = Join(Join(a, b, TRUE), c, Comparison("=", Lit(1), Lit(1)))
    assert _flatten_joins(spine)[1] == []
    assert push_selections(Select(a, TRUE)) is a
    kept = push_selections(Select(a, FALSE))
    assert isinstance(kept, Select) and kept.predicate is FALSE


def test_literal_comparison_selectivity_is_exact():
    assert selectivity(TRUE) == 1.0
    assert selectivity(FALSE) == 0.0
    assert selectivity(Comparison("<", Lit(1), Lit(2))) == 1.0
    assert selectivity(Comparison("=", Lit(None), Lit(None))) == 0.0
    # not constants: a parameter, a column, incomparable literals
    assert selectivity(Comparison("=", Param(0, [1]), Lit(1))) not in (0.0, 1.0)
    assert selectivity(Comparison("<", Lit(1), Lit("a"))) not in (0.0, 1.0)


# ----------------------------------------------------------------------
# ψ-aware estimates and connectivity
# ----------------------------------------------------------------------
def test_psi_is_priced_near_one_and_true_at_one():
    a = scan("a", ["k"], [(i,) for i in range(10)])
    b = Scan(Relation(["c1", "w1"], [("x", 1)] * 4), "b")
    c = Scan(Relation(["c2", "w2"], [("x", 1)] * 5), "c")
    joined = Join(Product(a, b), c, conjunction([psi(1, 2), TRUE]))
    assert estimate_rows(joined) == 10 * 4 * 5 * PSI_SELECTIVITY


def test_equi_pairs_of_one_join_combine_as_independent():
    left = scan("l", ["x", "y"], [(i % 10, i % 4) for i in range(40)])
    right = scan("r", ["x", "y"], [(i % 10, i % 4) for i in range(20)])
    one = Join(left, right, col("l.x").eq(col("r.x")))
    two = Join(left, right, col("l.x").eq(col("r.x")) & col("l.y").eq(col("r.y")))
    assert estimate_rows(one) == 40 * 20 / 10
    assert estimate_rows(two) == 40 * 20 / 10 / 4


def psi_leaves():
    """Three leaves: a small ``a``, a large ``b`` equi-joined to it, and a
    small ``c`` that meets ``a`` only through a ψ conjunct."""
    a = Scan(Relation(["c1", "w1", "a.k"], [("t", 0, i) for i in range(3)]), "a")
    b = scan("b", ["k"], [(i % 3,) for i in range(60)])
    c = Scan(Relation(["c2", "w2", "c.k"], [("t", 0, i) for i in range(2)]), "c")
    return a, b, c


def test_psi_only_pair_is_not_connected():
    a, b, c = psi_leaves()
    # a × c (6 rows) is smaller than a ⋈ b (60 rows), but ψ alone does not
    # connect them: the equi-join comes first
    ordered = _greedy_order([a, b, c], [col("a.k").eq(col("b.k")), psi(1, 2)])
    assert shape(ordered) == "(c (a b))"


def test_equi_pair_connects():
    a, b, c = psi_leaves()
    predicates = [col("a.k").eq(col("b.k")), psi(1, 2), col("a.k").eq(col("c.k"))]
    ordered = _greedy_order([a, b, c], predicates)
    assert shape(ordered) == "((c a) b)"


def test_fig12_q3_joins_each_nation_filter_first():
    from repro.tpch import q3
    from repro.ugen import generate_uncertain

    udb = generate_uncertain(scale=0.0005, seed=42).udb
    inner = translate(q3().child, udb)
    plan = optimize(Distinct(Project(inner.plan, list(inner.value_names))))
    assert shape(plan) == "((n1 s) (((n2 c) o) l))"


# ----------------------------------------------------------------------
# property: aliased join chains with $n filters, executed twice
# ----------------------------------------------------------------------
@st.composite
def join_chains(draw):
    """``poss π(σ(r p0) ⋈ … ⋈ σ(r pN))`` over 3-5 aliases of ``r``.

    Each join has a random equi-predicate to an earlier alias or none
    (a FROM-list comma); some aliases carry an ``a = $n`` filter.  The
    two bindings differ, so a plan that replayed the first binding's rows
    on the second execution would answer wrongly.
    """
    store: list = []
    width = draw(st.integers(min_value=3, max_value=5))
    aliases = [f"p{i}" for i in range(width)]

    def leaf(alias: str):
        rel = Rel("r", alias)
        if draw(st.booleans()):
            slot = Param(len(store), store)
            return USelect(rel, col(f"{alias}.a").eq(slot))
        return rel

    query = leaf(aliases[0])
    for i in range(1, width):
        other = aliases[draw(st.integers(min_value=0, max_value=i - 1))]
        x, y = draw(st.sampled_from("ab")), draw(st.sampled_from("ab"))
        predicate = (
            col(f"{other}.{x}").eq(col(f"{aliases[i]}.{y}"))
            if draw(st.integers(min_value=0, max_value=2))
            else TRUE
        )
        query = UJoin(query, leaf(aliases[i]), predicate)
    outputs = draw(
        st.lists(st.sampled_from(aliases), min_size=1, max_size=2, unique=True)
    )
    query = UProject(query, [f"{alias}.b" for alias in outputs])
    bindings = [(), ()]
    if store:
        bindings = draw(
            st.lists(
                st.tuples(*[st.integers(min_value=0, max_value=3)] * len(store)),
                min_size=2,
                max_size=2,
                unique=True,
            )
        )
    return Poss(query), bindings


@given(udatabases(), join_chains())
@settings(max_examples=40, deadline=None)
def test_reordered_join_chains_answer_every_binding(udb, chain):
    query, bindings = chain
    stmt = PreparedQuery(query, udb)
    inner = translate(query.child, udb)
    unoptimized = Distinct(Project(inner.plan, list(inner.value_names)))
    for params in bindings:
        got = set(stmt.run(*params).rows)
        stmt.bind(params)
        assert got == set(evaluate(unoptimized).rows)
        assert got == brute_force_poss(query.child, udb)
