"""Logical plan optimizer.

Implements the classical rewrites the paper relies on PostgreSQL for:

1. **Conjunct splitting + selection pushdown** — σ over AND splits into
   cascaded selections, each pushed as far toward the leaves as its column
   references allow (through projections, renames, distinct, and into the
   matching side of joins/products).  Constant-true conjuncts (the ``TRUE``
   a SQL FROM-list comma joins on) are dropped.
2. **Product-to-join conversion** — a selection over a cartesian product
   whose conjuncts span both sides becomes a join predicate.
3. **Greedy selectivity-based join ordering** — cascades of joins/products
   are flattened into a join graph and re-assembled by repeatedly joining
   the two inputs with the smallest estimated result (greedy operator
   ordering, which may build bushy trees), avoiding cross products when
   any connected pair exists.  This is the "standard selectivity-based
   cost measure" behaviour that Section 3 of the paper reports works well
   for translated U-relation queries.

   What flattens: a join or product, and a ``Project`` directly over one
   that only *reorders* its child's columns — the shape every translated
   join takes (``[[R ⋈ S]]`` re-lists descriptor, tid and value columns).
   What stays a leaf: everything else, in particular a translated *merge*,
   whose ``Project`` drops the right side's ``tid__r`` columns (nested
   merges reuse that suffix, so merge units must stay closed).

   Estimates: equi-pairs of one join combine as if independent, and a ψ
   descriptor-consistency conjunct is priced near 1.  Two inputs that
   meet only through ψ conjuncts are not connected: ψ names descriptor
   columns of every input, so it would make every leaf look joinable to
   every other.
4. **Column pruning** — projections are inserted above join inputs so that
   only columns needed upstream flow through the pipeline (the paper's
   plan P3 of Figure 3 projects away value attributes early).

The entry point is :func:`optimize`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple
from weakref import WeakKeyDictionary

from .algebra import (
    Difference,
    Distinct,
    Extend,
    Join,
    Plan,
    Product,
    Project,
    ProjectAs,
    Rename,
    Scan,
    Select,
    Union,
)
from .expressions import (
    Col,
    Comparison,
    Expression,
    Or,
    columns_of,
    conjunction,
    constant_truth,
    equijoin_pairs,
    split_conjuncts,
)
from .statistics import (
    DEFAULT_SELECTIVITY,
    PSI_SELECTIVITY,
    ColumnStats,
    TableStats,
    equijoin_selectivity,
    selectivity,
)

__all__ = [
    "optimize",
    "push_selections",
    "order_joins",
    "prune_columns",
    "estimate_rows",
    "scan_stats",
    "refresh_statistics",
]


def optimize(plan: Plan) -> Plan:
    """Full rewrite pipeline: pushdown, join ordering, column pruning."""
    original_names = plan.schema.names
    plan = push_selections(plan)
    plan = order_joins(plan)
    plan = push_selections(plan)  # join reordering can expose new pushdowns
    plan = prune_columns(plan, set(original_names))
    if plan.schema.names != original_names:
        plan = Project(plan, original_names)
    return plan


# ======================================================================
# selection pushdown
# ======================================================================
def push_selections(plan: Plan) -> Plan:
    """Split conjunctions and push selections toward the leaves."""
    plan = plan.with_children([push_selections(c) for c in plan.children])
    if isinstance(plan, Select):
        conjuncts = _conjuncts(plan.predicate)
        return _push_conjuncts(plan.child, conjuncts)
    return plan


def _conjuncts(predicate: Expression) -> List[Expression]:
    """The conjuncts of a predicate, without the constant-true ones."""
    return [c for c in split_conjuncts(predicate) if constant_truth(c) is not True]


def _push_conjuncts(child: Plan, conjuncts: Sequence[Expression]) -> Plan:
    """Push each conjunct into ``child`` where possible; wrap the rest."""
    remaining: List[Expression] = []
    for conjunct in conjuncts:
        pushed = _push_one(child, conjunct)
        if pushed is None:
            remaining.append(conjunct)
        else:
            child = pushed
    if remaining:
        return Select(child, conjunction(remaining))
    return child


def _push_one(plan: Plan, conjunct: Expression) -> Optional[Plan]:
    """Try to push one conjunct below ``plan``; return new plan or None."""
    refs = columns_of(conjunct)

    if isinstance(plan, Select):
        inner = _push_one(plan.child, conjunct)
        if inner is not None:
            return Select(inner, plan.predicate)
        return Select(plan.child, conjunction([plan.predicate, conjunct]))

    if isinstance(plan, Project):
        if all(plan.child.schema.has(r) for r in refs):
            return Project(_push_into(plan.child, conjunct), plan.columns)
        return None

    if isinstance(plan, ProjectAs):
        mapping = {new: ref for ref, new in plan.items}
        if all(r in mapping for r in refs):
            translated = _substitute_columns(conjunct, mapping)
            return ProjectAs(_push_into(plan.child, translated), plan.items)
        return None

    if isinstance(plan, Distinct):
        return Distinct(_push_into(plan.child, conjunct))

    if isinstance(plan, Rename):
        inverse = {new: old for old, new in plan.mapping.items()}
        if any(r in inverse or _base_in(inverse, r) for r in refs):
            # renamed columns appear in the predicate: keep it above the rename
            return None
        if all(plan.child.schema.has(r) for r in refs):
            return Rename(_push_into(plan.child, conjunct), plan.mapping)
        return None

    if isinstance(plan, (Join, Product)):
        left, right = plan.children
        left_covers = all(left.schema.has(r) for r in refs)
        right_covers = all(right.schema.has(r) for r in refs)
        if left_covers and not right_covers:
            return plan.with_children([_push_into(left, conjunct), right])
        if right_covers and not left_covers:
            return plan.with_children([left, _push_into(right, conjunct)])
        if left_covers and right_covers:
            # ambiguous (same base name on both sides) — keep above
            return None
        # spans both sides: merge into the join predicate
        if isinstance(plan, Join):
            return Join(left, right, conjunction([plan.predicate, conjunct]))
        return Join(left, right, conjunct)

    if isinstance(plan, Union):
        left, right = plan.children
        if all(plan.schema.has(r) for r in refs):
            # union uses the left schema's names; translate positionally
            try:
                right_conjunct = _translate_positionally(conjunct, plan, right)
            except Exception:
                return None
            return Union(_push_into(left, conjunct), _push_into(right, right_conjunct))
        return None

    return None


def _push_into(plan: Plan, conjunct: Expression) -> Plan:
    """Push a conjunct into a plan, wrapping with Select if it won't go lower."""
    pushed = _push_one(plan, conjunct)
    if pushed is not None:
        return pushed
    return Select(plan, conjunct)


def _base_in(mapping: Dict[str, str], reference: str) -> bool:
    base = reference.split(".", 1)[-1]
    return any(key.split(".", 1)[-1] == base for key in mapping)


def _translate_positionally(conjunct: Expression, union_plan: Plan, right: Plan) -> Expression:
    """Rewrite column refs of a conjunct from the union's (left) names to the
    right child's names by position."""
    left_names = union_plan.schema.names
    right_names = right.schema.names
    position = {name: i for i, name in enumerate(left_names)}

    def rewrite(expr: Expression) -> Expression:
        if isinstance(expr, Col):
            idx = position.get(expr.name)
            if idx is None:
                idx = position[left_names[union_plan.schema.resolve(expr.name)]]
            return Col(right_names[idx])
        clone = expr.__class__.__new__(expr.__class__)
        for slot in _iter_slots(expr):
            value = getattr(expr, slot)
            if isinstance(value, Expression):
                value = rewrite(value)
            elif isinstance(value, tuple) and value and isinstance(value[0], Expression):
                value = tuple(rewrite(v) for v in value)
            object.__setattr__(clone, slot, value)
        return clone

    return rewrite(conjunct)


def _substitute_columns(conjunct: Expression, mapping: Dict[str, str]) -> Expression:
    """Rewrite column references through an output-name -> input-ref mapping."""
    def rewrite(expr: Expression) -> Expression:
        if isinstance(expr, Col):
            return Col(mapping.get(expr.name, expr.name))
        clone = expr.__class__.__new__(expr.__class__)
        for slot in _iter_slots(expr):
            value = getattr(expr, slot)
            if isinstance(value, Expression):
                value = rewrite(value)
            elif isinstance(value, tuple) and value and isinstance(value[0], Expression):
                value = tuple(rewrite(v) for v in value)
            object.__setattr__(clone, slot, value)
        return clone

    return rewrite(conjunct)


def _iter_slots(expr: Expression):
    for klass in type(expr).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            yield slot


# ======================================================================
# cardinality estimation
# ======================================================================
_stats_cache: Dict[int, TableStats] = {}


def _table_stats(scan: Scan) -> TableStats:
    key = id(scan.relation)
    stats = _stats_cache.get(key)
    if stats is None or stats.relation is not scan.relation:
        stats = TableStats(scan.relation)
        _stats_cache[key] = stats
    return stats


def scan_stats(scan: Scan) -> TableStats:
    """Cached per-table statistics for a base-relation scan.

    Public so the planner's access-path selection shares the optimizer's
    statistics cache when costing candidate index scans.
    """
    return _table_stats(scan)


def refresh_statistics(relation) -> None:
    """Drop cached statistics for a relation (the ``ANALYZE`` analogue).

    A statistics refresh is a catalog mutation for plan-caching purposes:
    cached plans were costed against the old estimates, so the relation's
    plan-cache epoch is bumped — dependent prepared plans are evicted and
    watching catalogs bump their version — and the next planning pass
    recomputes :class:`TableStats` lazily.
    """
    from .plancache import bump_relation

    _stats_cache.pop(id(relation), None)
    bump_relation(relation)


def _column_stats(plan: Plan, reference: str) -> Optional[ColumnStats]:
    """Find stats for a column by descending to the base scan that carries it."""
    if isinstance(plan, Scan):
        if plan.schema.has(reference):
            idx = plan.schema.resolve(reference)
            return _table_stats(plan).column(plan.relation.schema.names[idx])
        return None
    if isinstance(plan, Rename):
        inverse = {new: old for old, new in plan.mapping.items()}
        mapped = inverse.get(reference, reference)
        return _column_stats(plan.child, mapped)
    for child in plan.children:
        if child.schema.has(reference):
            return _column_stats(child, reference)
    return None


#: Memo for :func:`estimate_rows`.  Logical plans are immutable trees, so
#: an estimate never changes once computed; without the memo the planner's
#: per-node estimation is quadratic in plan size.  Weak keys let discarded
#: rewrite candidates (join-order trials) drop out.
_estimate_cache: "WeakKeyDictionary[Plan, float]" = WeakKeyDictionary()


def estimate_rows(plan: Plan) -> float:
    """Estimated output cardinality of a logical plan (memoized)."""
    value = _estimate_cache.get(plan)
    if value is None:
        value = _estimate_rows(plan)
        _estimate_cache[plan] = value
    return value


def _estimate_rows(plan: Plan) -> float:
    if isinstance(plan, Scan):
        return float(len(plan.relation))
    if isinstance(plan, Select):
        stats = _PlanStats(plan.child)
        return max(estimate_rows(plan.child) * selectivity(plan.predicate, stats), 0.1)
    if isinstance(plan, (Project, ProjectAs, Rename, Extend)):
        return estimate_rows(plan.children[0])
    if isinstance(plan, Distinct):
        return max(estimate_rows(plan.children[0]) * 0.9, 0.1)
    if isinstance(plan, Join):
        return _estimate_join(plan)
    if isinstance(plan, Product):
        left, right = plan.children
        return estimate_rows(left) * estimate_rows(right)
    if isinstance(plan, Union):
        left, right = plan.children
        return estimate_rows(left) + estimate_rows(right)
    if isinstance(plan, Difference):
        return estimate_rows(plan.children[0])
    from .algebra import ConfCompute as _ConfCompute
    from .algebra import SemiJoin as _SemiJoin

    if isinstance(plan, _SemiJoin):
        return max(estimate_rows(plan.children[0]) * 0.5, 0.1)
    if isinstance(plan, _ConfCompute):
        # one output row per distinct value tuple of the input U-relation
        return max(estimate_rows(plan.children[0]) * 0.5, 1.0)
    return 1000.0


def _estimate_join(plan: Join) -> float:
    left, right = plan.children
    left_rows = estimate_rows(left)
    right_rows = estimate_rows(right)
    pairs, residual = equijoin_pairs(plan.predicate, left.schema, right.schema)
    estimate = left_rows * right_rows
    for l, r in pairs:
        estimate *= equijoin_selectivity(
            left_rows, right_rows, _column_stats(left, l), _column_stats(right, r)
        )
    for conjunct in residual:
        estimate *= _residual_selectivity(conjunct)
    return max(estimate, 0.1)


def _residual_selectivity(conjunct: Expression) -> float:
    if _is_psi(conjunct):
        return PSI_SELECTIVITY
    truth = constant_truth(conjunct)
    if truth is not None:
        return 1.0 if truth else 0.0
    return DEFAULT_SELECTIVITY


def _is_psi(conjunct: Expression) -> bool:
    """Is this a ψ conjunct ``(c_i <> c_j) OR (w_i = w_j)`` of a translated join?"""
    if not isinstance(conjunct, Or) or len(conjunct.operands) != 2:
        return False
    differ, agree = conjunct.operands
    return _compares_columns(differ, "<>") and _compares_columns(agree, "=")


def _compares_columns(expression: Expression, op: str) -> bool:
    return (
        isinstance(expression, Comparison)
        and expression.op == op
        and isinstance(expression.left, Col)
        and isinstance(expression.right, Col)
    )


class _PlanStats:
    """A :class:`TableStats`-compatible view resolving refs through a plan.

    ``Select`` predicates routinely reference alias-qualified names
    ("o.orderdate") introduced by renames above the base scan; the base
    relation's :class:`TableStats` only knows base names, so a direct
    lookup missed and selectivity fell back to defaults.  Resolving by
    *position* through the rename chain (what :func:`_column_stats` does)
    recovers the real column statistics, keeping Select estimates sharp
    under aliases — which is what orders joins well.
    """

    __slots__ = ("plan",)

    def __init__(self, plan: Plan):
        self.plan = plan

    def column(self, reference: str) -> Optional[ColumnStats]:
        return _column_stats(self.plan, reference)


# ======================================================================
# join ordering
# ======================================================================
def order_joins(plan: Plan) -> Plan:
    """Flatten join cascades and re-assemble them greedily by cardinality."""
    if isinstance(plan, (Join, Product)):
        leaves, predicates = _flatten_joins(plan)
        if len(leaves) > 2:
            return _greedy_order([order_joins(leaf) for leaf in leaves], predicates)
    return plan.with_children([order_joins(c) for c in plan.children])


def _flatten_joins(plan: Plan) -> Tuple[List[Plan], List[Expression]]:
    """Collect the leaf inputs and all join conjuncts of a join/product tree."""
    leaves: List[Plan] = []
    predicates: List[Expression] = []

    def walk(node: Plan) -> None:
        if isinstance(node, Join):
            predicates.extend(_conjuncts(node.predicate))
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Product):
            walk(node.left)
            walk(node.right)
        elif _reorders_join(node):
            walk(node.child)
        else:
            leaves.append(node)

    walk(plan)
    return leaves, predicates


def _reorders_join(node: Plan) -> bool:
    """Is ``node`` a Project that only permutes the columns of a join below it?"""
    if not isinstance(node, Project) or not isinstance(node.child, (Join, Product)):
        return False
    names = node.child.schema.names
    return len(node.columns) == len(names) and set(node.schema.names) == set(names)


def _greedy_order(leaves: List[Plan], predicates: List[Expression]) -> Plan:
    """Greedy join ordering that avoids cross products when possible.

    Repeatedly joins the two inputs with the smallest estimated result
    (greedy operator ordering), so independent chains such as
    ``n1 ⋈ s`` and ``n2 ⋈ c`` can each form before they meet.  A pair is
    *connected* when a non-ψ conjunct joins it; connected pairs win over
    cross products, and among equals the smaller estimate wins.
    """
    unused = list(predicates)
    parts = sorted(leaves, key=estimate_rows)

    while len(parts) > 1:
        best = None
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                left, right = parts[i], parts[j]
                combined = set(left.schema.names) | set(right.schema.names)
                preds = [
                    p
                    for p in unused
                    if all(_resolvable(combined, r) for r in columns_of(p))
                ]
                trial = (
                    Join(left, right, conjunction(preds))
                    if preds
                    else Product(left, right)
                )
                connected = not all(map(_is_psi, preds))
                rank = (not connected, estimate_rows(trial))
                if best is None or rank < best[0]:
                    best = (rank, i, j, trial, preds)
        _, i, j, trial, preds = best
        parts[i] = trial
        del parts[j]
        for p in preds:
            unused.remove(p)

    current = parts[0]
    if unused:
        current = Select(current, conjunction(unused))
    return current


def _resolvable(names: Set[str], reference: str) -> bool:
    if reference in names:
        return True
    base = reference.split(".", 1)[-1]
    matches = [n for n in names if n.split(".", 1)[-1] == base]
    return len(matches) == 1 and "." not in reference


# ======================================================================
# column pruning
# ======================================================================
def prune_columns(plan: Plan, required: Set[str]) -> Plan:
    """Insert projections so only upstream-needed columns flow through."""
    if isinstance(plan, Project):
        child_required = set()
        for c in plan.columns:
            child_required.add(plan.child.schema.names[plan.child.schema.resolve(c)])
        return Project(prune_columns(plan.child, child_required), plan.columns)

    if isinstance(plan, ProjectAs):
        child_required = set()
        for ref, _new in plan.items:
            child_required.add(plan.child.schema.names[plan.child.schema.resolve(ref)])
        return ProjectAs(prune_columns(plan.child, child_required), plan.items)

    if isinstance(plan, Select):
        child_required = set(required)
        for r in columns_of(plan.predicate):
            child_required.add(plan.child.schema.names[plan.child.schema.resolve(r)])
        return Select(prune_columns(plan.child, child_required), plan.predicate)

    if isinstance(plan, (Join, Product)):
        left, right = plan.children
        needed = set(required)
        if isinstance(plan, Join):
            for r in columns_of(plan.predicate):
                needed.add(plan.schema.names[plan.schema.resolve(r)])
        left_req = {n for n in needed if n in set(left.schema.names)}
        right_req = {n for n in needed if n in set(right.schema.names)}
        new_left = _maybe_project(prune_columns(left, left_req), left_req)
        new_right = _maybe_project(prune_columns(right, right_req), right_req)
        return plan.with_children([new_left, new_right])

    if isinstance(plan, (Distinct, Union, Difference)):
        # these need all columns positionally / semantically
        return plan.with_children(
            [prune_columns(c, set(c.schema.names)) for c in plan.children]
        )

    if isinstance(plan, Rename):
        inverse = {new: old for old, new in plan.mapping.items()}
        child_required = set()
        for name in required:
            old = inverse.get(name, name)
            if plan.child.schema.has(old):
                child_required.add(plan.child.schema.names[plan.child.schema.resolve(old)])
        child_required |= {
            plan.child.schema.names[plan.child.schema.resolve(o)] for o in plan.mapping
        }
        return Rename(prune_columns(plan.child, child_required), plan.mapping)

    return plan


def _maybe_project(plan: Plan, required: Set[str]) -> Plan:
    names = plan.schema.names
    keep = [n for n in names if n in required]
    if not keep:
        keep = names[:1]  # must keep at least one column
    if len(keep) == len(names):
        return plan
    if isinstance(plan, Project):
        return Project(plan.child, [plan.columns[names.index(k)] for k in keep])
    return Project(plan, keep)
