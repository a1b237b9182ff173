"""A naive reference interpreter for logical plans (a test oracle).

:func:`evaluate` runs an :class:`~repro.relational.algebra.Plan` by direct
recursion over the tree, built only from the :class:`Relation` operations
(``select``/``project``/``product``/``union``/``difference``/``rename``/
``distinct``) and row predicates from :meth:`Expression.bind`.  It shares
no code with the planner, the optimizer or the physical operators, so the
property tests can check the executor against it.  Joins are products
followed by selections, semijoins test every right row: quadratic, and
meant for small inputs only.

Bag semantics match the engine: projections, products, joins and unions
keep duplicates; ``Difference`` and ``Distinct`` return each surviving row
once, in first-seen order.
"""

from __future__ import annotations

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
    SemiJoin,
    Union,
)
from .relation import Relation

__all__ = ["evaluate"]


def evaluate(plan: Plan) -> Relation:
    """The relation a logical plan denotes."""
    if isinstance(plan, Scan):
        relation = plan.relation
        return relation.qualify(plan.alias) if plan.alias else relation
    if isinstance(plan, Select):
        child = evaluate(plan.child)
        return child.select(plan.predicate.bind(child.schema))
    if isinstance(plan, Project):
        return evaluate(plan.child).project(plan.columns)
    if isinstance(plan, ProjectAs):
        child = evaluate(plan.child)
        positions = [child.schema.resolve(ref) for ref, _ in plan.items]
        return Relation(plan.schema, [tuple(row[p] for p in positions) for row in child.rows])
    if isinstance(plan, Extend):
        child = evaluate(plan.child)
        fns = [expr.bind(child.schema) for _, expr in plan.items]
        return Relation(plan.schema, [row + tuple(f(row) for f in fns) for row in child.rows])
    if isinstance(plan, (Join, Product)):
        joined = evaluate(plan.left).product(evaluate(plan.right))
        if isinstance(plan, Product):
            return joined
        return joined.select(plan.predicate.bind(joined.schema))
    if isinstance(plan, SemiJoin):
        left, right = evaluate(plan.left), evaluate(plan.right)
        matches = plan.predicate.bind(left.schema.concat(right.schema))
        return left.select(lambda row: any(matches(row + other) for other in right.rows))
    if isinstance(plan, Union):
        return evaluate(plan.left).union(evaluate(plan.right))
    if isinstance(plan, Difference):
        return evaluate(plan.left).difference(evaluate(plan.right)).distinct()
    if isinstance(plan, Distinct):
        return evaluate(plan.child).distinct()
    if isinstance(plan, Rename):
        return evaluate(plan.child).rename(plan.mapping)
    raise TypeError(f"no reference semantics for {type(plan).__name__}")
