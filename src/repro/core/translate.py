"""The Figure 4 translation ``[[·]]`` — queries on U-relations.

Translates positive relational algebra with ``poss`` and ``merge`` on the
*logical* schema into plain relational algebra plans over the representation
relations (the U-relations and, for certain answers only, the world table).
The translation is size-preserving: a selection becomes a selection, a
projection a projection, a join a join (with the extra ψ condition), merge a
join (α ∧ ψ), and ``poss`` a projection — Theorem 3.5.

Conditions (Figure 4):

* ``α`` — equality of shared tuple-id columns (merge only),
* ``ψ`` — descriptor consistency: for every descriptor pair (c_i, w_i) of
  the left and (c_j, w_j) of the right,
  ``(left.c_i <> right.c_j) OR (left.w_i = right.w_j)``.

A :class:`Translated` object carries the relational plan plus the U-relation
column structure of its output, so results can be wrapped back into
:class:`~repro.core.urelation.URelation` values and fed to further queries.

Automatic merging: a :class:`~repro.core.query.Rel` leaf translates to the
merge of the *minimal* set of vertical partitions covering the attributes
the query actually uses (Example 3.1's rewriting, plus the reduced-database
optimization of Section 3 — single-partition answers need no merge at all).

Precondition (the paper's "we assume that the input database is always
reduced", made precise): the minimal-cover optimization is sound when every
partition tuple is completable in **every** world its descriptor covers —
i.e. each tuple field either is certain or takes a value for every relevant
variable assignment ("total" fields).  Both the paper's extended dbgen and
:mod:`repro.ugen` only produce such databases; for inputs that merely
satisfy the weaker some-world condition, use
:func:`repro.core.equivalences.translate_early`, which always merges all
partitions and needs no precondition.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..relational.algebra import (
    ConfCompute,
    Distinct,
    Extend,
    Join,
    Plan,
    Project,
    ProjectAs,
    Rename,
    Scan,
    Select,
    Union,
)
from ..relational.expressions import (
    Comparison,
    Expression,
    Lit,
    Or,
    col,
    columns_of,
    conjunction,
)
from ..relational.relation import Relation
from .descriptor import descriptor_columns
from .query import (
    Certain,
    Conf,
    Poss,
    Rel,
    UJoin,
    UMerge,
    UProject,
    UQuery,
    USelect,
    UUnion,
)
from .udatabase import UDatabase
from .urelation import URelation, tid_column

__all__ = [
    "Translated",
    "translate",
    "execute_query",
    "explain_query",
    "query_structure_key",
    "query_cache_key",
    "query_fingerprint",
    "psi_condition",
    "alpha_condition",
]


class Translated:
    """A translated query: a relational plan + U-relation column structure."""

    def __init__(
        self,
        plan: Plan,
        d_width: int,
        tid_names: Sequence[str],
        value_names: Sequence[str],
    ):
        self.plan = plan
        self.d_width = d_width
        self.tid_names: Tuple[str, ...] = tuple(tid_names)
        self.value_names: Tuple[str, ...] = tuple(value_names)

    def canonical_names(self) -> List[str]:
        return descriptor_columns(self.d_width) + list(self.tid_names) + list(self.value_names)

    def __repr__(self) -> str:
        return (
            f"Translated(d_width={self.d_width}, tids={list(self.tid_names)}, "
            f"values={list(self.value_names)})"
        )


# ----------------------------------------------------------------------
# the α and ψ conditions
# ----------------------------------------------------------------------
def psi_condition(
    left_width: int, right_width: int, right_offset: int
) -> Optional[Expression]:
    """The ψ consistency condition between two descriptor encodings.

    ``right_offset`` is the renumbering shift applied to the right operand's
    descriptor columns before the join (its ``c1`` became ``c{offset+1}``).
    """
    clauses: List[Expression] = []
    for i in range(1, left_width + 1):
        for j in range(right_offset + 1, right_offset + right_width + 1):
            clauses.append(
                Or(
                    Comparison("<>", col(f"c{i}"), col(f"c{j}")),
                    Comparison("=", col(f"w{i}"), col(f"w{j}")),
                )
            )
    return conjunction(clauses) if clauses else None


def alpha_condition(shared_tids: Sequence[str], right_suffix: str) -> Optional[Expression]:
    """The α condition: equality of shared (renamed-right) tuple-id columns."""
    clauses = [
        Comparison("=", col(t), col(t + right_suffix)) for t in shared_tids
    ]
    return conjunction(clauses) if clauses else None


# ----------------------------------------------------------------------
# translation
# ----------------------------------------------------------------------
def translate(query: UQuery, udb: UDatabase) -> Translated:
    """Translate a logical query (without top-level poss/certain).

    Uses the default late-materialization strategy: the needed-attribute set
    is seeded from the query's own output attributes, so relation leaves
    merge in only the partitions the query actually touches.
    """
    translator = _Translator(udb)
    needed = set(translator.attributes_of(query))
    return translator.translate(query, needed)


class _Translator:
    """Stateful translation context (attribute binding + needed-set logic)."""

    def __init__(self, udb: UDatabase, merge_all: bool = False):
        self.udb = udb
        #: When True, every Rel leaf reconstructs its relation from *all*
        #: partitions (the naive plan P1 of Figure 3); when False, only the
        #: minimal partition cover of the needed attributes is merged in.
        self.merge_all = merge_all

    # -- attribute binding --------------------------------------------
    def attributes_of(self, query: UQuery) -> Tuple[str, ...]:
        """Logical output attributes of a subquery, with aliasing applied."""
        if isinstance(query, Rel):
            schema = self.udb.logical_schema(query.name)
            return tuple(query.qualified(a) for a in schema.attributes)
        if isinstance(query, (USelect, Poss, Certain)):
            return self.attributes_of(query.children[0])
        if isinstance(query, UProject):
            child_attrs = self.attributes_of(query.child)
            return tuple(_resolve_ref(r, child_attrs) for r in query.attributes)
        if isinstance(query, UJoin):
            return self.attributes_of(query.left) + self.attributes_of(query.right)
        if isinstance(query, UUnion):
            return self.attributes_of(query.left)
        if isinstance(query, UMerge):
            left = self.attributes_of(query.left)
            right = self.attributes_of(query.right)
            return tuple(list(left) + [a for a in right if a not in set(left)])
        raise TypeError(f"unknown query node {type(query).__name__}")

    # -- main recursion -------------------------------------------------
    def translate(self, query: UQuery, needed: Optional[Set[str]]) -> Translated:
        if isinstance(query, Rel):
            return self._translate_rel(query, needed)
        if isinstance(query, USelect):
            return self._translate_select(query, needed)
        if isinstance(query, UProject):
            return self._translate_project(query)
        if isinstance(query, UJoin):
            return self._translate_join(query, needed)
        if isinstance(query, UMerge):
            return self._translate_merge(query, needed)
        if isinstance(query, UUnion):
            return self._translate_union(query, needed)
        if isinstance(query, (Poss, Certain)):
            raise ValueError(
                "poss/certain must be at the top level; use execute_query"
            )
        raise TypeError(f"unknown query node {type(query).__name__}")

    def _translate_rel(self, query: Rel, needed: Optional[Set[str]]) -> Translated:
        schema = self.udb.logical_schema(query.name)
        attrs = [query.qualified(a) for a in schema.attributes]
        if needed is None or self.merge_all:
            wanted = list(attrs)
        else:
            wanted = [a for a in attrs if _needed_matches(a, needed)]
            if not wanted:
                wanted = attrs[:1]  # keep the relation observable
        # choose the minimal partition cover (greedy set cover)
        base_wanted = {_base_name(a) for a in wanted}
        partitions = self.udb.partitions(query.name)
        chosen = _cover(partitions, base_wanted)
        translated: Optional[Translated] = None
        for part in chosen:
            unit = self._scan_partition(part, query)
            translated = unit if translated is None else self._merge(translated, unit)
        assert translated is not None
        return translated

    def _scan_partition(self, part: URelation, query: Rel) -> Translated:
        label = f"u_{query.name}_" + "_".join(part.value_names)
        plan: Plan = Scan(part.relation, name=label)
        tid_old = tid_column(query.name)
        tid_new = tid_column(query.name, query.alias)
        mapping: Dict[str, str] = {}
        if query.alias:
            if tid_new != tid_old:
                mapping[tid_old] = tid_new
            for a in part.value_names:
                mapping[a] = query.qualified(a)
        if mapping:
            plan = Rename(plan, mapping)
        values = tuple(query.qualified(a) for a in part.value_names)
        return Translated(plan, part.d_width, (tid_new,), values)

    def _translate_select(self, query: USelect, needed: Optional[Set[str]]) -> Translated:
        child_needed = None
        if needed is not None:
            child_needed = set(needed) | set(columns_of(query.predicate))
        child = self.translate(query.child, child_needed)
        predicate = _qualify_predicate(query.predicate, child.value_names)
        return Translated(
            Select(child.plan, predicate), child.d_width, child.tid_names, child.value_names
        )

    def _translate_project(self, query: UProject) -> Translated:
        child_attrs = self.attributes_of(query.child)
        resolved = [_resolve_ref(r, child_attrs) for r in query.attributes]
        child = self.translate(query.child, set(resolved))
        keep = (
            descriptor_columns(child.d_width)
            + list(child.tid_names)
            + [_resolve_ref(r, child.value_names) for r in query.attributes]
        )
        return Translated(
            Project(child.plan, keep),
            child.d_width,
            child.tid_names,
            tuple(_resolve_ref(r, child.value_names) for r in query.attributes),
        )

    def _translate_join(self, query: UJoin, needed: Optional[Set[str]]) -> Translated:
        pred_refs = set(columns_of(query.predicate))
        left_attrs = self.attributes_of(query.left)
        right_attrs = self.attributes_of(query.right)
        left_needed, right_needed = None, None
        if needed is not None:
            wanted = needed | pred_refs
            left_needed = {r for r in wanted if _matches_any(r, left_attrs)}
            right_needed = {r for r in wanted if _matches_any(r, right_attrs)}
        else:
            left_needed = None
            right_needed = None
        left = self.translate(query.left, left_needed)
        right = self.translate(query.right, right_needed)
        if set(left.tid_names) & set(right.tid_names):
            raise ValueError(
                "join operands share tuple-id columns "
                f"{sorted(set(left.tid_names) & set(right.tid_names))}; "
                "alias one side (self-joins require aliases)"
            )
        if set(left.value_names) & set(right.value_names):
            raise ValueError(
                "join operands share value attributes "
                f"{sorted(set(left.value_names) & set(right.value_names))}; "
                "alias the relations to disambiguate"
            )
        predicate = _qualify_predicate(
            query.predicate, left.value_names + right.value_names
        )
        return self._combine(left, right, alpha=None, extra=predicate)

    def _translate_merge(self, query: UMerge, needed: Optional[Set[str]]) -> Translated:
        left_needed, right_needed = None, None
        if needed is not None:
            left_attrs = self.attributes_of(query.left)
            right_attrs = self.attributes_of(query.right)
            left_needed = {r for r in needed if _matches_any(r, left_attrs)}
            right_needed = {r for r in needed if _matches_any(r, right_attrs)}
        left = self.translate(query.left, left_needed)
        right = self.translate(query.right, right_needed)
        return self._merge(left, right)

    def _merge(self, left: Translated, right: Translated) -> Translated:
        shared = [t for t in left.tid_names if t in set(right.tid_names)]
        if not shared:
            raise ValueError(
                f"merge requires shared tuple ids; got {list(left.tid_names)} "
                f"vs {list(right.tid_names)}"
            )
        return self._combine(left, right, alpha=shared, extra=None)

    def _combine(
        self,
        left: Translated,
        right: Translated,
        alpha: Optional[List[str]],
        extra: Optional[Expression],
    ) -> Translated:
        """Shared machinery of join (α empty) and merge (α on shared tids)."""
        suffix = "__r"
        offset = left.d_width
        # rename the right side's descriptor columns to continue numbering,
        # and suffix any colliding tid / value columns
        mapping: Dict[str, str] = {}
        for i in range(1, right.d_width + 1):
            mapping[f"c{i}"] = f"c{offset + i}"
            mapping[f"w{i}"] = f"w{offset + i}"
        shared_tids = alpha or []
        for t in shared_tids:
            mapping[t] = t + suffix
        shared_values = [v for v in right.value_names if v in set(left.value_names)]
        for v in shared_values:
            mapping[v] = v + suffix
        right_plan: Plan = Rename(right.plan, mapping)

        conditions: List[Expression] = []
        psi = psi_condition(left.d_width, right.d_width, offset)
        alpha_expr = alpha_condition(shared_tids, suffix)
        if alpha_expr is not None and shared_tids:
            conditions.append(alpha_expr)
        if psi is not None:
            conditions.append(psi)
        if extra is not None:
            conditions.append(extra)
        joined: Plan = Join(left.plan, right_plan, conjunction(conditions))

        d_width = left.d_width + right.d_width
        tid_names = list(left.tid_names) + [
            t for t in right.tid_names if t not in set(shared_tids)
        ]
        value_names = list(left.value_names) + [
            v for v in right.value_names if v not in set(shared_values)
        ]
        keep = descriptor_columns(d_width) + tid_names + value_names
        plan = Project(joined, keep)
        return Translated(plan, d_width, tid_names, value_names)

    def _translate_union(self, query: UUnion, needed: Optional[Set[str]]) -> Translated:
        left_attrs = self.attributes_of(query.left)
        right_attrs = self.attributes_of(query.right)
        if len(left_attrs) != len(right_attrs):
            raise ValueError(
                f"union arity mismatch: {list(left_attrs)} vs {list(right_attrs)}"
            )
        # union output uses the left names; need all columns positionally
        left = self.translate(query.left, None)
        right = self.translate(query.right, None)
        width = max(left.d_width, right.d_width)
        tids = list(left.tid_names) + [
            t for t in right.tid_names if t not in set(left.tid_names)
        ]
        left_plan = _pad_branch(left, width, tids, list(left.value_names))
        # the right branch's value columns are renamed positionally to the left's
        right_plan = _pad_branch(
            right, width, tids, list(left.value_names), rename_from=list(right.value_names)
        )
        plan = Union(left_plan, right_plan)
        return Translated(plan, width, tids, left.value_names)


# ----------------------------------------------------------------------
# union padding
# ----------------------------------------------------------------------
def _pad_branch(
    branch: Translated,
    width: int,
    tids: List[str],
    value_names: List[str],
    rename_from: Optional[List[str]] = None,
) -> Plan:
    """Bring one union branch to the common (width, tids, values) shape.

    Descriptors are pumped by duplicating the first pair; missing tuple-id
    columns are added as NULL columns (the paper's "new empty columns").
    """
    plan = branch.plan
    missing_tids = [t for t in tids if t not in set(branch.tid_names)]
    if missing_tids:
        plan = Extend(plan, [(t, Lit(None)) for t in missing_tids])
    items: List[Tuple[str, str]] = []
    for i in range(1, width + 1):
        src = i if i <= branch.d_width else 1  # pump pair 1
        items.append((f"c{src}", f"c{i}"))
        items.append((f"w{src}", f"w{i}"))
    for t in tids:
        items.append((t, t))
    sources = rename_from if rename_from is not None else value_names
    for src, dst in zip(sources, value_names):
        items.append((src, dst))
    return ProjectAs(plan, items)


# ----------------------------------------------------------------------
# normalized query keys (for the prepared-plan cache)
# ----------------------------------------------------------------------
def query_structure_key(query: UQuery) -> Tuple:
    """A hashable key identifying a logical query tree up to structure.

    Relation leaves key by (name, alias) — the owning
    :class:`~repro.core.udatabase.UDatabase` is part of the cache key, so
    names resolve identically on every lookup — and predicates use
    :func:`~repro.relational.expressions.structural_key`, under which
    ``$n`` parameter slots key by slot (not value): every binding of a
    prepared query shares one cached plan.  Raises ``TypeError`` for
    unknown node or expression shapes, which callers treat as "plan
    uncached".
    """
    from ..relational.expressions import structural_key

    if isinstance(query, Rel):
        return ("rel", query.name, query.alias)
    if isinstance(query, USelect):
        return (
            "uselect",
            query_structure_key(query.child),
            structural_key(query.predicate),
        )
    if isinstance(query, UProject):
        return ("uproject", query_structure_key(query.child), query.attributes)
    if isinstance(query, UJoin):
        return (
            "ujoin",
            query_structure_key(query.left),
            query_structure_key(query.right),
            structural_key(query.predicate),
        )
    if isinstance(query, UUnion):
        return (
            "uunion",
            query_structure_key(query.left),
            query_structure_key(query.right),
        )
    if isinstance(query, UMerge):
        return (
            "umerge",
            query_structure_key(query.left),
            query_structure_key(query.right),
        )
    if isinstance(query, Poss):
        return ("poss", query_structure_key(query.child))
    if isinstance(query, Certain):
        return ("certain", query_structure_key(query.child))
    if isinstance(query, Conf):
        return (
            "conf",
            query_structure_key(query.child),
            query.method,
            query.epsilon,
            query.delta,
            query.seed,
        )
    raise TypeError(f"no plan-cache key for {type(query).__name__}")


# ----------------------------------------------------------------------
# workload fingerprints (for the obs workload history)
# ----------------------------------------------------------------------
def _fingerprint_expression_key(expression) -> Tuple:
    """Like :func:`~repro.relational.expressions.structural_key`, but with
    literal values and ``$n`` parameter identity erased: ``x = 5``,
    ``x = 7``, and ``x = $1`` all key identically.  Raises ``TypeError``
    for unknown expression shapes (callers treat as "no fingerprint").
    """
    from ..relational.expressions import (
        And,
        Arithmetic,
        Between,
        Col,
        Comparison,
        InList,
        IsNull,
        Not,
        Or,
        Param,
    )

    e = expression
    if isinstance(e, Col):
        return ("col", e.name)
    if isinstance(e, (Lit, Param)):
        return ("?",)
    if isinstance(e, Comparison):
        return (
            "cmp",
            e.op,
            _fingerprint_expression_key(e.left),
            _fingerprint_expression_key(e.right),
        )
    if isinstance(e, Arithmetic):
        return (
            "arith",
            e.op,
            _fingerprint_expression_key(e.left),
            _fingerprint_expression_key(e.right),
        )
    if isinstance(e, And):
        return ("and",) + tuple(_fingerprint_expression_key(op) for op in e.operands)
    if isinstance(e, Or):
        return ("or",) + tuple(_fingerprint_expression_key(op) for op in e.operands)
    if isinstance(e, Not):
        return ("not", _fingerprint_expression_key(e.operand))
    if isinstance(e, IsNull):
        return ("isnull", _fingerprint_expression_key(e.operand))
    if isinstance(e, InList):
        return ("in", _fingerprint_expression_key(e.operand), "?")
    if isinstance(e, Between):
        return ("between", _fingerprint_expression_key(e.operand), "?", "?")
    raise TypeError(f"no fingerprint for {type(e).__name__}")


def _fingerprint_query_key(query: UQuery) -> Tuple:
    """The normalized structural key a fingerprint digests.

    Mirrors :func:`query_structure_key`, with predicates normalized by
    :func:`_fingerprint_expression_key` and confidence knobs
    (``epsilon``/``delta``/``seed``) treated as bindings.
    """
    if isinstance(query, Rel):
        return ("rel", query.name, query.alias)
    if isinstance(query, USelect):
        return (
            "uselect",
            _fingerprint_query_key(query.child),
            _fingerprint_expression_key(query.predicate),
        )
    if isinstance(query, UProject):
        return ("uproject", _fingerprint_query_key(query.child), query.attributes)
    if isinstance(query, UJoin):
        return (
            "ujoin",
            _fingerprint_query_key(query.left),
            _fingerprint_query_key(query.right),
            _fingerprint_expression_key(query.predicate),
        )
    if isinstance(query, (UUnion, UMerge)):
        tag = "uunion" if isinstance(query, UUnion) else "umerge"
        return (
            tag,
            _fingerprint_query_key(query.left),
            _fingerprint_query_key(query.right),
        )
    if isinstance(query, Poss):
        return ("poss", _fingerprint_query_key(query.child))
    if isinstance(query, Certain):
        return ("certain", _fingerprint_query_key(query.child))
    if isinstance(query, Conf):
        return ("conf", _fingerprint_query_key(query.child), query.method)
    raise TypeError(f"no fingerprint for {type(query).__name__}")


def key_digest(key) -> str:
    """A short stable hex digest of a (repr-stable) key tuple."""
    import hashlib

    return hashlib.blake2b(repr(key).encode(), digest_size=8).hexdigest()


def query_fingerprint(query: UQuery) -> Optional[str]:
    """The workload fingerprint of a logical query tree, or ``None``.

    Stable across literal values and ``$n`` bindings, stable across
    processes (no object identity involved), computed once per plan-cache
    entry and threaded through sessions, the worker pool, and slowlog
    entries.  ``None`` means the shape is unfingerprintable (an unknown
    node or expression subclass) — such queries simply stay out of the
    workload history.
    """
    try:
        return key_digest(_fingerprint_query_key(query))
    except TypeError:
        return None


def _indexable_shape(conjunct) -> Optional[Tuple[str, str]]:
    """``(column, op)`` when a conjunct has an index-servable shape.

    Mirrors the planner's ``_classify_conjuncts``: a column compared to a
    literal or parameter with ``= < <= > >=``, ``BETWEEN``, or ``IN``.
    """
    from ..relational.expressions import Between, Col, InList, Param

    if isinstance(conjunct, Comparison) and conjunct.op in ("=", "<", "<=", ">", ">="):
        left, right = conjunct.left, conjunct.right
        if isinstance(left, Col) and isinstance(right, (Lit, Param)):
            return (left.name, conjunct.op)
        if isinstance(right, Col) and isinstance(left, (Lit, Param)):
            flipped = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
            return (right.name, flipped[conjunct.op])
    if isinstance(conjunct, Between):
        if isinstance(conjunct.operand, Col):
            return (conjunct.operand.name, "between")
    if isinstance(conjunct, InList) and isinstance(conjunct.operand, Col):
        return (conjunct.operand.name, "in")
    return None


def _scans_under(plan) -> List:
    out = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            out.append(node)
        else:
            stack.extend(node.children)
    return out


def _attribute_column(scans, reference: str) -> Optional[Tuple[str, str]]:
    """``(relation_name, base_column)`` of the scan a reference resolves on."""
    for scan in scans:
        try:
            position = scan.schema.resolve(reference)
        except Exception:
            continue
        return (scan.name, scan.relation.schema.names[position])
    return None


def _plan_predicates(plan) -> List[Tuple[str, str, str]]:
    """The ``(relation, column, op)`` shapes the planner saw in a plan.

    Walks the optimized logical plan: selection conjuncts in indexable
    shapes attribute to the representation relation (the ``u_*``
    partition) whose scan schema resolves the column — exactly the
    relations ``CREATE INDEX`` addresses — and join equi-conjuncts
    attribute each side to its input subtree.
    """
    from ..relational.algebra import SemiJoin
    from ..relational.expressions import Col, split_conjuncts

    out: List[Tuple[str, str, str]] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Select):
            scans = _scans_under(node.child)
            for conjunct in split_conjuncts(node.predicate):
                shape = _indexable_shape(conjunct)
                if shape is None:
                    continue
                owner = _attribute_column(scans, shape[0])
                if owner is not None:
                    out.append((owner[0], owner[1], shape[1]))
        elif isinstance(node, (Join, SemiJoin)):
            sides = (_scans_under(node.left), _scans_under(node.right))
            for conjunct in split_conjuncts(node.predicate):
                if (
                    isinstance(conjunct, Comparison)
                    and conjunct.op == "="
                    and isinstance(conjunct.left, Col)
                    and isinstance(conjunct.right, Col)
                ):
                    for ref in (conjunct.left.name, conjunct.right.name):
                        for scans in sides:
                            owner = _attribute_column(scans, ref)
                            if owner is not None:
                                out.append((owner[0], owner[1], "="))
                                break
        stack.extend(node.children)
    # dedupe, stable order
    return sorted(set(out))


#: Physical operator -> access-path label for the workload history.
_ACCESS_PATH_LABELS = {
    "SeqScan": "seq_scan",
    "IndexScan": "index_scan",
    "IndexNestedLoopJoin": "index_join",
    "HashJoin": "hash_join",
    "MergeJoin": "merge_join",
    "NestedLoopJoin": "nested_loop",
}


def _physical_access_paths(physical) -> Dict[str, int]:
    """Counts of index-vs-scan (and join) operators in a physical tree."""
    counts: Dict[str, int] = {}
    stack = [physical]
    while stack:
        node = stack.pop()
        label = _ACCESS_PATH_LABELS.get(type(node).__name__)
        if label is not None:
            counts[label] = counts.get(label, 0) + 1
        stack.extend(node.children)
    return counts


def _workload_profile(query: UQuery, plan, physical, key, cost_class: str):
    """The plan-time workload shape that rides a plan-cache payload.

    Computed once at plan-cache-entry creation; every later execution of
    the cached plan folds this (plus its per-run numbers) into the
    workload history with one dict merge.  ``None`` when the query has no
    fingerprint.
    """
    fingerprint = query_fingerprint(query)
    if fingerprint is None:
        return None
    scans = _scans_under(plan)
    return {
        "fingerprint": fingerprint,
        "plan_key": key_digest(key) if key is not None else None,
        "cost_class": cost_class,
        "relations": tuple(sorted({scan.name for scan in scans})),
        "predicates": tuple(_plan_predicates(plan)),
        "access_paths": _physical_access_paths(physical),
    }


def query_cache_key(
    query: UQuery,
    udb: UDatabase,
    optimize: bool = True,
    prefer_merge_join: bool = False,
    use_indexes: bool = True,
):
    """The prepared-plan cache key this query would plan under, or None.

    ``None`` means the query shape is uncacheable (an unknown node or
    expression subclass).  The serving layer's admission controller uses
    this to peek at a request's cached cost class *before* admitting it —
    building the key costs a tree walk, never a translation.
    """
    from ..relational.plancache import build_key

    return build_key(
        lambda: (
            "uquery",
            id(udb),
            query_structure_key(query),
            optimize,
            prefer_merge_join,
            use_indexes,
        )
    )


def _cached_physical(
    query: UQuery,
    udb: UDatabase,
    optimize: bool,
    prefer_merge_join: bool,
    use_indexes: bool,
):
    """The fully planned physical tree for a logical query, via the cache.

    Returns ``((physical, wrap, profile), was_cached, key)`` where
    ``wrap`` is ``None`` for a top-level ``Poss`` (the plan's output is
    the answer relation) and otherwise the ``(d_width, tid_names,
    value_names, canonical)`` U-relation column structure needed to wrap
    the result, and ``profile`` is the plan-time workload shape
    (fingerprint, predicate columns, access paths — see
    :func:`_workload_profile`; ``None`` for unfingerprintable queries).

    A hit skips translation, optimization, and physical planning — the
    repeated-query path is executor-only.  The cache key is the normalized
    query structure, the owning database, and every knob that shapes the
    plan.  Invalidation is exact: any catalog
    mutation of a relation the plan scans evicts the entry (see
    :mod:`repro.relational.plancache`).  Entries record planning time
    (the eviction weight) and the plan's admission cost class.
    """
    import time

    from ..obs import span as obs_span
    from ..relational.optimizer import optimize as optimize_plan
    from ..relational.plancache import (
        cache_lookup,
        cache_store,
        cost_class_of,
        plan_relations,
    )
    from ..relational.planner import plan_physical

    key = query_cache_key(query, udb, optimize, prefer_merge_join, use_indexes)
    # captured before translation resolves any relation: the store below
    # only commits if no catalog *swap* landed in between (see cache_store).
    # Identity, not version: this planning's own lazy index builds bump the
    # version in place without making the plan stale, and must still store
    catalog_before = udb.catalog_identity()
    with obs_span("plan") as sp:
        cached = cache_lookup(key)
        if cached is not None:
            sp.set(cached=True)
            return cached, True, key
        sp.set(cached=False)
        started = time.perf_counter()
        conf: Optional[Conf] = None
        if isinstance(query, Poss):
            inner = translate(query.child, udb)
            plan: Plan = Distinct(Project(inner.plan, list(inner.value_names)))
            wrap = None
        elif isinstance(query, Conf):
            conf = query
            inner = translate(query.child, udb)
            plan = inner.plan
            wrap = None
        else:
            inner = translate(query, udb)
            plan = inner.plan
            wrap = (
                inner.d_width,
                inner.tid_names,
                inner.value_names,
                inner.canonical_names(),
            )
        deps = plan_relations(plan)
        if optimize:
            plan = optimize_plan(plan)
        if conf is not None:
            # inserted above the *optimized* child: the rewrite rules never
            # see (and could not soundly move through) a confidence
            # computation, while the child still gets the full optimizer.
            # Positions stay canonical — optimize() re-projects to the
            # original column order.
            plan = ConfCompute(
                plan,
                inner.d_width,
                len(inner.tid_names),
                list(inner.value_names),
                udb.world_table,
                conf.method,
                conf.epsilon,
                conf.delta,
                conf.seed,
            )
        physical = plan_physical(
            plan, prefer_merge_join=prefer_merge_join, use_indexes=use_indexes
        )
        cost_class = cost_class_of(physical)
        profile = _workload_profile(query, plan, physical, key, cost_class)
        payload = (physical, wrap, profile)
        # pin the query tree (it holds any $n parameter stores) and the udb
        # (id-keyed owners must outlive their entries)
        cache_store(
            key,
            payload,
            deps,
            pins=(udb, query),
            cost_class=cost_class,
            plan_cost=time.perf_counter() - started,
            guard=lambda: udb.catalog_identity() == catalog_before,
            fingerprint=profile["fingerprint"] if profile else None,
        )
    return payload, False, key


# ----------------------------------------------------------------------
# execution entry point
# ----------------------------------------------------------------------
def execute_query(
    query: UQuery,
    udb: UDatabase,
    optimize: bool = True,
    prefer_merge_join: bool = False,
    use_indexes: bool = True,
    batch_size: Optional[int] = None,
):
    """Translate and run a query against a U-relational database.

    Returns a plain :class:`Relation` for top-level ``Poss``/``Certain``
    queries, a :class:`~repro.core.probability.ConfidenceAnswer` (a
    relation plus the computation summary) for ``Conf``, and a
    :class:`URelation` otherwise.  ``use_indexes=False`` disables
    access-path selection, which is the benchmarks' pre-index baseline.

    The physical plan is served from the prepared-plan cache when the same
    query structure ran before against an unchanged catalog, so repeated
    executions skip translate → optimize → plan entirely.
    """
    import time

    from ..obs import counter, current_span, current_trace
    from ..obs import workload as obs_workload
    from ..relational.physical import BATCH_SIZE, Confidence, execute
    from ..relational.plancache import cost_class_of, record_observed_rows

    if isinstance(query, Certain):
        from .certain import certain_answers

        inner = execute_query(
            query.child, udb, optimize, prefer_merge_join, use_indexes, batch_size
        )
        return certain_answers(inner, udb.world_table)
    (physical, wrap, profile), was_cached, key = _cached_physical(
        query, udb, optimize, prefer_merge_join, use_indexes
    )
    started = time.perf_counter()
    relation = execute(
        physical, batch_size=BATCH_SIZE if batch_size is None else batch_size
    )
    elapsed = time.perf_counter() - started
    # feed the estimate-vs-actual loop and the trace from the accounting
    # the batch iterators already did — no re-run, no extra measurement
    record_observed_rows(key, physical.estimated_rows, physical.actual_rows)
    cost_class = cost_class_of(physical)
    counter("queries_total", "Queries executed by class and plan-cache outcome").inc(
        cls=cost_class, cached=str(was_cached).lower()
    )
    trace = current_trace()
    if trace is not None:
        trace.root.attrs.setdefault("cost_class", cost_class)
        if profile is not None:
            # threads the fingerprint through the session, the worker
            # pool (the trace is shared across it), and slowlog payloads
            trace.root.attrs.setdefault("fingerprint", profile["fingerprint"])
            trace.root.attrs.setdefault("plan_key", profile["plan_key"])
        current_span().set(operators=physical.actuals())
    obs_workload.record_execution(
        profile,
        seconds=elapsed,
        rows=len(relation),
        cached=was_cached,
        estimated=physical.estimated_rows,
        actual=physical.actual_rows,
        sql=trace.root.attrs.get("sql") if trace is not None else None,
    )
    if wrap is None:
        if isinstance(physical, Confidence) and physical.last_summary is not None:
            from .probability import ConfidenceAnswer

            return ConfidenceAnswer.adopt(relation, physical.last_summary)
        return relation
    d_width, tid_names, value_names, canonical = wrap
    # normalize output column names to the canonical U-relation layout
    if relation.schema.names != canonical:
        relation = Relation(canonical, relation.rows)
    return URelation(relation, d_width, tid_names, value_names)


def explain_query(
    query: UQuery,
    udb: UDatabase,
    optimize: bool = True,
    prefer_merge_join: bool = False,
    use_indexes: bool = True,
    analyze: bool = False,
    trace: bool = False,
):
    """EXPLAIN output for a logical query against a U-relational database.

    A plan served from the prepared-plan cache is marked ``(cached)`` on
    its top line; the explained plan is inserted into the cache, so
    explaining then running plans exactly once.  ``Certain`` queries show
    the plan of their relational core (the Lemma 4.3 pipeline on top is
    not a relational plan).

    ``trace=True`` (with ``analyze=True``) returns ``(text, data)`` where
    ``data`` is the structured span/operator tree from
    :func:`repro.relational.explain.explain_analyze` — the machine-readable
    sibling of the rendered text.
    """
    from ..relational.explain import explain as explain_physical
    from ..relational.explain import explain_analyze
    from ..relational.plancache import mark_cached

    if isinstance(query, Certain):
        return explain_query(
            query.child, udb, optimize, prefer_merge_join, use_indexes, analyze, trace
        )
    (physical, _wrap, _profile), was_cached, _key = _cached_physical(
        query, udb, optimize, prefer_merge_join, use_indexes
    )
    if analyze and trace:
        _result, text, data = explain_analyze(physical, trace=True)
        return (mark_cached(text) if was_cached else text), data
    if analyze:
        _result, text = explain_analyze(physical)
    else:
        text = explain_physical(physical)
    return mark_cached(text) if was_cached else text


# ----------------------------------------------------------------------
# reference resolution helpers
# ----------------------------------------------------------------------
def _base_name(reference: str) -> str:
    return reference.split(".", 1)[-1]


def _resolve_ref(reference: str, available: Sequence[str]) -> str:
    """Resolve a (possibly unqualified) reference among available attributes."""
    if reference in available:
        return reference
    matches = [a for a in available if _base_name(a) == reference]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise KeyError(f"attribute {reference!r} not found among {list(available)}")
    raise KeyError(f"attribute {reference!r} is ambiguous among {list(available)}")


def _matches_any(reference: str, attributes: Sequence[str]) -> bool:
    if reference in attributes:
        return True
    return any(_base_name(a) == reference for a in attributes)


def _needed_matches(attribute: str, needed: Set[str]) -> bool:
    if attribute in needed:
        return True
    return _base_name(attribute) in needed


def _qualify_predicate(predicate: Expression, available: Sequence[str]) -> Expression:
    """Rewrite predicate column refs to the exact available value-column names."""
    from ..relational.expressions import Col

    def rewrite(expr: Expression) -> Expression:
        if isinstance(expr, Col):
            return Col(_resolve_ref(expr.name, available))
        clone = expr.__class__.__new__(expr.__class__)
        for klass in type(expr).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                value = getattr(expr, slot)
                if isinstance(value, Expression):
                    value = rewrite(value)
                elif isinstance(value, tuple) and value and isinstance(value[0], Expression):
                    value = tuple(rewrite(v) for v in value)
                object.__setattr__(clone, slot, value)
        return clone

    return rewrite(predicate)


def _cover(partitions: List[URelation], wanted: Set[str]) -> List[URelation]:
    """Greedy minimal cover of wanted attributes by vertical partitions."""
    remaining = set(wanted)
    chosen: List[URelation] = []
    pool = list(partitions)
    while remaining:
        best = max(pool, key=lambda p: len(remaining & set(p.value_names)), default=None)
        if best is None or not (remaining & set(best.value_names)):
            raise ValueError(f"attributes {sorted(remaining)} not covered by any partition")
        chosen.append(best)
        remaining -= set(best.value_names)
        pool.remove(best)
    if not chosen:
        chosen = [partitions[0]]
    return chosen
