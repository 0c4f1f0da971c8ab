"""Rule optimization: OptR / OptC (paper Alg 5.4) and differential tests.

Alg 5.4 restricts rule optimization to the *condition*:
``OptR(J) = (triggers(J), OptC(condition(J)), action(J))``.  The paper
leaves OptC's internals open, listing the applicable technique families:

* syntactic manipulation of constraint specifications (Nicolas [14];
  Hsu & Imielinski [11]) — here :func:`opt_c`, a simplification pass;
* differential relations to avoid unnecessary data access (Simon &
  Valduriez [18]; Bernstein et al. [5]; Grefen & Apers [7]) — here
  :func:`differential_programs`, which specializes a *translated* rule
  program per elementary update type so that enforcement touches only the
  tuples the transaction actually changed (``R@plus`` / ``R@minus``);
* semantic manipulation (Qian & Wiederhold [16]) — out of scope, as in the
  paper.

The differential specialization used to be a hand-written pattern table
over eight alarm shapes; it is now one call into the *general* delta-rewrite
transform of :mod:`repro.algebra.delta`, which incrementalizes any
translated check built from selections, projections, joins, semi/antijoins
and set operators — with vacuity ("deleting referers is safe", "adding
targets is safe", triggers on unmentioned relations) falling out of the
transform's emptiness propagation instead of being enumerated.  All of it is
sound under the paper's Def 3.5 assumption that the pre-transaction state is
correct, which is precisely the premise of ``differential=True``.

A vacuous trigger yields an *empty* program: the store simply has nothing to
append for that update type, which is itself a measurable saving (bench E6).

**Transition checks and what still falls back.**  Def 3.5 says nothing about
the null transition, so for a check ``V`` over ``R@old`` the delta is exact
only under a premise of its own: the residue ``V₀ = V[R@old ↦ R]`` must be
empty on the pre-state (see :mod:`repro.algebra.delta`).
:func:`differential_programs` discharges it for the key-joined shape
``trans_c`` emits for "a tuple may not change like this" rules —
``R ⋉_{A=A' ∧ p'} R@old``, its mirror, and the join form, under selections,
projections and renames — when ``p'`` folds to false on the diagonal
``t = t`` (:func:`repro.algebra.optimizer.simplify_predicate` with
``refuting=True``).  The remaining fact, ``A`` unique in the pre-state, is
checked at run time in O(1) against a built index
(:class:`~repro.algebra.statements.DifferentialAlarm`), and when it cannot
be shown — duplicate keys, no built index, a pre-state rebuilt without
indexes — the statement runs today's full check.  Transition checks of any
other shape keep the full program, as do checks reading ``R@plus`` /
``R@minus`` and aggregates over changed inputs; ``SUM``/``AVG`` are cheap
anyway, because the physical layer reads running values.

Beyond the single-``alarm`` programs ``trans_c`` produces, translation
*fallbacks* (:class:`~repro.core.translation.CheckConstraint`) are
specialized too whenever their compiled form decomposes into a pure
conjunction of planned subformulas: pre-state correctness distributes over
``∧`` (every conjunct held before the transaction), so each conjunct's alarm
expression incrementalizes independently.  It does **not** distribute over
``∨`` — a disjunctive constraint may have held via a branch the transaction
just falsified — so disjunctive decompositions conservatively keep the full
check.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.delta import NotIncrementalizable, delta_expression
from repro.algebra.optimizer import simplify_predicate
from repro.algebra.programs import Program
from repro.algebra.statements import Alarm, DifferentialAlarm
from repro.calculus import ast as C
from repro.engine import naming
from repro.engine.types import BOOL, INT, STRING
from repro.errors import UnknownAttributeError


# ---------------------------------------------------------------------------
# OptC: syntactic condition simplification
# ---------------------------------------------------------------------------


def opt_c(condition: C.Formula) -> C.Formula:
    """Simplify a CL condition, preserving semantics.

    Rewrites: double negation, De-Morgan-directed constant elimination,
    ``a => false`` to ``not a``, ``true => a`` to ``a``, and recursive
    descent through quantifiers.
    """
    if isinstance(condition, C.Not):
        inner = opt_c(condition.operand)
        if isinstance(inner, C.Not):
            return inner.operand
        if isinstance(inner, C.Const):
            pass
        return C.Not(inner)
    if isinstance(condition, C.And):
        left = opt_c(condition.left)
        right = opt_c(condition.right)
        if _is_const(left, True):
            return right
        if _is_const(right, True):
            return left
        return C.And(left, right)
    if isinstance(condition, C.Or):
        left = opt_c(condition.left)
        right = opt_c(condition.right)
        if _is_const(left, False):
            return right
        if _is_const(right, False):
            return left
        return C.Or(left, right)
    if isinstance(condition, C.Implies):
        left = opt_c(condition.left)
        right = opt_c(condition.right)
        if _is_const(left, True):
            return right
        if _is_const(right, False):
            return C.Not(left)
        return C.Implies(left, right)
    if isinstance(condition, C.Forall):
        return C.Forall(condition.var, opt_c(condition.body))
    if isinstance(condition, C.Exists):
        return C.Exists(condition.var, opt_c(condition.body))
    if isinstance(condition, C.Compare):
        folded = _fold_comparison(condition)
        return folded if folded is not None else condition
    return condition


def _is_const(node: C.Formula, value: bool) -> bool:
    return (
        isinstance(node, C.Compare)
        and isinstance(node.left, C.Const)
        and isinstance(node.right, C.Const)
        and _compare_consts(node) is value
    )


def _fold_comparison(node: C.Compare) -> Optional[C.Formula]:
    if isinstance(node.left, C.Const) and isinstance(node.right, C.Const):
        return node  # kept as-is; _is_const reads its truth value
    return None


def _compare_consts(node: C.Compare) -> Optional[bool]:
    left, right = node.left.value, node.right.value
    try:
        return {
            "<": left < right,
            "<=": left <= right,
            "=": left == right,
            "!=": left != right,
            ">=": left >= right,
            ">": left > right,
        }[node.op]
    except TypeError:
        return None


def opt_r(rule):
    """Alg 5.4: optimize a rule's condition, keep triggers and action.

    Returns a new :class:`~repro.core.rules.IntegrityRule`.
    """
    from repro.core.rules import IntegrityRule

    return IntegrityRule(
        opt_c(rule.condition),
        action=rule.action,
        triggers=rule.triggers,
        name=rule.name,
    )


# ---------------------------------------------------------------------------
# Differential specialization of translated programs
# ---------------------------------------------------------------------------


def differential_programs(
    rule, translated: Program, db=None
) -> Optional[Dict[tuple, Program]]:
    """Per-trigger differential variants of a translated aborting program.

    Returns ``{trigger_spec: program}`` covering *every* trigger of the rule
    (vacuous triggers map to an empty program), or None when the translated
    program cannot be incrementalized — in which case the caller keeps the
    full-state program for all triggers.

    Each per-trigger program alarms on the general delta rewrite
    (:func:`repro.algebra.delta.delta_expression`) of the translated
    violation expression with exactly that trigger's leaf delta active.  By
    linearity of the delta rules, the union of the matched triggers'
    programs covers the transaction's full delta, and under the
    pre-state-correctness premise (Def 3.5) a non-empty delta is exactly a
    violation of the post-state check.  Checks over ``R@old`` become one
    :class:`~repro.algebra.statements.DifferentialAlarm` per trigger —
    never an empty program, because the full check must still run whenever
    the run-time key premise fails — or None when the null-transition
    premise has no proof for their shape (module docs).

    Two program shapes are specialized: single-``alarm`` programs (the
    output of ``trans_c`` for aborting rules), and — when ``db`` provides
    the schema — single-:class:`~repro.core.translation.CheckConstraint`
    fallbacks whose compiled form is a pure conjunction of planned
    subformulas (see the module docs for why conjunctions are the sound
    boundary).  Compensating actions are left untouched, as the paper leaves
    their analysis out of scope.
    """
    checks = _alarm_checks(translated, db)
    if checks is None:
        return None
    premises = []
    for expr, _message in checks:
        premise = None
        if any(
            naming.split_auxiliary(name)[1] == naming.OLD_SUFFIX
            for name in expr.relations()
        ):
            premise = _null_transition_premise(expr, db)
            if premise is None:
                return None
        premises.append(premise)
    specialized: Dict[tuple, Program] = {}
    for trigger in rule.triggers:
        statements = []
        try:
            for (expr, message), premise in zip(checks, premises):
                variant = delta_expression(expr, frozenset([trigger]))
                if premise is not None:
                    statements.append(
                        DifferentialAlarm(expr, message, variant, premise)
                    )
                elif variant is not None:
                    statements.append(Alarm(variant, message=message))
        except NotIncrementalizable:
            return None
        specialized[trigger] = Program(statements)
    return specialized


def _null_transition_premise(expr: E.Expression, schema) -> Optional[tuple]:
    """The run-time premise under which ``V[R@old ↦ R]`` is empty, or None.

    Recognizes ``V = f(R ⋈/⋉_{A=A' ∧ p'} R@old)`` (either operand order)
    with ``f`` a chain of selections, projections and renames — all map ∅
    to ∅, so an empty core makes an empty ``V₀``.  The core's residue on
    the pre-state pairs rows agreeing on ``A``; with ``A`` a key those are
    diagonal pairs ``(t, t)``, on which ``p'`` — conjoined with the
    selections sitting directly on a semijoin core, which read the same
    row — must fold to false.  Returns ``((R@old, A's 0-based
    positions),)``: the uniqueness fact left to check at run time.
    """
    if schema is None:
        return None
    core = expr
    residue = []
    while isinstance(core, (E.Select, E.Project, E.Rename)):
        if isinstance(core, E.Select):
            residue.append(core.predicate)
        else:
            residue = []  # the selections above read other columns
        core = core.input
    if not isinstance(core, (E.Join, E.SemiJoin)):
        return None
    if not isinstance(core, E.SemiJoin):
        residue = []  # a join's rows are pairs, not rows of the relation
    left, right = core.left, core.right
    if not (isinstance(left, E.RelationRef) and isinstance(right, E.RelationRef)):
        return None
    base = naming.base_of(left.name)
    if {left.name, right.name} != {base, naming.old_name(base)}:
        return None
    relation = schema.relation(base)
    keys: set = set()
    for conjunct in _conjuncts(core.predicate):
        key = _diagonal_key(conjunct, relation)
        if key is None:
            residue.append(conjunct)
        else:
            keys.add(key)
    if not keys or not _exact_domains(residue, relation):
        return None
    diagonal = simplify_predicate(
        _on_diagonal(P.conjoin(*residue), relation), refuting=True
    )
    if not isinstance(diagonal, P.FalsePred):
        return None
    return ((naming.old_name(base), tuple(sorted(keys))),)


def _conjuncts(predicate: P.Predicate) -> list:
    if isinstance(predicate, P.And):
        return _conjuncts(predicate.left) + _conjuncts(predicate.right)
    return [predicate]


def _position(ref: P.ColRef, relation) -> Optional[int]:
    try:
        return relation.position_of(ref.attr) - 1
    except UnknownAttributeError:
        return None


def _diagonal_key(conjunct: P.Predicate, relation) -> Optional[int]:
    """The 0-based position ``a`` of a ``left.a = right.a`` conjunct."""
    if not (
        isinstance(conjunct, P.Comparison)
        and conjunct.op == "="
        and isinstance(conjunct.left, P.ColRef)
        and isinstance(conjunct.right, P.ColRef)
        and {conjunct.left.side, conjunct.right.side} == {"left", "right"}
    ):
        return None
    position = _position(conjunct.left, relation)
    if position is None or position != _position(conjunct.right, relation):
        return None
    return position


def _exact_domains(residue, relation) -> bool:
    """Whether the refuting folds are exact on every column ``residue``
    reads: no floats or ANY (NaN is not equal to itself), and only ints
    under arithmetic (``x − x = 0``)."""
    for predicate in residue:
        for ref, in_arith in _columns(predicate):
            position = _position(ref, relation)
            if position is None:
                return False
            domain = relation.attributes[position].domain
            allowed = (INT, BOOL) if in_arith else (INT, BOOL, STRING)
            if domain not in allowed:
                return False
    return True


def _columns(node, in_arith: bool = False) -> list:
    """``(ColRef, read under arithmetic?)`` for every column ``node`` reads."""
    if isinstance(node, P.ColRef):
        return [(node, in_arith)]
    if not isinstance(node, (P.ScalarExpr, P.Predicate)):
        return []
    in_arith = in_arith or isinstance(node, P.Arith)
    return [
        pair
        for field in dataclasses.fields(node)
        for pair in _columns(getattr(node, field.name), in_arith)
    ]


def _on_diagonal(node, relation):
    """``node`` on a pair ``(t, t)``: both sides read the same row."""
    if isinstance(node, P.ColRef):
        position = _position(node, relation)
        return node if position is None else P.ColRef(position + 1, "left")
    if not isinstance(node, (P.ScalarExpr, P.Predicate)):
        return node
    return dataclasses.replace(
        node,
        **{
            field.name: _on_diagonal(getattr(node, field.name), relation)
            for field in dataclasses.fields(node)
        },
    )


def _alarm_checks(
    translated: Program, db
) -> Optional[List[Tuple[E.Expression, Optional[str]]]]:
    """The ``(violation_expr, message)`` checks a translated program makes.

    None when the program is not a recognized check shape (multi-statement
    programs, compensating actions, fallbacks with disjunctive or naive
    residue).
    """
    if len(translated.statements) != 1:
        return None
    statement = translated.statements[0]
    if isinstance(statement, Alarm):
        return [(statement.expr, statement.message)]
    from repro.core.translation import CheckConstraint

    if db is not None and isinstance(statement, CheckConstraint):
        from repro.calculus.planned import compile_constraint

        compiled = compile_constraint(statement.formula, db)
        exprs = compiled.conjunctive_plan_expressions()
        if exprs is None:
            return None
        return [(expr, statement.message) for expr in exprs]
    return None


def vacuous_triggers(rule, translated: Program, db=None) -> List[tuple]:
    """Triggers for which the rule's check is provably unnecessary."""
    programs = differential_programs(rule, translated, db)
    if programs is None:
        return []
    return [trigger for trigger, program in programs.items() if program.is_empty]
