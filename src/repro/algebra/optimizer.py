"""Algebraic rewrites for rule actions and translated conditions.

Section 5.2.1 of the paper notes that "optimization of relational algebra
constructs is dealt with extensively in the field of query optimization;
techniques developed in this context can be used for the optimization of
integrity rule actions".  This module implements the standard, always-safe
rewrites used by ``TrOptRS``:

* boolean simplification of predicates (constant folding of connectives,
  comparisons and arithmetic over constants, double negation);
* cascade fusion of selections: ``σ_p(σ_q(E)) -> σ_{p∧q}(E)``;
* elimination of ``σ_true`` and identity projections;
* pushing selections through union / difference / intersection.

All rewrites preserve set semantics; a property test checks rewritten
expressions evaluate identically to their originals.
"""

from __future__ import annotations

from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.engine.types import NULL


def simplify_predicate(
    predicate: P.Predicate, refuting: bool = False
) -> P.Predicate:
    """Boolean constant folding and double-negation elimination.

    Comparisons and ``+``/``-``/``*`` over non-NULL constants fold too.

    ``refuting=True`` adds folds that assume every column is non-NULL:
    ``x − x ⇒ 0`` and, generally, a comparison whose sides differ by an
    int constant once read as linear forms (``x < x − 500`` ⇒ FALSE), or
    whose sides are the same expression (``x != x`` ⇒ FALSE).  These are not
    equivalences (``NULL − NULL`` is NULL) but they are sound for
    *refutation*, the only use made of them: the connectives are Kleene's,
    which are monotone in definedness, so a predicate that folds to FALSE
    is FALSE or unknown — never TRUE — when columns are NULL.  ``IsNull``,
    the one non-monotone node, is never folded.  The caller vouches for the
    column domains (no floats: NaN breaks ``x = x``).
    """
    if isinstance(predicate, P.Not):
        inner = simplify_predicate(predicate.operand, refuting)
        if isinstance(inner, P.Not):
            return inner.operand
        if isinstance(inner, P.TruePred):
            return P.FALSE
        if isinstance(inner, P.FalsePred):
            return P.TRUE
        if isinstance(inner, P.Comparison):
            return P.negate(inner)
        return P.Not(inner)
    if isinstance(predicate, P.And):
        left = simplify_predicate(predicate.left, refuting)
        right = simplify_predicate(predicate.right, refuting)
        if isinstance(left, P.FalsePred) or isinstance(right, P.FalsePred):
            return P.FALSE
        if isinstance(left, P.TruePred):
            return right
        if isinstance(right, P.TruePred):
            return left
        return P.And(left, right)
    if isinstance(predicate, P.Or):
        left = simplify_predicate(predicate.left, refuting)
        right = simplify_predicate(predicate.right, refuting)
        if isinstance(left, P.TruePred) or isinstance(right, P.TruePred):
            return P.TRUE
        if isinstance(left, P.FalsePred):
            return right
        if isinstance(right, P.FalsePred):
            return left
        return P.Or(left, right)
    if isinstance(predicate, P.Comparison):
        return _fold_comparison(predicate, refuting)
    return predicate


def _fold_comparison(predicate: P.Comparison, refuting: bool) -> P.Predicate:
    left = _fold_scalar(predicate.left)
    right = _fold_scalar(predicate.right)
    compare = P._COMPARE_OPS[predicate.op]
    outcome = None
    if _is_value(left) and _is_value(right):
        try:
            outcome = compare(left.value, right.value)
        except TypeError:
            pass  # evaluation raises on these; keep it that way
    elif refuting and left == right:
        outcome = compare(0, 0)
    elif refuting:
        difference = _linear(P.Arith("-", left, right))
        if difference is not None and not any(difference[0].values()):
            outcome = compare(difference[1], 0)
    if outcome is not None:
        return P.TRUE if outcome else P.FALSE
    if left is predicate.left and right is predicate.right:
        return predicate
    return P.Comparison(predicate.op, left, right)


def _is_value(scalar) -> bool:
    return isinstance(scalar, P.Const) and scalar.value is not NULL


def _fold_scalar(scalar):
    """Arithmetic over non-NULL constants, evaluated."""
    if not isinstance(scalar, P.Arith) or scalar.op not in P._ARITH_OPS:
        return scalar
    left = _fold_scalar(scalar.left)
    right = _fold_scalar(scalar.right)
    if _is_value(left) and _is_value(right):
        try:
            return P.Const(P._ARITH_OPS[scalar.op](left.value, right.value))
        except TypeError:
            pass
    if left is scalar.left and right is scalar.right:
        return scalar
    return P.Arith(scalar.op, left, right)


def _linear(scalar):
    """``scalar`` as ``({column: coefficient}, constant)`` over int
    constants, or None when it is not linear in that sense."""
    if isinstance(scalar, P.Const):
        return ({}, scalar.value) if type(scalar.value) is int else None
    if isinstance(scalar, P.ColRef):
        return {scalar: 1}, 0
    if not isinstance(scalar, P.Arith) or scalar.op not in P._ARITH_OPS:
        return None
    left, right = _linear(scalar.left), _linear(scalar.right)
    if left is None or right is None:
        return None
    if scalar.op == "*":
        if left[0] and right[0]:
            return None  # a product of columns
        (terms, constant), factor = (left, right[1]) if left[0] else (right, left[1])
        return {ref: c * factor for ref, c in terms.items()}, constant * factor
    sign = 1 if scalar.op == "+" else -1
    terms = dict(left[0])
    for ref, coefficient in right[0].items():
        terms[ref] = terms.get(ref, 0) + sign * coefficient
    return terms, left[1] + sign * right[1]


def _is_identity_projection(expr: E.Project, input_arity: int) -> bool:
    """True when the projection re-emits all columns unchanged, unnamed."""
    if len(expr.items) != input_arity:
        return False
    for position, item in enumerate(expr.items, start=1):
        if item.name is not None:
            return False
        ref = item.expr
        if not isinstance(ref, P.ColRef) or ref.side not in (None, "left"):
            return False
        if ref.attr != position:
            return False
    return True


def optimize_expression(expr: E.Expression) -> E.Expression:
    """Apply the safe rewrites bottom-up; returns a new expression."""
    if isinstance(expr, E.Select):
        source = optimize_expression(expr.input)
        predicate = simplify_predicate(expr.predicate)
        if isinstance(predicate, P.TruePred):
            return source
        # Cascade fusion.
        if isinstance(source, E.Select):
            return E.Select(
                source.input,
                simplify_predicate(P.And(source.predicate, predicate)),
            )
        # Push selection through the set operators (always valid).
        if isinstance(source, (E.Union, E.Difference, E.Intersection)):
            ctor = type(source)
            return ctor(
                optimize_expression(E.Select(source.left, predicate)),
                optimize_expression(E.Select(source.right, predicate)),
            )
        return E.Select(source, predicate)
    if isinstance(expr, E.Project):
        source = optimize_expression(expr.input)
        return E.Project(source, expr.items)
    if isinstance(expr, (E.Union, E.Difference, E.Intersection, E.Product)):
        ctor = type(expr)
        return ctor(optimize_expression(expr.left), optimize_expression(expr.right))
    if isinstance(expr, (E.Join, E.SemiJoin, E.AntiJoin)):
        ctor = type(expr)
        return ctor(
            optimize_expression(expr.left),
            optimize_expression(expr.right),
            simplify_predicate(expr.predicate),
        )
    if isinstance(expr, E.Rename):
        return E.Rename(optimize_expression(expr.input), expr.name, expr.attributes)
    if isinstance(expr, E.Aggregate):
        return E.Aggregate(optimize_expression(expr.input), expr.func, expr.attr)
    if isinstance(expr, E.Count):
        return E.Count(optimize_expression(expr.input))
    if isinstance(expr, E.Multiplicity):
        return E.Multiplicity(optimize_expression(expr.input))
    return expr


def optimize_statement(statement):
    """Optimize the expressions inside one statement."""
    from repro.algebra import statements as S

    if isinstance(statement, S.Assign):
        return S.Assign(statement.name, optimize_expression(statement.expr))
    if isinstance(statement, S.Insert):
        return S.Insert(statement.relation, optimize_expression(statement.expr))
    if isinstance(statement, S.Delete):
        return S.Delete(statement.relation, optimize_expression(statement.expr))
    if isinstance(statement, S.Update):
        return S.Update(
            statement.relation,
            simplify_predicate(statement.predicate),
            statement.assignments,
        )
    if isinstance(statement, S.Alarm):
        return S.Alarm(optimize_expression(statement.expr), statement.message)
    return statement


def optimize_program(program):
    """Optimize every statement of a program, keeping its flags."""
    from repro.algebra.programs import Program

    return Program(
        [optimize_statement(statement) for statement in program],
        non_triggering=program.non_triggering,
    )
