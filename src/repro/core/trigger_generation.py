"""Automatic trigger-set generation from rule conditions (paper Alg 5.7).

The trigger set of an integrity rule can always be deduced from the syntax
of its CL condition.  The algorithm walks the formula tracking *polarity*
(``GenTrigW`` for positive context, ``GenTrigN`` for negated context) and
the sets of universally (``V_u``) and existentially (``V_e``) quantified
variables — with the sets swapping roles when polarity flips:

* a membership atom ``x in R`` in *negated* context (e.g. the antecedent of
  a universal's guard) can be violated by **insertions** into R — a new
  tuple becomes subject to the condition;
* a membership atom in *positive* context (e.g. the witness of an
  existential, or the consequent of an inclusion dependency) can be
  violated by **deletions** from R — a required tuple may disappear;
* any aggregate or counting term over R can be perturbed by both ``INS(R)``
  and ``DEL(R)``, and so can a transition check: a membership in ``R@old``
  yields both, since the post state is what changes relative to it.

A note on fidelity: the paper's ``GenTrigA`` expresses the membership rule
via the variable sets ``V_u``/``V_e``; the archival scan garbles exactly
which set maps to INS and which to DEL.  The two readings coincide on all
guarded constraints (including both of the paper's published trigger sets),
but differ on inclusion dependencies ``(forall x)(x in r => x in s)``,
where only the *polarity* reading produces the sound set
``{INS(r), DEL(s)}`` — the V-set reading would emit ``INS(s)``, missing
that deleting from ``s`` can violate the constraint.  We therefore
implement the polarity reading (and still track the variable sets, which
the algorithm's quantifier cases maintain exactly as printed).

Worked example (the paper's referential rule R2): for
``(forall x)(x in beer => (exists y)(y in brewery and x.brewery = y.name))``
the generator yields ``{INS(beer), DEL(brewery)}`` — exactly the trigger set
the paper writes in Example 4.2.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.calculus import ast as C
from repro.core.triggers import DEL, INS, TriggerSet
from repro.engine import naming


def generate_triggers(condition: C.Formula) -> TriggerSet:
    """GenTrigC (Alg 5.7): the trigger set of a rule condition."""
    return _gen_w(condition, frozenset(), frozenset())


def _gen_w(node: C.Formula, v_u: FrozenSet[str], v_e: FrozenSet[str]) -> TriggerSet:
    """GenTrigW: positive-context walk."""
    if isinstance(node, C.Forall):
        return _gen_w(node.body, v_u | {node.var}, v_e - {node.var})
    if isinstance(node, C.Exists):
        return _gen_w(node.body, v_u - {node.var}, v_e | {node.var})
    if isinstance(node, (C.And, C.Or)):
        return _gen_w(node.left, v_u, v_e) | _gen_w(node.right, v_u, v_e)
    if isinstance(node, C.Implies):
        return _gen_n(node.left, v_u, v_e) | _gen_w(node.right, v_u, v_e)
    if isinstance(node, C.Not):
        return _gen_n(node.operand, v_u, v_e)
    return _gen_a(node, positive=True)


def _gen_n(node: C.Formula, v_u: FrozenSet[str], v_e: FrozenSet[str]) -> TriggerSet:
    """GenTrigN: negated-context walk (quantifier roles swap)."""
    if isinstance(node, C.Forall):
        return _gen_n(node.body, v_u - {node.var}, v_e | {node.var})
    if isinstance(node, C.Exists):
        return _gen_n(node.body, v_u | {node.var}, v_e - {node.var})
    if isinstance(node, (C.And, C.Or)):
        return _gen_n(node.left, v_u, v_e) | _gen_n(node.right, v_u, v_e)
    if isinstance(node, C.Implies):
        return _gen_w(node.left, v_u, v_e) | _gen_n(node.right, v_u, v_e)
    if isinstance(node, C.Not):
        return _gen_w(node.operand, v_u, v_e)
    return _gen_a(node, positive=False)


def _gen_a(node: C.Formula, positive: bool) -> TriggerSet:
    """GenTrigA: atomic formulas (polarity reading, see module docs).

    A membership atom that must *hold* (positive context) is endangered by
    deletions; one that appears under negation is endangered by insertions.
    """
    if isinstance(node, C.Compare):
        return _gen_t(node.left) | _gen_t(node.right)
    if isinstance(node, C.Member):
        base, suffix = naming.split_auxiliary(node.relation)
        if suffix == naming.OLD_SUFFIX:
            # The pre-state never changes inside a transaction; what moves
            # is the post state compared against it, in either direction —
            # a deletion leaves the null-transition residue V[R@old ↦ R]
            # in place, and nothing proves that residue empty in general.
            return frozenset({(INS, base), (DEL, base)})
        kind = DEL if positive else INS
        return frozenset({(kind, node.relation)})
    # Tuple equality carries no relation information of its own.
    return frozenset()


def _gen_t(term: C.Term) -> TriggerSet:
    """GenTrigT: terms — aggregates and counters react to both update types.

    The paper's definition covers top-level aggregate applications; we
    recurse through arithmetic so ``SUM(R, 1) + CNT(S) <= 100`` also yields
    triggers for both relations.
    """
    if isinstance(term, C.AggTerm):
        return frozenset({(INS, term.relation), (DEL, term.relation)})
    if isinstance(term, (C.CntTerm, C.MltTerm)):
        return frozenset({(INS, term.relation), (DEL, term.relation)})
    if isinstance(term, C.ArithTerm):
        return _gen_t(term.left) | _gen_t(term.right)
    return frozenset()
