"""Integrity programs and the compiled program store (paper Section 6.2).

Translating and optimizing rules on every transaction (Alg 5.1-5.3) is
wasteful; Section 6.2 moves that work to rule-definition time.  An
*integrity program* (Def 6.3) is a pair ``K = (t, p)`` of a trigger set and
a translated extended-algebra program, "extended with a flag indicating
whether the program is non-triggering" — plus, here, the differential
variants from :mod:`repro.core.optimization` keyed by elementary update
type.

:class:`IntegrityProgramStore` is the constraint-enforcement-time side:
``SelPS`` selects the programs triggered by a user program and ``ConcatP``
concatenates their actions (Alg 6.2).  The store keeps insertion order, so
modification output is deterministic.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional

from repro.algebra import expressions as E
from repro.algebra.programs import EMPTY_PROGRAM, Program, concat
from repro.algebra.statements import DifferentialAlarm
from repro.core.triggers import TriggerSet, get_trig_px
from repro.engine.schema import DatabaseSchema


class IntegrityProgram:
    """An integrity program ``(t, p)`` (Def 6.3) with differential variants."""

    __slots__ = ("name", "triggers", "program", "non_triggering", "differentials")

    def __init__(
        self,
        name: str,
        triggers: TriggerSet,
        program: Program,
        differentials: Optional[Dict[tuple, Program]] = None,
    ):
        self.name = name
        self.triggers = frozenset(triggers)
        self.program = program
        self.non_triggering = program.non_triggering
        self.differentials = differentials

    def action_for(self, matched: Iterable) -> Program:
        """The program to append given the matched trigger specs.

        Without differential variants this is the full program (the paper's
        ``action(K)``).  With variants, the union of the matched triggers'
        specialized programs is used — deduplicated, and skipping vacuous
        entries — which is the differential-test optimization of §5.2.1.
        """
        if self.differentials is None:
            return self.program
        pieces: List[Program] = []
        for trigger in sorted(matched):
            piece = self.differentials.get(trigger)
            if piece is None:
                return self.program  # unexpected trigger: be conservative
            if not piece.is_empty and piece not in pieces:
                pieces.append(piece)
        if not pieces:
            return EMPTY_PROGRAM
        return _merge_differential_alarms(concat(*pieces))

    def __repr__(self) -> str:
        from repro.core.triggers import format_trigger_set

        differential = ", differential" if self.differentials else ""
        return (
            f"IntegrityProgram({self.name}, "
            f"WHEN {format_trigger_set(self.triggers)}{differential})"
        )


def _merge_differential_alarms(program: Program) -> Program:
    """One differential alarm per check across the matched triggers.

    The triggers' deltas are united (the delta rules are linear), so a
    premise that fails runs the full check once, not once per trigger.
    """
    merged: List = []
    for statement in program.statements:
        for position, earlier in enumerate(merged):
            if (
                isinstance(statement, DifferentialAlarm)
                and isinstance(earlier, DifferentialAlarm)
                and earlier.expr == statement.expr
                and earlier.message == statement.message
                and earlier.unique_keys == statement.unique_keys
            ):
                merged[position] = dataclasses.replace(
                    earlier, delta=_union(earlier.delta, statement.delta)
                )
                break
        else:
            merged.append(statement)
    if len(merged) == len(program.statements):
        return program
    return Program(merged, non_triggering=program.non_triggering)


def _union(left, right):
    if left is None or left == right:
        return right
    if right is None:
        return left
    return E.Union(left, right)


def get_int_p(
    rule,
    db: DatabaseSchema,
    optimize: bool = True,
    differential: bool = False,
    allow_fallback: bool = True,
) -> IntegrityProgram:
    """GetIntP (Alg 6.1): compile one rule into an integrity program.

    ``GetIntP(J) = (triggers(J), TransR(OptR(J)))`` — with the differential
    specialization bolted on when requested.
    """
    from repro.core.optimization import differential_programs, opt_r
    from repro.core.translation import trans_r

    optimized_rule = opt_r(rule) if optimize else rule
    program = trans_r(optimized_rule, db, allow_fallback=allow_fallback)
    if optimize:
        from repro.algebra.optimizer import optimize_program

        program = optimize_program(program)
    differentials = None
    if differential and rule.is_aborting:
        differentials = differential_programs(optimized_rule, program, db)
    return IntegrityProgram(rule.name, rule.triggers, program, differentials)


class IntegrityProgramStore:
    """The stored set of compiled integrity programs (Section 6.2)."""

    def __init__(self):
        self._programs: List[IntegrityProgram] = []
        self._by_name: Dict[str, IntegrityProgram] = {}

    def add(self, program: IntegrityProgram) -> IntegrityProgram:
        if program.name in self._by_name:
            raise KeyError(f"integrity program {program.name!r} already stored")
        self._programs.append(program)
        self._by_name[program.name] = program
        return program

    def remove(self, name: str) -> None:
        program = self._by_name.pop(name)
        self._programs.remove(program)

    def get(self, name: str) -> IntegrityProgram:
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self._programs)

    def __iter__(self) -> Iterator[IntegrityProgram]:
        return iter(self._programs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    # -- Alg 6.2 ----------------------------------------------------------------

    def sel_ps(self, program: Program) -> List[IntegrityProgram]:
        """SelPS: integrity programs whose trigger set meets GetTrigPX(P)."""
        performed = get_trig_px(program)
        if not performed:
            return []
        return [
            integrity_program
            for integrity_program in self._programs
            if integrity_program.triggers & performed
        ]

    def trig_p(self, program: Program) -> Program:
        """TrigP (Alg 6.2): ConcatP(SelPS(P, K)), differential-aware."""
        performed = get_trig_px(program)
        if not performed:
            return EMPTY_PROGRAM
        pieces: List[Program] = []
        for integrity_program in self._programs:
            matched = integrity_program.triggers & performed
            if matched:
                piece = integrity_program.action_for(matched)
                if not piece.is_empty:
                    pieces.append(piece)
        if not pieces:
            return EMPTY_PROGRAM
        return concat(*pieces)
