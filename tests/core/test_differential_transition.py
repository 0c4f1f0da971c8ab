"""Differential transition rules: the key premise and its fallbacks.

A transition check ``V = R ⋉_{A=A' ∧ p'} R@old`` runs as ``Δ⁺V`` when ``A``
is provably unique in the pre-state and ``p'`` is false on the diagonal,
and as the full ``V`` otherwise — one
:class:`~repro.algebra.statements.DifferentialAlarm` per trigger, shared by
transaction modification and audits.
"""

from __future__ import annotations

import pickle

import pytest

from repro import Database, DatabaseSchema, IntegrityController, RelationSchema, Session
from repro.algebra import expressions as E
from repro.algebra import predicates as P
from repro.algebra.optimizer import simplify_predicate
from repro.algebra.pretty import render_statement
from repro.algebra.statements import DifferentialAlarm
from repro.core.procpool import ControllerSpec
from repro.engine import INT, STRING
from repro.engine.session import DeltaView

BOUNDED = """
    RULE bounded
    WHEN INS(account), DEL(account)
    IF NOT (forall a in account)(forall o in account@old)
           (a.id != o.id or o.balance - a.balance <= 500)
    THEN abort
"""

SCHEMA = DatabaseSchema(
    [
        RelationSchema(
            "account",
            [("id", INT), ("owner", STRING), ("balance", INT), ("rate", "float")],
        )
    ]
)


def _database(rows=None) -> Database:
    database = Database(SCHEMA)
    database.load(
        "account",
        rows if rows is not None else [(k, f"o{k}", 1000, 0.5) for k in range(50)],
    )
    return database


def _controller(*rules) -> IntegrityController:
    controller = IntegrityController(SCHEMA)
    for rule in rules or (BOUNDED,):
        controller.add_rule(rule)
    return controller


def _differentials(controller, name="bounded"):
    return controller.store.get(name).differentials


def _transfer(source, target, amount) -> str:
    return (
        f"begin update(account, id = {source}, balance := balance - {amount}); "
        f"update(account, id = {target}, balance := balance + {amount}); end"
    )


class TestProgramShape:
    def test_one_differential_alarm_per_trigger(self):
        programs = _differentials(_controller())
        (insert,) = programs[("INS", "account")].statements
        (delete,) = programs[("DEL", "account")].statements
        for statement in (insert, delete):
            assert isinstance(statement, DifferentialAlarm)
            assert statement.unique_keys == (("account@old", (0,)),)
            assert statement.message == "bounded"
        full = E.RelationRef("account")
        assert insert.expr.left == full and delete.expr.left == full
        assert insert.delta.left == E.Delta("account", "plus")
        assert insert.delta.right == E.RelationRef("account@old")
        # Deletions cannot create a violation while the premise holds.
        assert delete.delta is None

    def test_rendering_shows_both_branches(self):
        (insert,) = _differentials(_controller())[("INS", "account")].statements
        text = render_statement(insert)
        assert text.startswith("if unique(account@old[1]) then alarm(semijoin(")
        assert "account@plus" in text and "else alarm(semijoin(account," in text

    @pytest.mark.parametrize(
        "body",
        [
            "a.balance <= 100",  # residual does not fold on the diagonal
            "o.balance - a.balance <= -1",  # folds to true, not false
            "o.rate - a.rate <= 0.5",  # float arithmetic: NaN - NaN is NaN
        ],
    )
    def test_residual_without_proof_keeps_full_program(self, body):
        rule = f"""
            RULE r WHEN INS(account), DEL(account)
            IF NOT (forall a in account)(forall o in account@old)
                   (a.id != o.id or {body})
            THEN abort
        """
        assert _differentials(_controller(rule), "r") is None

    def test_mirror_and_linear_residuals_are_differential(self):
        rules = [
            """RULE mirror IF NOT (forall o in account@old)(forall a in account)
               (a.id != o.id or a.balance >= o.balance - 500) THEN abort""",
            """RULE same IF NOT (forall a in account)(forall o in account@old)
               (a.id != o.id or a.owner = o.owner) THEN abort""",
        ]
        controller = _controller(*rules)
        for name in ("mirror", "same"):
            programs = _differentials(controller, name)
            assert programs is not None
            for program in programs.values():
                assert isinstance(program.statements[0], DifferentialAlarm)

    def test_selections_above_a_projection_are_not_residue(self):
        from repro.core.optimization import _null_transition_premise

        core = E.SemiJoin(
            E.RelationRef("account"),
            E.RelationRef("account@old"),
            P.Comparison("=", P.ColRef("id", "left"), P.ColRef("id", "right")),
        )
        # "balance" above the projection is the float rate column.
        projected = E.Project(core, (E.ProjectItem(P.ColRef("rate"), "balance"),))
        zero = P.Arith("-", P.ColRef("balance"), P.ColRef("balance"))
        check = P.Comparison(">", zero, P.Const(0))
        assert _null_transition_premise(E.Select(projected, check), SCHEMA) is None
        assert _null_transition_premise(
            E.Project(E.Select(core, check), projected.items), SCHEMA
        ) == (("account@old", (0,)),)

    def test_controller_spec_round_trip(self):
        controller = _controller()
        rebuilt = pickle.loads(pickle.dumps(ControllerSpec(controller))).build()
        assert _differentials(rebuilt) == _differentials(controller)


class TestPremise:
    def test_same_abort_reason_as_full_check(self):
        reasons = []
        for differential in (True, False):
            database = _database()
            controller = IntegrityController(SCHEMA, differential=differential)
            controller.add_rule(BOUNDED)
            controller.install_indexes(database)
            result = Session(database, controller).execute(_transfer(3, 4, 900))
            assert result.aborted
            reasons.append(result.reason)
        assert reasons[0] == reasons[1]
        assert reasons[0].startswith("bounded (1 violating tuple(s)")

    def test_key_premise_on_base_and_overlay(self):
        database = _database()
        live = database.relation("account")
        assert not live.key_is_unique((0,))  # no built index: not shown
        database.create_index("account", ["id"])
        assert live.key_is_unique((0,))
        assert live.key_is_unique((0, 2))  # a superset of a key is a key
        assert not live.key_is_unique((2,))
        live.insert((7, "dup", 1, 0.5))
        assert not live.key_is_unique((0,))

    def test_missing_index_runs_the_full_check(self, monkeypatch):
        from repro.algebra import statements

        evaluated = []
        evaluate = statements.evaluate_expression

        def spy(expr, context, *args, **kwargs):
            evaluated.append(expr)
            return evaluate(expr, context, *args, **kwargs)

        monkeypatch.setattr(statements, "evaluate_expression", spy)
        (insert,) = _differentials(_controller())[("INS", "account")].statements
        for indexed in (True, False):
            database = _database()
            controller = _controller()
            if indexed:
                controller.install_indexes(database)
            evaluated.clear()
            assert Session(database, controller).execute(_transfer(1, 2, 5)).committed
            checks = [e for e in evaluated if e in (insert.expr, insert.delta)]
            assert checks == [insert.delta if indexed else insert.expr]

    def test_snapshot_premise_is_exact_without_materializing(self):
        database = _database()
        database.create_index("account", ["id"])
        pin = database.epochs.pin()
        Session(database).execute("begin insert(account, (7, 'dup', 1, 0.5)); end")
        pinned = pin.relation("account")
        assert pinned.key_is_unique((0,))
        assert pinned._materialized is None
        assert not database.relation("account").key_is_unique((0,))
        pin.release()

    def test_rebuilt_pre_state_without_indexes_is_not_shown(self):
        database = _database()
        database.create_index("account", ["id"])
        result = Session(database).execute(_transfer(1, 2, 5))
        view = DeltaView(database, result.differentials)
        old = view.resolve("account@old")
        assert len(old) == 50 and not old.key_is_unique((0,))


class TestRefutingFolds:
    X = P.ColRef(1, "left")

    def _fold(self, predicate, refuting=True):
        return simplify_predicate(predicate, refuting=refuting)

    def test_self_difference_folds_only_when_refuting(self):
        predicate = P.Comparison(">", P.Arith("-", self.X, self.X), P.Const(500))
        assert self._fold(predicate) == P.FALSE
        # As an equivalence it is wrong: NULL - NULL is NULL, not 0.
        assert self._fold(predicate, refuting=False) == predicate

    def test_linear_forms_and_reflexive_comparisons(self):
        shifted = P.Arith("-", self.X, P.Const(500))
        assert self._fold(P.Comparison("<", self.X, shifted)) == P.FALSE
        assert self._fold(P.Comparison(">=", self.X, shifted)) == P.TRUE
        assert self._fold(P.Comparison("!=", self.X, self.X)) == P.FALSE
        doubled = P.Arith("*", P.Const(2), self.X)
        summed = P.Arith("+", self.X, self.X)
        difference = P.Arith("-", doubled, summed)
        assert self._fold(P.Comparison(">", difference, P.Const(0))) == P.FALSE

    def test_null_tests_are_never_folded(self):
        predicate = P.IsNull(P.Arith("-", self.X, self.X))
        assert self._fold(predicate) == predicate

    def test_constant_comparisons_fold_always(self):
        assert self._fold(P.Comparison("<", P.Const(1), P.Const(2)), False) == P.TRUE
        unknown = P.Comparison("<", P.Const(1), P.Const(None))
        assert not isinstance(self._fold(unknown, False), (P.TruePred, P.FalsePred))
