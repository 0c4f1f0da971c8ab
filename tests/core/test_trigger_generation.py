"""Automatic trigger-set generation (paper Alg 5.7)."""

import pytest

from repro.calculus.parser import parse_constraint
from repro.core.trigger_generation import generate_triggers
from repro.core.triggers import DEL, INS


def triggers_of(text):
    return generate_triggers(parse_constraint(text))


class TestPaperExamples:
    def test_domain_rule_r1(self):
        # Example 4.2: WHEN INS(beer)
        assert triggers_of("(forall x)(x in beer => x.alcohol >= 0)") == {
            (INS, "beer")
        }

    def test_referential_rule_r2(self):
        # Example 4.2: WHEN INS(beer), DEL(brewery)
        assert triggers_of(
            "(forall x)(x in beer => "
            "(exists y)(y in brewery and x.brewery = y.name))"
        ) == {(INS, "beer"), (DEL, "brewery")}


class TestPolarity:
    def test_universal_membership_gives_ins(self):
        assert triggers_of("(forall x in r)(x.a > 0)") == {(INS, "r")}

    def test_existential_membership_gives_del(self):
        assert triggers_of("(exists x in r)(x.a > 0)") == {(DEL, "r")}

    def test_negated_universal_flips(self):
        # not (forall x in r)(c) behaves existentially for x.
        assert triggers_of("not (forall x in r)(x.a > 0)") == {(DEL, "r")}

    def test_negated_existential_flips(self):
        assert triggers_of("not (exists x in r)(x.a < 0)") == {(INS, "r")}

    def test_double_negation_restores(self):
        assert triggers_of("not not (forall x in r)(x.a > 0)") == {(INS, "r")}

    def test_exclusion_constraint_two_inserts(self):
        # (forall x in r)(forall y in s)(x.a != y.c): both inserts can violate.
        assert triggers_of(
            "(forall x in r)(forall y in s)(x.a != y.c)"
        ) == {(INS, "r"), (INS, "s")}

    def test_implication_antecedent_negated_context(self):
        # x in r sits in the antecedent: GenTrigN applies, x universal -> INS.
        assert triggers_of("(forall x)(x in r => x in s)") == {
            (INS, "r"),
            (DEL, "s"),
        }

    def test_conjunction_and_disjunction_union(self):
        assert triggers_of(
            "(forall x in r)(x.a > 0) and (exists y in s)(y.c = 1)"
        ) == {(INS, "r"), (DEL, "s")}
        assert triggers_of(
            "(forall x in r)(x.a > 0) or (exists y in s)(y.c = 1)"
        ) == {(INS, "r"), (DEL, "s")}


class TestAggregateTerms:
    def test_aggregate_triggers_both_kinds(self):
        assert triggers_of("SUM(emp, salary) <= 100") == {
            (INS, "emp"),
            (DEL, "emp"),
        }

    def test_cnt_triggers_both_kinds(self):
        assert triggers_of("CNT(r) < 10") == {(INS, "r"), (DEL, "r")}

    def test_mlt_triggers_both_kinds(self):
        assert triggers_of("MLT(r) < 10") == {(INS, "r"), (DEL, "r")}

    def test_aggregates_inside_arithmetic(self):
        assert triggers_of("SUM(r, 1) + CNT(s) <= 100") == {
            (INS, "r"),
            (DEL, "r"),
            (INS, "s"),
            (DEL, "s"),
        }

    def test_aggregate_in_quantified_body(self):
        assert triggers_of("(forall x in r)(x.a <= CNT(s))") == {
            (INS, "r"),
            (INS, "s"),
            (DEL, "s"),
        }


class TestTransitionConstraints:
    def test_old_state_is_its_own_relation(self):
        found = triggers_of(
            "(forall x in emp)(forall o in emp@old)"
            "(x.id != o.id or x.salary >= o.salary)"
        )
        # emp@old never changes inside a transaction; the post state moves
        # against it either way, so its membership triggers on both kinds.
        assert found == {(INS, "emp"), (DEL, "emp")}

    def test_tuple_equality_contributes_nothing(self):
        assert triggers_of("(forall x in r)(exists y in r)(x = y)") == {
            (INS, "r"),
            (DEL, "r"),
        }
