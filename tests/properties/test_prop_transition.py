"""Property: transition rules get one verdict on every enforcement path.

Transition checks over ``R@old`` run differentially under a key premise
(:class:`~repro.algebra.statements.DifferentialAlarm`) and fall back to the
full check whenever the premise cannot be shown.  For random key-joined
transition rules — with residuals that fold to false on the diagonal and
ones that do not, mirrored operand order, and joins on a non-key column —
over random data with duplicate and NULL keys and random transactions
(including ones inserting two rows with the same key), three verdicts must
agree on both engines, in set and bag mode, with and without indexes:

* the preventive path: ``Session.execute`` commits or aborts, naming the
  first violated rule;
* the optimistic path: ``Session.commit(audit="sync")`` reports exactly the
  violated rules;
* the oracle: the full translated check evaluated naively on (post, pre),
  cross-checked against the naive calculus model checker on NULL-free
  states.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.calculus.evaluation import evaluate_constraint
from repro.core.subsystem import IntegrityController
from repro.engine import Database, DatabaseSchema, Relation, RelationSchema, Session
from repro.engine import naming
from repro.engine.transaction import TransactionManager
from repro.engine.types import INT, NULL
from repro.algebra.evaluation import evaluate_expression
from repro.algebra.parser import parse_transaction
from repro.algebra.statements import DifferentialAlarm

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [RelationSchema("acct", [("k", INT, True), ("v", INT), ("w", INT)])]
    )


KEYS = st.one_of(st.integers(min_value=0, max_value=3), st.just(NULL))
ROWS = st.lists(
    st.tuples(
        KEYS,
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=7,
)

# Rule bodies over x (post state) and o (pre state); {c} is a small
# constant.  The first three fold to false on the diagonal x = o, the last
# two do not (their transition checks keep the full program).
BODIES = (
    "o.v - x.v <= {c}",
    "x.v >= o.v - {c}",
    "x.v = o.v",
    "x.v <= {c} + 4",
    "o.v - x.v <= -1 - {c}",
)


@st.composite
def transition_rules(draw, index: int) -> str:
    key = draw(st.sampled_from(["k", "k", "w"]))  # w: a non-key join
    body = draw(st.sampled_from(BODIES)).format(c=draw(st.integers(0, 3)))
    link = f"x.{key} != o.{key} or {body}"
    if draw(st.booleans()):
        quantified = f"(forall x in acct)(forall o in acct@old)({link})"
    else:
        quantified = f"(forall o in acct@old)(forall x in acct)({link})"
    return f"RULE t{index} IF NOT {quantified} THEN abort"


@st.composite
def rule_sets(draw) -> list:
    rules = [draw(transition_rules(i)) for i in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        bound = draw(st.integers(min_value=15, max_value=45))
        rules.append(f"RULE total IF NOT SUM(acct, v) <= {bound} THEN abort")
    return rules


def _literal(value) -> str:
    return "null" if value is NULL else str(value)


@st.composite
def statements(draw) -> str:
    kind = draw(st.sampled_from(["insert", "insert_pair", "delete", "update"]))
    value = st.integers(min_value=0, max_value=9)
    if kind == "insert":
        k, v, w = draw(KEYS), draw(value), draw(st.integers(0, 2))
        return f"insert(acct, ({_literal(k)}, {v}, {w}))"
    if kind == "insert_pair":
        # Two rows with one key: a commit that breaks the key premise.
        k = draw(st.integers(min_value=0, max_value=5))
        first, second = draw(value), draw(value)
        return f"insert(acct, {{({k}, {first}, 0), ({k}, {second}, 1)}})"
    k = draw(st.integers(min_value=0, max_value=3))
    if kind == "delete":
        return f"delete(acct, select(acct, k = {k}))"
    step = draw(st.integers(min_value=-6, max_value=6))
    return f"update(acct, k = {k}, v := v + {step})"


@st.composite
def transactions(draw) -> str:
    body = "; ".join(draw(st.lists(statements(), min_size=1, max_size=3)))
    return f"begin {body}; end"


class _PrePostView:
    """Naive-checker name resolution: bare names post, ``@old`` pre."""

    engine = "naive"

    def __init__(self, post: Database, pre: Database):
        self.post = post
        self.pre = pre

    def resolve(self, name: str):
        base, suffix = naming.split_auxiliary(name)
        if suffix is None:
            return self.post.relation(base)
        if suffix == naming.OLD_SUFFIX:
            return self.pre.relation(base)
        return Relation(self.post.relation_schema(base), bag=self.post.bag)


def _database(rows, bag: bool) -> Database:
    database = Database(_schema(), bag=bag)
    database.load("acct", rows)
    return database


def _controller(rules, engine: str, database: Database, indexed: bool):
    controller = IntegrityController(_schema(), engine=engine)
    for rule in rules:
        controller.add_rule(rule)
    if indexed:
        controller.install_indexes(database)
    return controller


def _state(database: Database) -> list:
    return sorted(database.relation("acct").items(), key=repr)


def oracle(controller, rows, bag: bool, text: str):
    """``(violated rule names in order, post-state (row, count) pairs,
    whether both states are NULL-free)``.

    A rule is violated when its full translated check ``V`` — the alarm
    the differential form replaces — is non-empty under the naive algebra
    evaluator on (post, pre).  Without NULLs the naive calculus model
    checker must agree; with NULL keys the two already part ways (an
    equi-semijoin matches NULL keys by identity, the calculus compares
    them as unknown), which is outside what this property checks.
    """
    pre = _database(rows, bag)
    post = _database(rows, bag)
    result = TransactionManager(post).execute(parse_transaction(text), modify=False)
    assert result.committed
    view = _PrePostView(post, pre)
    violated = [
        rule.name
        for rule in controller.rules
        if len(evaluate_expression(_full_check(controller, rule), view, "naive"))
    ]
    null_free = not any(NULL in row for row, _count in _state(pre) + _state(post))
    if null_free:
        assert violated == [
            rule.name
            for rule in controller.rules
            if not evaluate_constraint(rule.condition, view, validate=False)
        ]
    return violated, _state(post), null_free


def _full_check(controller, rule):
    (statement,) = controller.store.get(rule.name).program.statements
    return statement.expr


def _expand(state) -> list:
    return [row for row, count in state for _ in range(count)]


def assert_paths_agree(rules, rows, txns, bag, indexed, engine) -> None:
    database = _database(rows, bag)
    controller = _controller(rules, engine, database, indexed)
    session = Session(database, controller, engine=engine)
    state = _state(database)
    for text in txns:
        violated, post_state, _null_free = oracle(
            controller, _expand(state), bag, text
        )
        # Preventive: commit iff nothing is violated, else abort on the
        # first violated rule (ModT appends checks in rule order).
        result = session.execute(text)
        if violated:
            assert result.aborted, (text, violated, result)
            assert result.reason.split(" (", 1)[0] == violated[0], (
                text,
                violated,
                result.reason,
            )
        else:
            assert result.committed, (text, result.reason)
            state = post_state
        assert _state(database) == state
    session.close()


def assert_audits_agree(rules, rows, txns, bag, indexed, engine) -> None:
    """The sync-audit verdicts of each transaction equal the oracle's.

    The optimistic path commits unconditionally, so each transaction runs
    on a fresh database holding the oracle's pre-state.  An empty delta is
    the identity transition, which is never audited.  The naive engine
    audits a full check with the calculus model checker, so with NULL keys
    its verdict follows the calculus side of the split :func:`oracle`
    describes, and only the planned engine is compared there.
    """
    state = _state(_database(rows, bag))
    for text in txns:
        database = _database(_expand(state), bag)
        controller = _controller(rules, engine, database, indexed)
        violated, post_state, null_free = oracle(
            controller, _expand(state), bag, text
        )
        session = Session(database, controller, engine=engine)
        result = session.commit(text, audit="sync")
        assert result.committed
        reported = {outcome.rule for outcome in result.audit if outcome.violated}
        assert not any(outcome.failed for outcome in result.audit)
        if not any(
            len(plus or ()) or len(minus or ())
            for plus, minus in result.differentials.values()
        ):
            assert reported == set()
        elif null_free or engine == "planned":
            assert reported == set(violated), (text, violated, reported)
        session.close()
        state = post_state


FLAGS = dict(
    bag=st.booleans(),
    indexed=st.booleans(),
    engine=st.sampled_from(["planned", "naive"]),
)


class TestTransitionPaths:
    @_SETTINGS
    @given(
        rules=rule_sets(),
        rows=ROWS,
        txns=st.lists(transactions(), min_size=1, max_size=3),
        **FLAGS,
    )
    def test_preventive_path_matches_oracle(
        self, rules, rows, txns, bag, indexed, engine
    ):
        assert_paths_agree(rules, rows, txns, bag, indexed, engine)

    @_SETTINGS
    @given(
        rules=rule_sets(),
        rows=ROWS,
        txns=st.lists(transactions(), min_size=1, max_size=2),
        **FLAGS,
    )
    def test_sync_audits_match_oracle(self, rules, rows, txns, bag, indexed, engine):
        assert_audits_agree(rules, rows, txns, bag, indexed, engine)


BOUNDED = (
    "RULE bounded IF NOT (forall x in acct)(forall o in acct@old)"
    "(x.k != o.k or o.v - x.v <= 3) THEN abort"
)


class TestDuplicateKeyRegression:
    """A commit that creates a duplicate key turns the premise off."""

    def test_next_transaction_falls_back_and_aborts(self):
        database = _database([(1, 5, 0), (2, 5, 0)], bag=False)
        controller = _controller([BOUNDED], "planned", database, indexed=True)
        program = controller.store.get("bounded").differentials[("INS", "acct")]
        assert isinstance(program.statements[0], DifferentialAlarm)
        session = Session(database, controller)
        # Both rows are new, so nothing in the pre-state matches them.
        duplicate = "begin insert(acct, {(7, 9, 0), (7, 0, 1)}); end"
        assert session.execute(duplicate).committed
        # (7, 0, 1) vs (7, 9, 0) now violates the rule on every transition;
        # the delta of this one (a row for key 1) would not show it.
        touch = "begin update(acct, k = 1, v := v + 1); end"
        violated, _post, _null_free = oracle(
            controller, _expand(_state(database)), False, touch
        )
        assert violated == ["bounded"]
        assert not database.relation("acct").key_is_unique((0,))
        result = session.execute(touch)
        assert result.aborted
        assert result.reason.startswith("bounded (")
