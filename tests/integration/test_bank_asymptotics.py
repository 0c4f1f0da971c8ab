"""Count-based asymptotic gate: a bank transfer touches no O(|account|) path.

The bank rule set of ``examples/bank_audit.py`` — a state rule, a
transition rule over ``account@old``, an aggregate rule and a compensating
rule — is enforced by transaction modification on a two-update transfer.
Nothing here times anything.  Two counts prove the transfer's cost does not
grow with the relation:

* the index keys the transfer probes (``IndexUsage.keys`` summed over
  ``account``'s indexes) are the same at 1k and at 20k accounts;
* ``account``'s transaction overlay is never materialized, so no check
  merged the whole relation.
"""

from __future__ import annotations

import pytest

from repro import Database, DatabaseSchema, IntegrityController, RelationSchema, Session
from repro.engine import INT, STRING
from repro.engine.overlay import OverlayRelation

OVERDRAFT = 500

BANK_RULES = (
    f"""
    RULE no_deep_overdraft
    IF NOT (forall a in account)(a.balance >= -{OVERDRAFT})
    THEN abort
    """,
    f"""
    RULE bounded_withdrawal
    WHEN INS(account), DEL(account)
    IF NOT (forall a in account)(forall o in account@old)
           (a.id != o.id or o.balance - a.balance <= {OVERDRAFT})
    THEN abort
    """,
    """
    RULE bank_solvent
    IF NOT SUM(account, balance) >= 0
    THEN abort
    """,
    """
    RULE audit_trail
    WHEN INS(account), DEL(account)
    IF NOT (forall a in account@plus)(exists e in audit)
           (a.id = e.account_id and a.balance = e.balance)
    THEN NONTRIGGERING
         insert(audit, project(account@plus, [id, balance]))
    """,
)


def _bank(accounts: int) -> Session:
    schema = DatabaseSchema(
        [
            RelationSchema(
                "account", [("id", INT), ("owner", STRING), ("balance", INT)]
            ),
            RelationSchema("audit", [("account_id", INT), ("balance", INT)]),
        ]
    )
    database = Database(schema)
    database.load("account", [(k, f"owner{k}", 1000) for k in range(accounts)])
    controller = IntegrityController(schema)
    for rule in BANK_RULES:
        controller.add_rule(rule)
    controller.install_indexes(database)
    return Session(database, controller)


def _transfer(source: int, target: int, amount: int) -> str:
    return (
        f"begin update(account, id = {source}, balance := balance - {amount}); "
        f"update(account, id = {target}, balance := balance + {amount}); end"
    )


@pytest.fixture
def merges(monkeypatch) -> list:
    """Names of the overlays whose rows were merged, in order."""
    seen: list = []
    merged_rows = OverlayRelation._rows

    def spy(self):
        if self._materialized is None:
            seen.append(self.schema.name)
        return merged_rows.fget(self)

    monkeypatch.setattr(OverlayRelation, "_rows", property(spy))
    return seen


def _keys_probed(session: Session) -> int:
    indexes = session.database.relation("account").indexes
    return sum(index.usage.keys for index in indexes or ())


def _reset_usage(session: Session) -> None:
    for index in session.database.relation("account").indexes or ():
        index.usage.reset()


def _probe_counts(accounts: int, merges: list) -> tuple:
    session = _bank(accounts)
    # Warm-up: plans compile, the running SUM is computed once.
    assert session.execute(_transfer(1, 2, 10)).committed
    _reset_usage(session)
    merges.clear()
    committed = session.execute(_transfer(3, 4, OVERDRAFT))
    assert committed.committed, committed.reason
    after_commit = _keys_probed(session)
    aborted = session.execute(_transfer(5, 6, OVERDRAFT + 1))
    assert aborted.aborted
    assert aborted.reason.startswith("bounded_withdrawal (")
    return after_commit, _keys_probed(session) - after_commit, list(merges)


def test_transfer_cost_does_not_grow_with_accounts(merges):
    small = _probe_counts(1_000, merges)
    large = _probe_counts(20_000, merges)
    assert small[:2] == large[:2]
    assert small[0] < 20
    assert "account" not in small[2] + large[2]
