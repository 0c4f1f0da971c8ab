"""Closed-loop clients for the benchmark's four workloads.

Each client owns a seeded input generator and its own model of the state
the database must be in, so every outcome the engine reports is checked
against a verdict computed without the engine: commit or abort and the
aborting rule on the preventive path, the per-commit, per-rule verdicts on
the optimistic path, and the rows every read returns.

One client is one closed loop: a single thread that sends its next
transaction only after the previous one has returned.  Every
``VIOLATOR_EVERY``-th transaction is a seeded violator.  Every workload
also reads inside its loop through ``Session.query`` and checks the rows
against its model, so read latency is sampled across the whole window.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from collections import defaultdict
from time import perf_counter

from repro import Database, DatabaseSchema, IntegrityController, RelationSchema, Session
from repro.core.scheduler import DEFAULT_WORKERS
from repro.engine import INT, STRING
from repro.engine.wal import WriteAheadLog, verify_directory
from repro.workloads.section7 import (
    FK_SIZE,
    PK_SIZE,
    section7_controller,
    section7_schema,
    section7_transaction_text,
)

VIOLATOR_EVERY = 10

#: ``section7_execute`` takes a snapshot read of ``fk`` every this many
#: transactions (the bank workloads read one touched account after each),
#: keeping reads near 1% of the loop's time.  A bare relation name keeps
#: the read out of the plan cache, which the insert stream never fills.
SECTION7_READ_EVERY = 5

#: Audit pool size: the scheduler's default, but never more than the cores.
WORKERS = min(DEFAULT_WORKERS, os.cpu_count() or 1)

OVERDRAFT = 500
BANK_ACCOUNTS = 10_000
BANK_AUDIT_ACCOUNTS = 2_000

# The rule set of examples/bank_audit.py, pinned here so that editing the
# example cannot change what the benchmark measures: a state rule, a
# transition rule over account@old, an aggregate rule, and a compensating
# rule with a non-triggering action.
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

SECTION7_ROWS_PER_TXN = 20
MAX_AMOUNT = 10_000


def abort_rule(result) -> str:
    """The rule named by an abort reason (``"<rule> (n violating ...)"``)."""
    return result.reason.split(" (", 1)[0]


def delta_rows(result) -> int:
    return sum(
        len(plus or ()) + len(minus or ())
        for plus, minus in result.differentials.values()
    )


class Ledger:
    """Checked operations, latencies and counters of one run."""

    def __init__(self):
        #: The :class:`~tracer.Tracer` of a traced window, else None.
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.txn_ms: list = []
        self.read_ms: list = []
        self.delta_rows = 0
        self.audit_seconds = 0.0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def call(self, kind: str, samples, fn, *args, **kwargs):
        """Time one client call; a call that raises is a failed operation."""
        tracer = self.tracer
        start = perf_counter()
        try:
            if tracer is not None and tracer.active:
                result = tracer.span(kind, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        except Exception as error:  # the run goes on; the failure is counted
            self.check(False, f"{kind} raised {type(error).__name__}: {error}")
            return None
        if samples is not None:
            samples.append((perf_counter() - start) * 1e3)
        return result

    def txn(self, fn, *args, **kwargs):
        result = self.call("txn", self.txn_ms, fn, *args, **kwargs)
        if result is not None and result.committed:
            self.delta_rows += delta_rows(result)
        return result

    def read(self, session, text: str, pinned=None):
        """One ``Session.query`` with its result consumed (``len``)."""

        def query():
            relation = session.query(text, pinned=pinned)
            len(relation)
            return relation

        return self.call("read", self.read_ms, query)

    def note_outcomes(self, outcomes) -> None:
        for outcome in outcomes:
            self.audit_seconds += outcome.seconds


class Client:
    """One workload's generator, model and checks."""

    #: None for ``Session.execute``, else the ``Session.commit`` audit mode.
    audit = None

    def __init__(self, seed: int, ledger: Ledger, workdir):
        self.rng = random.Random(seed)
        self.ledger = ledger
        self.workdir = workdir
        self.database = None
        self.controller = None
        self.session = None
        self.commits = 0

    def check(self, ok: bool, what: str) -> None:
        self.ledger.check(ok, what)

    # Subclasses implement these.
    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, index: int, flip: bool) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def settle(self) -> None:
        """Collect outstanding work so the state can be inspected."""

    def teardown(self) -> None:
        """Close the session and drop the database, so that the next
        ``setup()`` does not build a second copy beside this one."""
        if self.session is not None:
            self.session.close()
        self.database = self.controller = self.session = None

    @property
    def scheduler(self):
        """The audit scheduler of the optimistic workloads, else None."""
        if self.audit is None:
            return None
        return self.controller.audit_scheduler(self.database)


class BankClient(Client):
    """Two-update transfers over the bank rule set.

    ``audit`` is None for the preventive path (``Session.execute``) and
    ``"sync"`` for the optimistic one (``Session.commit``).  Violators move
    501-900 out of an account whose balance stays above the overdraft line,
    so ``bounded_withdrawal`` is the only rule they break.
    """

    def __init__(self, seed, ledger, workdir, accounts: int, audit=None):
        super().__init__(seed, ledger, workdir)
        self.accounts = accounts
        self.audit = audit

    def make_inputs(self) -> None:
        rng = self.rng
        self.initial = [
            (key, f"owner{key}", rng.randint(1000, 5000))
            for key in range(self.accounts)
        ]
        self.balance = [row[2] for row in self.initial]
        self.audit_rows: set = set()

    def setup(self) -> None:
        schema = DatabaseSchema(
            [
                RelationSchema(
                    "account", [("id", INT), ("owner", STRING), ("balance", INT)]
                ),
                RelationSchema("audit", [("account_id", INT), ("balance", INT)]),
            ]
        )
        database = Database(schema)
        database.load("account", self.initial)
        controller = IntegrityController(schema)
        for rule in BANK_RULES:
            controller.add_rule(rule)
        controller.install_indexes(database)
        if self.audit is not None:
            controller.audit_scheduler(database, workers=WORKERS)
        self.database, self.controller = database, controller
        self.session = Session(database, controller)

    def _transfer(self, violator: bool):
        rng, balance = self.rng, self.balance
        while True:
            source, target = rng.sample(range(self.accounts), 2)
            amount = rng.randint(501, 900) if violator else rng.randint(1, OVERDRAFT)
            if balance[source] - amount >= -OVERDRAFT:
                return source, target, amount

    def step(self, index: int, flip: bool) -> None:
        violator = index % VIOLATOR_EVERY == VIOLATOR_EVERY - 1
        source, target, amount = self._transfer(violator)
        text = (
            f"begin update(account, id = {source}, balance := balance - {amount}); "
            f"update(account, id = {target}, balance := balance + {amount}); end"
        )
        if self.audit is None:
            self._execute(text, violator, flip, source, target, amount)
        else:
            self._commit(text, violator, flip, source, target, amount)
        self._read(source if index % 2 else target)

    def _apply(self, source, target, amount) -> None:
        self.balance[source] -= amount
        self.balance[target] += amount

    def _execute(self, text, violator, flip, source, target, amount) -> None:
        before = len(self.database.relation("audit"))
        result = self.ledger.txn(self.session.execute, text)
        expected_growth = 0
        if not violator:
            self._apply(source, target, amount)
            added = {
                (source, self.balance[source]),
                (target, self.balance[target]),
            } - self.audit_rows
            self.audit_rows |= added
            expected_growth = len(added)
            self.commits += 1
        if result is None:
            return
        if violator != flip:
            self.check(
                result.aborted and abort_rule(result) == "bounded_withdrawal",
                f"transfer {_brief(text)}: expected abort on bounded_withdrawal, "
                f"got {result!r}",
            )
        else:
            self.check(
                result.committed
                and len(self.database.relation("audit")) - before == expected_growth,
                f"transfer {_brief(text)}: expected commit adding "
                f"{expected_growth} audit row(s), got {result!r}",
            )

    def _commit(self, text, violator, flip, source, target, amount) -> None:
        result = self.ledger.txn(self.session.commit, text, audit="sync")
        self._apply(source, target, amount)
        self.commits += 1
        if result is None:
            return
        # audit_trail's compensation does not run when the transaction is
        # not modified, so every optimistic commit violates it.
        expected = {"audit_trail"}
        if violator != flip:
            expected.add("bounded_withdrawal")
        outcomes = result.audit or []
        self.ledger.note_outcomes(outcomes)
        violated = {outcome.rule for outcome in outcomes if outcome.violated}
        self.check(
            result.committed
            and not any(outcome.failed for outcome in outcomes)
            and violated == expected,
            f"commit {_brief(text)}: expected violated {sorted(expected)}, "
            f"got {result!r} {outcomes}",
        )

    def _read(self, key: int) -> None:
        relation = self.ledger.read(self.session, f"select(account, id = {key})")
        if relation is not None:
            self.check(
                set(relation) == {(key, f"owner{key}", self.balance[key])},
                f"read of account {key}",
            )

    def finish(self) -> None:
        expected = [
            (key, owner, self.balance[key]) for key, owner, _ in self.initial
        ]
        self.check(
            self.database.relation("account").sorted_rows() == expected,
            "final account balances differ from the client's model",
        )
        self.check(
            set(self.database.relation("audit")) == self.audit_rows,
            "final audit rows differ from the client's model",
        )
        violated = self.session.verify_integrity()
        self.check(violated == [], f"verify_integrity() = {violated}")


def _brief(text: str) -> str:
    return " ".join(text.split())[:120]


class Section7Client(Client):
    """20-row ``fk`` inserts over the paper's Section 7 database.

    Both paths commit through a write-ahead log (``sync="interval"``).
    ``audit`` is None for ``Session.execute``; ``"async"`` commits through
    ``Session.commit(audit="async")`` and interleaves reads with the
    commits.  Violators carry one dangling ``ref``, which only ``fk_ref``
    rejects.
    """

    def __init__(self, seed, ledger, workdir, audit=None):
        super().__init__(seed, ledger, workdir)
        self.audit = audit
        self.wal_dir = None
        # Commit sequence -> rules the client expects the audit to flag.
        self.pending: dict = {}

    def make_inputs(self) -> None:
        rng = self.rng
        self.pk_rows = [(key, f"payload_{key}") for key in range(PK_SIZE)]
        self.fk_rows = [
            (row_id, rng.randrange(PK_SIZE), rng.randint(0, MAX_AMOUNT))
            for row_id in range(FK_SIZE)
        ]
        self.by_ref = defaultdict(set)
        self.amount_counts = [0] * (MAX_AMOUNT + 1)
        for row in self.fk_rows:
            self._add(row)
        self.fk_count = FK_SIZE
        self.next_id = FK_SIZE

    def _add(self, row) -> None:
        self.by_ref[row[1]].add(row)
        self.amount_counts[row[2]] += 1

    def setup(self) -> None:
        database = Database(section7_schema())
        database.load("pk", self.pk_rows)
        database.load("fk", self.fk_rows)
        controller = section7_controller()
        controller.install_indexes(database)
        self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=self.workdir)
        database.attach_wal(WriteAheadLog(self.wal_dir, sync="interval"))
        if self.audit is not None:
            controller.audit_scheduler(database, workers=WORKERS).start()
        self.database, self.controller = database, controller
        self.session = Session(database, controller)

    def teardown(self) -> None:
        super().teardown()
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)
            self.wal_dir = None

    def _batch(self, violator: bool) -> list:
        rng = self.rng
        rows = [
            (self.next_id + offset, rng.randrange(PK_SIZE), rng.randint(0, MAX_AMOUNT))
            for offset in range(SECTION7_ROWS_PER_TXN)
        ]
        self.next_id += SECTION7_ROWS_PER_TXN
        if violator:
            slot = rng.randrange(SECTION7_ROWS_PER_TXN)
            row_id, _, amount = rows[slot]
            rows[slot] = (row_id, PK_SIZE + rng.randrange(PK_SIZE), amount)
        return rows

    def step(self, index: int, flip: bool) -> None:
        violator = index % VIOLATOR_EVERY == VIOLATOR_EVERY - 1
        rows = self._batch(violator)
        if self.audit is None:
            self._execute(rows, violator, flip, index)
        else:
            self._commit(rows, violator, flip, index)

    def _execute(self, rows, violator, flip, index) -> None:
        result = self.ledger.txn(self.session.execute, section7_transaction_text(rows))
        if not violator:
            self._insert(rows)
        if result is not None and violator != flip:
            self.check(
                result.aborted and abort_rule(result) == "fk_ref",
                f"insert at id {rows[0][0]}: expected abort on fk_ref, got {result!r}",
            )
        elif result is not None:
            self.check(
                result.committed and result.tuples_inserted == SECTION7_ROWS_PER_TXN,
                f"insert at id {rows[0][0]}: expected commit, got {result!r}",
            )
        if index % SECTION7_READ_EVERY == 0:
            relation = self.ledger.read(self.session, "fk")
            if relation is not None:
                self.check(len(relation) == self.fk_count, "snapshot read of fk")

    def _commit(self, rows, violator, flip, index) -> None:
        text = section7_transaction_text(rows)
        result = self.ledger.txn(self.session.commit, text, audit="async")
        self._insert(rows)
        if result is not None:
            self.check(result.committed, f"commit at id {rows[0][0]}: {result!r}")
            sequence = self.database.commit_log.next_sequence - 1
            self.pending[sequence] = {"fk_ref"} if violator != flip else set()
        self._reads(index)

    def _insert(self, rows) -> None:
        for row in rows:
            self._add(row)
        self.fk_count += len(rows)
        self.commits += 1

    def _point_read(self, key: int, pinned) -> None:
        relation = self.ledger.read(
            self.session, f"select(fk, ref = {key})", pinned=pinned
        )
        if relation is not None:
            self.check(
                set(relation) == self.by_ref.get(key, set()),
                f"point read of fk.ref = {key}",
            )

    def _reads(self, index: int) -> None:
        rng = self.rng
        for _ in range(2):
            self._point_read(rng.randrange(PK_SIZE), pinned=True)
        relation = self.ledger.read(self.session, "pk")
        if relation is not None:
            self.check(len(relation) == PK_SIZE, "snapshot read of pk")
        if index % VIOLATOR_EVERY == VIOLATOR_EVERY - 1:
            threshold = rng.randint(MAX_AMOUNT - 500, MAX_AMOUNT - 1)
            relation = self.ledger.read(
                self.session, f"select(fk, amount > {threshold})", pinned=True
            )
            if relation is not None:
                expected = sum(self.amount_counts[threshold + 1 :])
                self.check(len(relation) == expected, f"scan fk.amount > {threshold}")
            self._collect(
                self.ledger.call("wait", None, self.session.wait_for_audits)
            )

    def _collect(self, outcomes) -> None:
        if outcomes is None:
            return
        self.ledger.note_outcomes(outcomes)
        violated: dict = defaultdict(set)
        covered: set = set()
        for outcome in outcomes:
            self.check(not outcome.failed, f"audit failed: {outcome!r}")
            covered.update(outcome.sequences)
            if outcome.violated:
                for sequence in outcome.sequences:
                    violated[sequence].add(outcome.rule)
        for sequence, expected in sorted(self.pending.items()):
            self.check(
                sequence in covered and violated.get(sequence, set()) == expected,
                f"commit #{sequence}: expected violated {sorted(expected)}, "
                f"got {sorted(violated.get(sequence, set()))}",
            )
        self.pending.clear()

    def settle(self) -> None:
        if self.audit is not None:
            self._collect(
                self.ledger.call("wait", None, self.session.wait_for_audits)
            )

    def _fk_rows(self) -> set:
        return {row for rows in self.by_ref.values() for row in rows}

    def finish(self) -> None:
        self.settle()
        expected = self._fk_rows()
        self.check(
            len(expected) == self.fk_count
            and set(self.database.relation("fk")) == expected,
            "final fk rows differ from the client's model",
        )
        if self.audit is None:
            violated = self.session.verify_integrity()
            self.check(violated == [], f"verify_integrity() = {violated}")
        last_sequence = self.database.commit_log.next_sequence - 1
        self.session.close()
        verification = verify_directory(self.wal_dir)
        self.check(
            verification.ok and verification.last_sequence == last_sequence,
            f"WAL chain: {verification!r}, expected last #{last_sequence}",
        )
        recovered = Database.recover(self.wal_dir)
        try:
            self.check(
                set(recovered.relation("fk")) == expected,
                "recovered fk rows differ from the client's model",
            )
        finally:
            recovered.detach_wal()


def make_client(workload: str, seed: int, ledger: Ledger, workdir) -> Client:
    if workload == "bank_execute":
        return BankClient(seed, ledger, workdir, BANK_ACCOUNTS)
    if workload == "bank_audit_sync":
        return BankClient(seed, ledger, workdir, BANK_AUDIT_ACCOUNTS, audit="sync")
    if workload == "section7_execute":
        return Section7Client(seed, ledger, workdir)
    if workload == "section7_audited_rw":
        return Section7Client(seed, ledger, workdir, audit="async")
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("bank_execute", "section7_execute", "section7_audited_rw", "bank_audit_sync")
