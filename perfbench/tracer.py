"""Span tracing of the engine's layers from outside the engine.

The tracer wraps the public functions each layer exposes — module
functions, methods of the benchmark's own database, session and scheduler
instances, and the statements of each ModT output — and records one span
per call: ``[name, parent index, start ns, end ns]``.  Spans stay in memory
and are written out when the run ends.  A span is recorded only on the
client thread and only inside a root span (one client call), so audit
worker threads and set-up run untraced.

A layer's self time is its spans' duration minus the part covered by its
child spans; the root's self time is the client call's time that no layer
accounts for.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from time import perf_counter_ns

from repro.algebra import evaluation, parser, planner
from repro.core.modification import StaticSelector
from repro.engine.transaction import Transaction

_ABSENT = object()


class StatementProxy:
    """Times one statement of a ModT output under its layer label."""

    __slots__ = ("tracer", "statement", "label")

    def __init__(self, tracer, statement, label):
        self.tracer = tracer
        self.statement = statement
        self.label = label

    def execute(self, context) -> None:
        return self.tracer.span(self.label, self.statement.execute, context)


class Tracer:
    """In-memory spans of one run, and the patches that record them."""

    def __init__(self):
        self.spans: list = []
        self.active = False
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._thread = threading.get_ident()
        self._patches: list = []
        self._pieces: list = []

    # -- spans -------------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        stack = self._stack
        record = [name, stack[-1] if stack else -1, perf_counter_ns(), 0]
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = perf_counter_ns()
            stack.pop()

    def wrap(self, name, fn):
        stack, thread = self._stack, self._thread

        def traced(*args, **kwargs):
            if not stack or threading.get_ident() != thread:
                return fn(*args, **kwargs)
            return self.span(name, fn, *args, **kwargs)

        return traced

    # -- installing ----------------------------------------------------------------

    def patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, replacement)

    def layer(self, owner, attribute: str, name: str) -> None:
        self.patch(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    def install(self, client) -> None:
        """Wrap every traced layer entry point of ``client``'s engine."""
        database, session = client.database, client.session
        self.layer(parser, "parse_transaction", "parser.parse")
        self.layer(parser, "parse_expression", "query.parse")
        self.layer(evaluation, "evaluate_expression", "query.eval")
        self.layer(planner, "get_plan", "planner.lookup")
        self.layer(planner, "reordered_expression", "planner.lookup")
        self.layer(database, "apply_deltas", "apply")
        self.layer(database.epochs, "end_write", "epochs.commit")
        self.layer(database.epochs, "pin_span", "epochs.commit")
        self.layer(database.epochs, "pin", "epochs.pin")
        if database.wal is not None:
            self.layer(database.wal, "append", "wal.append")
        scheduler = client.scheduler
        if scheduler is not None:
            self.layer(scheduler, "drain", "scheduler.drain")
            self.layer(scheduler, "wait", "scheduler.wait")
        self._patch_audit_tasks(client.controller)
        self._patch_selector()
        self._patch_manager(session)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attribute, original in reversed(self._patches):
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()

    def _patch_audit_tasks(self, controller) -> None:
        audit_tasks, counts = controller.audit_tasks, self.counts

        def traced(*args, **kwargs):
            tasks = audit_tasks(*args, **kwargs)
            counts["audit_tasks"] += len(tasks)
            counts["audit_tasks.full"] += sum(task.kind == "full" for task in tasks)
            return tasks

        self.patch(controller, "audit_tasks", traced)

    def _patch_selector(self) -> None:
        """Record the (rule, piece) pairs ModT appends, to label statements."""
        select, pieces = StaticSelector.select, self._pieces

        def traced(selector, performed):
            selected = select(selector, performed)
            pieces.extend(selected)
            return selected

        self.patch(StaticSelector, "select", traced)

    def _patch_manager(self, session) -> None:
        """Run ModT here, then hand the manager statement proxies.

        ``TransactionManager.execute`` applies the modifier itself; the
        wrapper applies it first (as the ``modt`` span) so each statement of
        the output can be labelled: the transaction's own statements as
        ``txn.user_stmt`` and each appended piece as ``txn.check.<rule>``.
        """
        manager, controller, counts = session.manager, session.controller, self.counts
        execute, modifier = manager.execute, manager.modifier

        def traced(transaction, modify=True):
            if not self._stack:
                return execute(transaction, modify=modify)
            labels = {}
            if modify and modifier is not None:
                self._pieces.clear()
                user = len(transaction.statements)
                transaction = self.span("modt", modifier, transaction)
                for rule, piece in self._pieces:
                    for statement in piece.statements:
                        labels[id(statement)] = "txn.check." + rule
                stats = controller.last_stats
                counts["modt.rules_selected"] += stats.rules_selected
                counts["modt.statements_appended"] += stats.statements_appended
                counts["modt.fallback_statements"] += stats.fallback_statements
                counts["modt.naive_fallback_statements"] += stats.naive_fallback_statements
                if len(transaction.statements) - len(labels) != user:
                    counts["unlabelled_statements"] += 1
            proxies = [
                StatementProxy(self, statement, labels.get(id(statement), "txn.user_stmt"))
                for statement in transaction.statements
            ]
            return self.span(
                "txn.manager",
                execute,
                Transaction(proxies, name=transaction.name),
                modify=False,
            )

        self.patch(manager, "execute", traced)

    # -- results ---------------------------------------------------------------------

    def self_times(self) -> dict:
        """``{(root name, layer name): self ns}`` over all recorded spans."""
        spans = self.spans
        child = [0] * len(spans)
        root = [None] * len(spans)
        for index, (name, parent, start, end) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                root[index] = root[parent]
            else:
                root[index] = name
        totals: dict = defaultdict(int)
        for index, (name, _parent, start, end) in enumerate(spans):
            totals[(root[index], name)] += end - start - child[index]
        return totals

    def root_totals(self) -> dict:
        """``{root name: (calls, total ns)}``."""
        totals: dict = defaultdict(lambda: [0, 0])
        for name, parent, start, end in self.spans:
            if parent < 0:
                totals[name][0] += 1
                totals[name][1] += end - start
        return {name: tuple(value) for name, value in totals.items()}

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record))
                handle.write("\n")
