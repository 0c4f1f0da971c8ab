"""Analytic cost model for the simulated multi-node system.

We cannot time an 8-node POOMA multiprocessor; we *can* count exactly the
work the fragmented enforcement algorithms perform (tuples scanned, hash
probes, tuples shipped, messages exchanged — all produced by really running
the algorithms on the fragments) and convert the counts into time with
per-unit costs.

The default parameter set :data:`POOMA_1992` is calibrated against the two
measurements Section 7 publishes for the 5000-key / 50000-FK workload on
8 nodes:

* referential check after inserting 5000 FK tuples: "within 3 seconds";
* domain check in the same situation: "less than 1 second".

With the differential optimization the referential check probes the 5000
inserted tuples against a hash table built over the 5000-tuple key
relation, and the domain check scans the 5000 inserted tuples.  Solving

    domain:       5000 * scan / 8                   ~= 0.8 s
    referential:  (5000 * build + 5000 * probe) / 8 ~= 2.5 s

gives ``scan ≈ 1.28 ms``, ``build + probe ≈ 4 ms`` per tuple — slow by
2026 standards, entirely plausible for interpreted POOL-X objects on 1992
hardware.  *Absolute* simulated times are therefore anchored to the paper;
*relative* behaviour (scaling curves, strategy comparisons) comes from the
measured counts alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.parallel.nodes import NodeStats


@dataclass(frozen=True)
class CostModel:
    """Per-unit costs (seconds) of the simulated machine."""

    scan_per_tuple: float
    build_per_tuple: float
    probe_per_tuple: float
    transfer_per_tuple: float
    message_latency: float
    startup: float = 0.0

    def node_time(self, stats: NodeStats) -> float:
        """CPU + communication time of one node."""
        cpu = stats.tuples_processed * self.scan_per_tuple
        comm = (
            (stats.tuples_sent + stats.tuples_received) * self.transfer_per_tuple
            + stats.messages_sent * self.message_latency
        )
        return cpu + comm

    def parallel_time(self, per_node: Dict[int, NodeStats]) -> float:
        """Makespan: slowest node bounds the enforcement step."""
        if not per_node:
            return self.startup
        return self.startup + max(
            self.node_time(stats) for stats in per_node.values()
        )

    def weighted_node_time(
        self,
        stats: NodeStats,
        scanned: int = 0,
        built: int = 0,
        probed: int = 0,
    ) -> float:
        """Time with operator-specific weights (scan/build/probe split)."""
        cpu = (
            scanned * self.scan_per_tuple
            + built * self.build_per_tuple
            + probed * self.probe_per_tuple
        )
        comm = (
            (stats.tuples_sent + stats.tuples_received) * self.transfer_per_tuple
            + stats.messages_sent * self.message_latency
        )
        return cpu + comm

    def plan_time(self, estimate, nodes: int = 1) -> float:
        """Predicted time of a physical plan from the planner's estimate.

        ``estimate`` is a :class:`repro.algebra.physical.PlanEstimate`
        (tuple counts by work kind); the work is assumed perfectly
        partitioned over ``nodes`` — the same idealization Section 7's
        calibration uses.  Unlike :meth:`weighted_node_time` this needs no
        post-hoc operator trace: it prices a plan *before* running it.
        Transfer work the estimate carries (``transferred``/``messages``,
        filled in by the fragment-aware enforcement layer) is priced at the
        model's per-tuple transfer cost and message latency — it is wire
        work, so it does not divide by the node count.
        """
        cpu = (
            estimate.scanned * self.scan_per_tuple
            + estimate.built * self.build_per_tuple
            + estimate.probed * self.probe_per_tuple
        )
        comm = (
            getattr(estimate, "transferred", 0.0) * self.transfer_per_tuple
            + getattr(estimate, "messages", 0.0) * self.message_latency
        )
        return self.startup + cpu / max(nodes, 1) + comm

    def ship_time(
        self, tuples: float, nodes: int, replicate: bool = False
    ) -> float:
        """Cost of moving ``tuples`` rows to ``nodes`` nodes.

        Partitioned shipping (the repartition strategies) sends each tuple
        to exactly one node; ``replicate`` (broadcast) sends every tuple to
        every node.  One message per receiving node either way.
        """
        factor = nodes if replicate else 1
        return (
            tuples * factor * self.transfer_per_tuple
            + nodes * self.message_latency
        )


# Calibrated to Section 7 (see module docstring).  scan 1.28 ms; hash build
# 2.4 ms; hash probe 1.6 ms; transfer 0.2 ms/tuple; message latency 5 ms.
POOMA_1992 = CostModel(
    scan_per_tuple=1.28e-3,
    build_per_tuple=2.4e-3,
    probe_per_tuple=1.6e-3,
    transfer_per_tuple=0.2e-3,
    message_latency=5e-3,
    startup=0.05,
)

def predict_enforcement_time(
    expression,
    cardinalities=None,
    model: "CostModel" = POOMA_1992,
    nodes: int = 1,
    database=None,
    deltas=None,
) -> float:
    """Price an enforcement expression from planner estimates alone.

    Compiles (or fetches the cached plan of) the algebra ``expression``,
    asks the planner for its static cardinality/work estimate under the
    given relation ``cardinalities``, and converts it to seconds with
    ``model``.  This replaces the old trace-then-price loop for what-if
    questions ("would this constraint be enforceable at 1M tuples on 8
    nodes?") — no data or execution needed.

    Passing ``database`` instead of ``cardinalities`` prices the plan under
    *runtime statistics* (observed cardinalities plus index distinct-key
    counts, drift-cached by :func:`repro.algebra.planner.plan_estimate`) —
    sharper selectivities for the index-accelerated plan shapes.

    ``deltas`` maps auxiliary differential names (``"fk@plus"``) to their
    expected tuple counts; delta-plan scans price from these |Δ| values
    instead of |R|, which is what makes the enforcement scheduler prefer a
    differential program over full re-evaluation whenever one exists.
    Without explicit ``deltas``, a ``database`` still prices delta scans
    from its *observed* per-relation |Δ| distribution
    (:class:`~repro.engine.database.DeltaObservations`, exposed through the
    statistics snapshot); the fixed default only remains for cold starts.
    """
    from repro.algebra.planner import estimate_expression, plan_estimate

    if deltas:
        # Overlay the delta sizes onto the same statistics the full plan is
        # priced under (index distinct-key counts included), so a scheduler
        # comparing delta vs full compares like with like.  No estimate
        # caching here: delta sizes vary per transaction.
        from repro.algebra.statistics import RuntimeStatistics

        if database is not None:
            base = RuntimeStatistics.capture(database)
        elif hasattr(cardinalities, "cardinalities"):
            base = cardinalities
        else:
            base = RuntimeStatistics(cardinalities or {})
        stats = RuntimeStatistics(
            {**base.cardinalities, **deltas},
            base.distinct,
            base.logical_time,
            delta_sizes=getattr(base, "delta_sizes", None),
        )
        estimate = estimate_expression(expression, stats)
    elif database is not None:
        estimate = plan_estimate(expression, database)
    else:
        estimate = estimate_expression(expression, cardinalities)
    return model.plan_time(estimate, nodes)


def predict_commit_time(
    deltas,
    model: "CostModel" = POOMA_1992,
    nodes: int = 1,
    database=None,
) -> float:
    """Price a transaction's write path from its |Δ| alone.

    ``deltas`` maps relation names (or ``R@plus``/``R@minus`` auxiliary
    names) to expected changed-tuple counts.  Each delta tuple costs one
    scan unit (the in-place dictionary update of
    :meth:`repro.engine.database.Database.apply_deltas`) plus one build
    unit per *built* hash index maintained on the relation (discovered from
    ``database`` when given).  Before the overlay write path this had to be
    priced by |R|: the eager working copy duplicated every touched relation
    on first write, so a one-tuple update against a million-tuple relation
    cost a million scan units.  Now the cost model's answer — like the
    engine's — depends only on what the transaction changes.
    """
    from repro.engine import naming

    work = 0.0
    for name, size in deltas.items():
        base = naming.base_of(name)
        built_indexes = 0
        if database is not None and base in database:
            indexes = database.relation(base).indexes
            if indexes is not None:
                built_indexes = sum(1 for index in indexes if index.built)
        work += float(size) * (
            model.scan_per_tuple + built_indexes * model.build_per_tuple
        )
    return model.startup + work / max(nodes, 1)


def predict_audit_time(
    program,
    cardinalities=None,
    model: "CostModel" = POOMA_1992,
    nodes: int = 1,
    database=None,
    deltas=None,
    ship: Optional[str] = None,
) -> float:
    """Price a full or differential audit of an integrity program.

    Sums the planner estimates of every relation-valued expression the
    program's statements evaluate — the alarm arguments, any temporary
    assignments feeding them, and the compiled sub-plans of
    ``CheckConstraint`` fallback statements (resolved through
    :mod:`repro.calculus.planned` when a ``database`` supplies the schema) —
    i.e. the plan shapes the unified audit path of
    :meth:`repro.core.subsystem.IntegrityController.violated_constraints`
    executes, charging the model's startup once.

    ``deltas`` maps auxiliary differential names (``"fk@plus"``) to tuple
    counts so *differential* programs price their delta scans from |Δ| —
    the audit scheduler uses this to decide sync-inline vs fan-out per
    rule.  With ``nodes > 1`` the audit is priced as a fragmented fan-out,
    and ``ship`` adds the movement cost of getting a coordinator-held Δ to
    the nodes: ``"repartition"`` ships each delta tuple to one node,
    ``"broadcast"`` replicates the delta everywhere — the shipping-Δ vs
    shipping-fragments comparison the fragment-aware pipeline makes.
    """
    from repro.algebra import planner
    from repro.algebra.statements import DifferentialAlarm

    seconds = model.startup
    stats = None
    if deltas:
        from repro.algebra.statistics import RuntimeStatistics

        if database is not None:
            base = RuntimeStatistics.capture(database)
        elif hasattr(cardinalities, "cardinalities"):
            base = cardinalities
        else:
            base = RuntimeStatistics(cardinalities or {})
        stats = RuntimeStatistics(
            {**base.cardinalities, **deltas},
            base.distinct,
            base.logical_time,
            delta_sizes=getattr(base, "delta_sizes", None),
        )
    for statement in program:
        expressions = list(planner.statement_expressions(statement))
        if isinstance(statement, DifferentialAlarm):
            # Priced as the branch it runs while its key premise holds.
            expressions = expressions[:1] if statement.delta is not None else []
        formula = getattr(statement, "formula", None)
        if not expressions and formula is not None and database is not None:
            from repro.calculus.planned import compile_constraint

            expressions = list(
                compile_constraint(formula, database.schema).plan_expressions()
            )
        for expression in expressions:
            if stats is not None:
                estimate = planner.estimate_expression(expression, stats)
            elif database is not None:
                estimate = planner.plan_estimate(expression, database)
            else:
                estimate = planner.estimate_expression(expression, cardinalities)
            seconds += model.plan_time(estimate, nodes) - model.startup
    if ship is not None and nodes > 1 and deltas:
        seconds += model.ship_time(
            sum(deltas.values()), nodes, replicate=(ship == "broadcast")
        )
    return seconds


# A contemporary in-memory machine, for the EXPERIMENTS.md comparison runs.
MODERN_2026 = CostModel(
    scan_per_tuple=20e-9,
    build_per_tuple=60e-9,
    probe_per_tuple=40e-9,
    transfer_per_tuple=8e-9,
    message_latency=2e-6,
    startup=1e-4,
)
