"""The repository benchmark: whole transactions on both enforcement paths.

One closed-loop client drives textual transactions through the public
``Session`` API of the engine built from ``src/`` (one process, one client
thread, the next transaction only after the previous one returns):

* ``bank_execute`` — preventive path (``Session.execute`` → ModT) on the
  bank rule set at 10,000 accounts;
* ``section7_execute`` — preventive path on the paper's Section 7 database,
  20-row inserts, committed through a write-ahead log;
* ``bank_audit_sync`` — optimistic path (``Session.commit(audit="sync")``)
  on the bank rule set at 2,000 accounts;
* ``section7_audited_rw`` (runnable, not listed in ``BENCHMARK.json``) —
  optimistic path (``Session.commit(audit="async")``) on the Section 7
  database with a write-ahead log, pinned reads after every commit and an
  audit wait every 10th.

Usage::

    python3 perfbench/run.py --workload bank_execute --seed 1 --seconds 10 --trace 0

Each run sets up repeatedly (in a forked child) and once more, warms up
until the epoch retention and the plan cache stop changing, measures for
``--seconds``, checks the final state, and then sets up repeatedly again
(``setup_s`` is the median of all set-ups).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``; with ``--trace 1``
the per-layer metrics of a traced window that follows an untraced one of
the same length (their ``txn_p50_ms`` ratio is the tracing overhead).  The
traced spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.algebra import planner  # noqa: E402

from clients import WORKLOADS, Ledger, make_client  # noqa: E402
from tracer import Tracer  # noqa: E402

#: ``setup_s`` is the median of the set-up the run uses and of two rounds
#: of repeated set-ups, each lasting ``SETUP_ROUND_S``: one before the
#: warm-up and one after the final checks, so that set-up is sampled at two
#: moments of the run.  The first round runs in a forked child, so that
#: the allocator churn of rebuilding the database does not raise
#: ``peak_rss_mb``.
SETUP_ROUND_S = 2.5
#: Consecutive client steps over which the steady-state gauges must hold.
STABLE_STEPS = 50
#: Warm-up gives up (and the run is flagged not steady) after this long.
WARMUP_LIMIT_S = 60.0
#: The per-layer gate: layers must account for this share of the wall time.
MIN_ATTRIBUTED = 0.90

CHECK_RULES = (
    "no_deep_overdraft",
    "bounded_withdrawal",
    "bank_solvent",
    "audit_trail",
    "fk_ref",
    "fk_domain",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "txn_p90_ms": "ms",
    "read_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def percentile(samples, fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


class Gauges:
    """Counters read at the start and end of a window."""

    def __init__(self, client):
        database = client.database
        scheduler = client.scheduler
        cache = planner.plan_cache_info()
        self.retained = database.epochs.retained()
        self.reclaimed = database.epochs.reclaimed
        self.cache_size = cache["size"]
        self.cache_hits = cache["hits"]
        self.cache_misses = cache["misses"]
        self.keys_probed = sum(
            index.usage.keys
            for name in database.relation_names
            for index in (database.relation(name).indexes or ())
        )
        wal = database.wal
        self.wal_bytes = sum(path.stat().st_size for path in wal.segments()) if wal else 0
        self.fanned_out = scheduler.fanned_out if scheduler else 0
        self.ran_inline = scheduler.ran_inline if scheduler else 0
        ledger = client.ledger
        self.delta_rows = ledger.delta_rows
        self.audit_seconds = ledger.audit_seconds

    @property
    def steady_key(self) -> tuple:
        return (self.retained, self.cache_size)


class Runner:
    def __init__(self, workload, seed, seconds, trace, max_steps=None,
                 warmup=True, flip_at=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.max_steps = max_steps
        self.warmup = warmup
        self.flip_at = flip_at
        self.step_index = 0
        self.window_steps = 0

    def step(self) -> None:
        flip = self.flip_at is not None and self.window_steps == self.flip_at
        self.client.step(self.step_index, flip)
        self.step_index += 1

    def warm_up(self) -> int:
        client = self.client
        retain = client.database.epochs.retain
        history = []
        start = perf_counter()
        while perf_counter() - start < WARMUP_LIMIT_S:
            self.step()
            history.append(
                (client.database.epochs.retained(), planner.plan_cache_info()["size"])
            )
            if (
                client.commits > retain
                and len(history) > STABLE_STEPS
                and len(set(history[-STABLE_STEPS:])) == 1
            ):
                break
        return len(history)

    def window(self, seconds):
        """Run client steps for ``seconds``: step count, time, gauges, samples."""
        client, ledger = self.client, self.client.ledger
        client.settle()
        gc.collect()
        before = Gauges(client)
        txn_start, read_start = len(ledger.txn_ms), len(ledger.read_ms)
        steps = 0
        start = perf_counter()
        while True:
            self.step()
            steps += 1
            self.window_steps += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds or (self.max_steps and steps >= self.max_steps):
                break
        client.settle()
        after = Gauges(client)
        return {
            "steps": steps,
            "elapsed": elapsed,
            "before": before,
            "after": after,
            "txn_ms": ledger.txn_ms[txn_start:],
            "read_ms": ledger.read_ms[read_start:],
        }

    @staticmethod
    def set_up(client, seconds: float) -> list:
        """Set up once, then again until ``seconds`` have passed; the client
        keeps the last set-up.  Returns the time of each."""
        times: list = []
        start = perf_counter()
        while not times or perf_counter() - start < seconds:
            if times:
                client.teardown()
            planner.clear_plan_cache()
            gc.collect()
            began = perf_counter()
            client.setup()
            times.append(perf_counter() - began)
        return times

    @classmethod
    def set_up_apart(cls, client, seconds: float) -> list:
        """``set_up`` in a forked child, whose memory does not count towards
        this process's ``ru_maxrss``.  Call it while no thread is running."""
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            status = 1
            try:
                times = cls.set_up(client, seconds)
                client.teardown()
                with os.fdopen(write_end, "w") as pipe:
                    json.dump(times, pipe)
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            reported = pipe.read()
        _, status = os.waitpid(pid, 0)
        if status != 0:
            raise RuntimeError(f"set-up in the forked child failed ({status})")
        return json.loads(reported)

    def run(self) -> dict:
        workdir = ROOT / ".perfbench_tmp"
        workdir.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=workdir))
        try:
            return self._run(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _run(self, workdir) -> dict:
        ledger = Ledger()
        self.client = client = make_client(self.workload, self.seed, ledger, workdir)
        client.make_inputs()
        setup_times = self.set_up_apart(client, SETUP_ROUND_S)
        setup_times += self.set_up(client, 0)
        try:
            warmup_steps = self.warm_up() if self.warmup else 0
            # Peak memory through one set-up and the warm-up to steady
            # state: it shows retained epochs and histories without
            # depending on how many transactions the window happens to fit.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if self.trace:
                untraced = self.window(self.seconds / 2)
                tracer = ledger.tracer = Tracer()
                tracer.install(client)
                try:
                    measured = self.window(self.seconds / 2)
                finally:
                    tracer.uninstall()
            else:
                measured = self.window(self.seconds)
            client.finish()
        finally:
            client.teardown()
        setup_times += self.set_up(client, SETUP_ROUND_S)
        client.teardown()
        steady = measured["before"].steady_key == measured["after"].steady_key
        info = {
            "workload": self.workload,
            "seed": self.seed,
            "setup_repeats": len(setup_times),
            "warmup_steps": warmup_steps,
            "window_steps": measured["steps"],
            "steady": steady,
            "retained": [measured["before"].retained, measured["after"].retained],
            "plan_cache_size": [
                measured["before"].cache_size,
                measured["after"].cache_size,
            ],
            "failures": ledger.failures,
        }
        correct = ledger.failed == 0
        if self.trace:
            metrics = self.layer_metrics(tracer, measured, untraced, steady)
            attributed = 1.0 - metrics["trace.unattributed_frac"]["value"]
            info["attributed"] = attributed
            gate = attributed >= MIN_ATTRIBUTED and not tracer.counts["unlabelled_statements"]
            correct = correct and gate
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans-{self.workload}-seed{self.seed}.jsonl")
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "txn_p90_ms": percentile(measured["txn_ms"], 0.90),
                "read_p90_ms": percentile(measured["read_ms"], 0.90),
                "ok_frac": (ledger.attempted - ledger.failed) / max(ledger.attempted, 1),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {
                name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in metrics.items()
            }
        return {
            "info": info,
            "result": {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            },
        }

    def layer_metrics(self, tracer, measured, untraced, steady) -> dict:
        before, after = measured["before"], measured["after"]
        txns = max(len(measured["txn_ms"]), 1)
        roots = tracer.root_totals()
        reads = max(roots.get("read", (0, 0))[0], 1)
        self_ns = tracer.self_times()

        def per_txn(*names):
            return sum(self_ns.get(("txn", name), 0) for name in names) / txns / 1e6

        def per_read(name):
            return self_ns.get(("read", name), 0) / reads / 1e6

        counts = tracer.counts
        lookups = (after.cache_hits - before.cache_hits) + (
            after.cache_misses - before.cache_misses
        )
        tasks = counts["audit_tasks"]
        fanned = after.fanned_out - before.fanned_out
        dispatched = fanned + after.ran_inline - before.ran_inline
        root_self = sum(self_ns.get((name, name), 0) for name in roots)
        root_total = sum(total for _, total in roots.values())
        checks = {
            f"txn.check_ms.{rule}": per_txn(f"txn.check.{rule}") for rule in CHECK_RULES
        }
        values = {
            "parser.parse_ms": (per_txn("parser.parse"), "ms"),
            "modt.ms": (per_txn("modt"), "ms"),
            "modt.rules_selected": (counts["modt.rules_selected"] / txns, "count"),
            "modt.statements_appended": (counts["modt.statements_appended"] / txns, "count"),
            "modt.fallback_statements": (counts["modt.fallback_statements"] / txns, "count"),
            "modt.naive_fallback_statements": (
                counts["modt.naive_fallback_statements"] / txns,
                "count",
            ),
            "txn.manager_ms": (per_txn("txn.manager"), "ms"),
            "txn.user_stmt_ms": (per_txn("txn.user_stmt"), "ms"),
            "txn.check_ms": (sum(checks.values()), "ms"),
            **{name: (value, "ms") for name, value in checks.items()},
            "planner.lookup_ms": (per_txn("planner.lookup"), "ms"),
            "planner.plan_cache_hit_ratio": (
                (after.cache_hits - before.cache_hits) / max(lookups, 1),
                "ratio",
            ),
            "indexes.keys_probed": ((after.keys_probed - before.keys_probed) / txns, "count"),
            "apply.ms": (per_txn("apply"), "ms"),
            "apply.delta_rows": ((after.delta_rows - before.delta_rows) / txns, "count"),
            "wal.append_ms": (per_txn("wal.append"), "ms"),
            "wal.bytes_per_txn": ((after.wal_bytes - before.wal_bytes) / txns, "B"),
            "epochs.commit_ms": (per_txn("epochs.commit"), "ms"),
            "epochs.pin_ms": (per_read("epochs.pin"), "ms"),
            "epochs.retained": (after.retained, "count"),
            "epochs.reclaimed": ((after.reclaimed - before.reclaimed) / txns, "count"),
            "scheduler.drain_ms": (per_txn("scheduler.drain"), "ms"),
            "scheduler.wait_ms": (
                self_ns.get(("wait", "scheduler.wait"), 0) / txns / 1e6,
                "ms",
            ),
            "scheduler.audit_task_ms": (
                (after.audit_seconds - before.audit_seconds) * 1e3 / txns,
                "ms",
            ),
            "scheduler.full_check_frac": (counts["audit_tasks.full"] / max(tasks, 1), "ratio"),
            "scheduler.fanout_ratio": (fanned / max(dispatched, 1), "ratio"),
            "query.parse_ms": (per_read("query.parse"), "ms"),
            "query.plan_ms": (per_read("planner.lookup"), "ms"),
            "query.eval_ms": (per_read("query.eval"), "ms"),
            "session.other_ms": (per_txn("txn"), "ms"),
            "trace.unattributed_frac": (root_self / max(root_total, 1), "ratio"),
            "client.txn_per_s": (untraced["steps"] / untraced["elapsed"], "txn/s"),
            "client.txn_p50_ms": (statistics.median(untraced["txn_ms"]), "ms"),
            "client.txn_p95_ms": (percentile(untraced["txn_ms"], 0.95), "ms"),
            "client.read_p50_ms": (statistics.median(untraced["read_ms"]), "ms"),
            "client.read_p95_ms": (percentile(untraced["read_ms"], 0.95), "ms"),
            "trace.overhead_ratio": (
                statistics.median(measured["txn_ms"]) / statistics.median(untraced["txn_ms"]),
                "ratio",
            ),
            "window.steady": (1 if steady else 0, "flag"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    outcome = Runner(args.workload, args.seed, args.seconds, args.trace).run()
    print("# " + json.dumps(outcome["info"]))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
