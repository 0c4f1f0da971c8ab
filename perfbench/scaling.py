"""Record-only scaling probe: ``bank_execute`` transfers at 1k, 10k, 100k accounts.

Not one of the gated workloads: it runs a few transactions per size and
prints ms/txn per size and the 100k/1k ratio.  A transaction whose cost
follows |Δ| keeps the ratio near 1; one that follows |R| moves it towards
100 or beyond.

Usage::

    python3 perfbench/scaling.py
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from clients import BankClient, Ledger  # noqa: E402

SIZES = (1_000, 10_000, 100_000)
SEED = 1
WARM_TXNS = 3
TXNS = 10


def probe(accounts: int) -> dict:
    ledger = Ledger()
    client = BankClient(SEED, ledger, None, accounts)
    client.make_inputs()
    client.setup()
    try:
        for index in range(WARM_TXNS + TXNS):
            client.step(index, flip=False)
        client.finish()
    finally:
        client.teardown()
    return {
        "accounts": accounts,
        "ms_per_txn": statistics.median(ledger.txn_ms[WARM_TXNS:]),
        "correct": ledger.failed == 0,
    }


def main() -> int:
    rows = [probe(accounts) for accounts in SIZES]
    for row in rows:
        print(f"{row['accounts']:>7} accounts: {row['ms_per_txn']:9.2f} ms/txn")
    ratio = rows[-1]["ms_per_txn"] / rows[0]["ms_per_txn"]
    print(f"{SIZES[-1]}/{SIZES[0]} ratio: {ratio:.1f}x")
    print(json.dumps({"sizes": rows, "ratio": ratio}))
    return 0 if all(row["correct"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
