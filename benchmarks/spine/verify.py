"""Verification of what the benchmark times.

References come from the **stock** engine (generic interpreter,
``BeeSettings.stock()``): committed under ``expected/`` for the default
seed, computed live (untimed, sampled under a time cap) for any other.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.bees.settings import BeeSettings
from repro.oracle.normalize import rows_equivalent, sorted_canonical
from repro.workloads.tpch.loader import build_tpch_database
from repro.workloads.tpch.queries import QUERIES

from harness import DEFAULT_SEED, EXPECTED_DIR, now


def expected_path(kind: str, sf: float, seed: int):
    return EXPECTED_DIR / f"{kind}_sf{sf:g}_seed{seed}.json"


# -- TPC-H ---------------------------------------------------------------------


class TpchReference:
    """Stock result rows, vinstr and modeled seconds per query number.

    ``queries`` holds only the queries a reference exists for: all of
    them from a committed file, a seeded sample when computed live.
    """

    def __init__(self, queries: dict[int, dict], source: str) -> None:
        self.queries = queries
        self.source = source

    def check(self, number: int, rows) -> bool | None:
        """True/False against the reference; None when this query has
        no reference (not in the live sample)."""
        entry = self.queries.get(number)
        if entry is None:
            return None
        return rows_equivalent([tuple(r) for r in rows], entry["rows"])


def stock_reference(rows_by_relation, numbers, budget_s: float | None,
                    seed: int) -> dict[int, dict]:
    """Run *numbers* on a fresh stock database.  With a *budget_s* the
    queries run in a seeded random order until the budget is spent."""
    db = build_tpch_database(BeeSettings.stock(), rows=rows_by_relation)
    order = list(numbers)
    if budget_s is not None:
        random.Random(seed).shuffle(order)
    out: dict[int, dict] = {}
    started = now()
    for number in order:
        if budget_s is not None and out and now() - started > budget_s:
            break
        db.warm_cache()
        run = db.measure(lambda n=number: QUERIES[n](db))
        out[number] = {
            "rows": [tuple(r) for r in run.result],
            "stock_vinstr": run.instructions,
            "stock_model_s": run.seconds,
        }
    db.close()
    return out


def tpch_reference(kind: str, sf: float, seed: int, rows_by_relation,
                   numbers, budget_s: float) -> TpchReference:
    path = expected_path(kind, sf, seed)
    if seed == DEFAULT_SEED and path.exists():
        data = json.loads(path.read_text())
        queries = {
            int(n): {**entry, "rows": [tuple(r) for r in entry["rows"]]}
            for n, entry in data["queries"].items()
        }
        return TpchReference(queries, f"file:{path.name}")
    return TpchReference(
        stock_reference(rows_by_relation, numbers, budget_s, seed),
        "live-stock-sample",
    )


def write_tpch_expected(kind: str, sf: float, seed: int, rows_by_relation,
                        numbers) -> None:
    queries = stock_reference(rows_by_relation, numbers, None, seed)
    path = expected_path(kind, sf, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "generator": "run.py --regen-expected (stock engine)",
        "sf": sf,
        "seed": seed,
        "queries": {str(n): queries[n] for n in sorted(queries)},
    }, separators=(",", ":")) + "\n")


# -- TPC-C ---------------------------------------------------------------------


def state_digest(db, relations) -> str:
    """A digest of the logical content of *relations*, insensitive to
    physical row order; floats are rounded to 6 decimals."""
    digest = hashlib.sha256()
    for name in sorted(relations):
        rows = [
            tuple(round(v, 6) if isinstance(v, float) else v for v in row)
            for row in db.read_all(name)
        ]
        digest.update(name.encode())
        digest.update(repr(sorted_canonical(rows)).encode())
    return digest.hexdigest()


def tpcc_consistency(db) -> list[str]:
    """TPC-C consistency conditions 1-3 (clause 3.3.2), adapted to this
    repo's New-Order rollback, which consumes an order id without
    creating rows (so ids have gaps): returns the violations found.

    1. W_YTD = sum(D_YTD) per warehouse.
    2. max(O_ID) = max(NO_O_ID) <= D_NEXT_O_ID - 1 per district.
    3. The NEW-ORDER rows of a district are exactly the ORDER rows with
       no carrier, and they are the newest orders: no delivered order
       has an id above the oldest undelivered one.
    """
    problems: list[str] = []
    warehouses = {row[0]: row for row in db.read_all("warehouse")}
    districts = db.read_all("district")
    ytd_by_w: dict[int, float] = {}
    for d in districts:
        ytd_by_w[d[1]] = ytd_by_w.get(d[1], 0.0) + d[8]
    for w_id, w in warehouses.items():
        if abs(w[7] - ytd_by_w.get(w_id, 0.0)) > 1e-3:
            problems.append(f"cond1: W_YTD {w[7]} != sum(D_YTD) {ytd_by_w.get(w_id)} (w={w_id})")
    orders: dict[tuple, dict[int, object]] = {}
    for o in db.read_all("oorder"):
        orders.setdefault((o[2], o[1]), {})[o[0]] = o[5]
    new_orders: dict[tuple, set[int]] = {}
    for no in db.read_all("new_order"):
        new_orders.setdefault((no[2], no[1]), set()).add(no[0])
    for d in districts:
        key = (d[1], d[0])
        o_ids = orders.get(key, {})
        no_ids = new_orders.get(key, set())
        if o_ids and max(o_ids) > d[9] - 1:
            problems.append(f"cond2: max(O_ID) {max(o_ids)} > D_NEXT_O_ID-1 {d[9] - 1} {key}")
        if no_ids and max(no_ids) != max(o_ids, default=None):
            problems.append(f"cond2: max(NO_O_ID) {max(no_ids)} != max(O_ID) {key}")
        undelivered = {o_id for o_id, carrier in o_ids.items() if carrier is None}
        if undelivered != no_ids:
            problems.append(f"cond3: NEW-ORDER rows != undelivered orders {key}")
        delivered = set(o_ids) - undelivered
        if undelivered and delivered and max(delivered) > min(undelivered):
            problems.append(f"cond3: delivered order above the oldest undelivered {key}")
    return problems
