"""The five TPC-C transaction types.

Transactions run against the database through index lookups, deforms, and
the DML paths, so they exercise exactly the routines the paper credits for
the TPC-C gains: every fetched tuple goes through GCL (or the generic
``slot_deform_tuple``), every written tuple through SCL (or the generic
``heap_fill_tuple``), and every predicate is priced through EVP or the
generic expression interpreter.
"""

from __future__ import annotations

import datetime
import random

from repro.cost import constants as C
from repro.catalog.types import date_to_days
from repro.engine.expr import Between, Cmp, Col, Const, bind

_TODAY = date_to_days(datetime.date(2011, 8, 1))


class TransactionContext:
    """Shared machinery for one terminal's transactions against one DB."""

    def __init__(self, db, config, seed: int = 7) -> None:
        self.db = db
        self.config = config
        self.rng = random.Random(seed)
        self.ledger = db.ledger
        self._deformers: dict[str, tuple] = {}
        # Representative predicate shapes, built once and priced per use
        # (generic interpretation vs the EVP query-bee routine).
        self._stock_pred = bind(
            Cmp("<", Col("s_quantity"), Const(0)),
            ["s_quantity"],
        )
        self._range_pred = bind(
            Between(Col("ol_o_id"), 0, 0), ["ol_o_id"]
        )

    # -- primitive charged operations ------------------------------------------

    def _deform(self, rel, raw: bytes) -> list:
        if self.db.settings.gcl and rel.bee is not None:
            return rel.bee.gcl.fn(raw, rel.sections_list())
        return rel.generic_deformer(raw, rel.sections_list())

    def charge_predicate(self, expr, evaluations: int = 1) -> None:
        """Price *evaluations* predicate evaluations (EVP vs generic)."""
        if evaluations <= 0:
            return
        if self.db.settings.evp:
            self.ledger.charge_fn(
                "EVP_tpcc", (C.EVP_PROLOGUE + expr.evp_cost) * evaluations
            )
        else:
            self.ledger.charge_fn(
                "ExecQual", expr.generic_cost * evaluations
            )

    def charge_join(self, join_type: str, n_keys: int, comparisons: int) -> None:
        """Price join-qual evaluations (EVJ query bee vs generic dispatch)."""
        if comparisons <= 0:
            return
        if self.db.settings.evj:
            routine = self.db.bee_module.get_evj(join_type, n_keys)
            self.ledger.charge_fn(
                routine.name, routine.cost_per_compare * comparisons
            )
        else:
            from repro.bees.routines.evj import GENERIC_JOIN

            self.ledger.charge_fn(
                "ExecNestLoop", GENERIC_JOIN.per_compare(n_keys) * comparisons
            )

    def fetch_by_index(self, relation: str, index: str, key: tuple) -> list:
        """All (tid, values) pairs for an index point lookup."""
        rel = self.db.relation(relation)
        out = []
        for tid in rel.indexes[index].lookup(key):
            self.ledger.charge(C.INDEXSCAN_NEXT)
            raw = rel.heap.fetch(tid, sequential=False)
            out.append((tid, self._deform(rel, raw)))
        return out

    def fetch_one(self, relation: str, index: str, key: tuple):
        """(tid, values) for a unique index lookup; raises if absent."""
        matches = self.fetch_by_index(relation, index, key)
        if not matches:
            raise LookupError(f"{relation}.{index} has no entry {key}")
        return matches[0]

    def fetch_range(
        self, relation: str, index: str, low: tuple, high: tuple
    ) -> list:
        """All (tid, values) pairs for a btree range lookup."""
        rel = self.db.relation(relation)
        out = []
        for tid in rel.indexes[index].range_lookup(low, high):
            self.ledger.charge(C.INDEXSCAN_NEXT)
            raw = rel.heap.fetch(tid, sequential=False)
            out.append((tid, self._deform(rel, raw)))
        return out

    # -- customer selection (spec: 60% by last name, 40% by id) ------------------

    def _pick_customer(self, w_id: int, d_id: int):
        from repro.workloads.tpcc.loader import c_last

        schema = self.db.relation("tpcc_customer").schema
        if self.rng.random() < 0.6:
            last = c_last(self.rng.randint(0, min(999, self.config.customers - 1)))
            matches = self.fetch_by_index(
                "tpcc_customer", "customer_last", (w_id, d_id, last)
            )
            if matches:
                first_idx = schema.attnum("c_first")
                matches.sort(key=lambda m: m[1][first_idx])
                return matches[len(matches) // 2]
        c_id = self.rng.randint(1, self.config.customers)
        return self.fetch_one(
            "tpcc_customer", "customer_pk", (w_id, d_id, c_id)
        )

    # -- the five transactions ----------------------------------------------------

    def new_order(self, w_id: int) -> bool:
        """New-Order: the tpmC transaction (read-heavy plus inserts).

        Per the spec (clause 2.4.1.4), ~1% of New-Order transactions carry
        an unused (invalid) item number and abort at the item lookup: the
        reads and the district-sequence bump are charged (and, as in real
        implementations, leave a gap in the order-id sequence), but no
        order, new-order, or order-line rows are written.
        """
        rng = self.rng
        cfg = self.config
        d_id = rng.randint(1, cfg.districts)
        c_id = rng.randint(1, cfg.customers)
        rollback = rng.random() < 0.01

        _w_tid, warehouse = self.fetch_one("warehouse", "warehouse_pk", (w_id,))
        w_tax = warehouse[6]
        d_tid, district = self.fetch_one("district", "district_pk", (w_id, d_id))
        d_tax, o_id = district[7], district[9]
        district[9] = o_id + 1
        d_tid = self.db.update_by_tid("district", d_tid, district)
        _c_tid, customer = self.fetch_one(
            "tpcc_customer", "customer_pk", (w_id, d_id, c_id)
        )
        c_discount = customer[14]

        if rollback:
            # Invalid item id: the lookup misses and the txn aborts.
            rel = self.db.relation("item")
            self.ledger.charge(C.INDEXSCAN_NEXT)
            assert rel.indexes["item_pk"].lookup((cfg.items + 1,)) == []
            return False

        ol_cnt = rng.randint(5, 15)
        self.db.insert(
            "oorder", [o_id, d_id, w_id, c_id, _TODAY, None, ol_cnt, 1]
        )
        self.db.insert("new_order", [o_id, d_id, w_id])

        total = 0.0
        for number in range(1, ol_cnt + 1):
            i_id = rng.randint(1, cfg.items)
            _i_tid, item = self.fetch_one("item", "item_pk", (i_id,))
            price = item[3]
            s_tid, stock = self.fetch_one("stock", "stock_pk", (w_id, i_id))
            quantity = rng.randint(1, 10)
            if stock[2] >= quantity + 10:
                stock[2] -= quantity
            else:
                stock[2] = stock[2] - quantity + 91
            stock[4] += quantity          # s_ytd
            stock[5] += 1                 # s_order_cnt
            self.db.update_by_tid("stock", s_tid, stock)
            amount = round(
                quantity * price * (1 + w_tax + d_tax) * (1 - c_discount), 2
            )
            total += amount
            self.db.insert("order_line", [
                o_id, d_id, w_id, number, i_id, w_id, None,
                quantity, amount, stock[3],
            ])
        return True

    def payment(self, w_id: int) -> bool:
        """Payment: update warehouse/district YTD and a customer balance.

        Per the spec (clause 2.5.1.2), ~15% of payments are made by a
        customer of a *remote* warehouse (when more than one exists).
        """
        rng = self.rng
        d_id = rng.randint(1, self.config.districts)
        amount = round(rng.uniform(1.0, 5000.0), 2)
        c_w_id = w_id
        if self.config.warehouses > 1 and rng.random() < 0.15:
            choices = [
                candidate
                for candidate in range(1, self.config.warehouses + 1)
                if candidate != w_id
            ]
            c_w_id = rng.choice(choices)

        w_tid, warehouse = self.fetch_one("warehouse", "warehouse_pk", (w_id,))
        warehouse[7] += amount
        self.db.update_by_tid("warehouse", w_tid, warehouse)

        d_tid, district = self.fetch_one("district", "district_pk", (w_id, d_id))
        district[8] += amount
        self.db.update_by_tid("district", d_tid, district)

        c_tid, customer = self._pick_customer(c_w_id, d_id)
        customer[15] -= amount            # c_balance
        customer[16] += amount            # c_ytd_payment
        customer[17] += 1                 # c_payment_cnt
        self.db.update_by_tid("tpcc_customer", c_tid, customer)

        self.db.insert("history", [
            customer[0], d_id, c_w_id, d_id, w_id, _TODAY, amount, "payment",
        ])
        return True

    def order_status(self, w_id: int) -> bool:
        """Order-Status: read a customer's latest order and its lines."""
        rng = self.rng
        d_id = rng.randint(1, self.config.districts)
        _c_tid, customer = self._pick_customer(w_id, d_id)
        c_id = customer[0]
        orders = self.fetch_range(
            "oorder", "oorder_cust", (w_id, d_id, c_id), (w_id, d_id, c_id)
        )
        if not orders:
            return True
        _o_tid, order = orders[-1]       # largest o_id
        lines = self.fetch_range(
            "order_line",
            "order_line_order",
            (w_id, d_id, order[0]),
            (w_id, d_id, order[0]),
        )
        self.charge_predicate(self._range_pred, len(lines))
        return True

    def delivery(self, w_id: int) -> bool:
        """Delivery: deliver the oldest undelivered order per district."""
        rng = self.rng
        carrier = rng.randint(1, 10)
        for d_id in range(1, self.config.districts + 1):
            pending = self.fetch_range(
                "new_order", "new_order_pk", (w_id, d_id), (w_id, d_id)
            )
            if not pending:
                continue
            no_tid, new_order = pending[0]
            o_id = new_order[0]
            self.db.delete_by_tid("new_order", no_tid)

            o_tid, order = self.fetch_one("oorder", "oorder_pk", (w_id, d_id, o_id))
            order[5] = carrier
            self.db.update_by_tid("oorder", o_tid, order)

            total = 0.0
            for ol_tid, line in self.fetch_range(
                "order_line", "order_line_order",
                (w_id, d_id, o_id), (w_id, d_id, o_id),
            ):
                line[6] = _TODAY
                total += line[8]
                self.db.update_by_tid("order_line", ol_tid, line)

            c_tid, customer = self.fetch_one(
                "tpcc_customer", "customer_pk", (w_id, d_id, order[3])
            )
            customer[15] += total
            customer[18] += 1
            self.db.update_by_tid("tpcc_customer", c_tid, customer)
        return True

    def stock_level(self, w_id: int) -> bool:
        """Stock-Level: count low-stock items in the last 20 orders."""
        rng = self.rng
        d_id = rng.randint(1, self.config.districts)
        threshold = rng.randint(10, 20)
        _d_tid, district = self.fetch_one("district", "district_pk", (w_id, d_id))
        next_o_id = district[9]
        lines = self.fetch_range(
            "order_line",
            "order_line_order",
            (w_id, d_id, max(1, next_o_id - 20)),
            (w_id, d_id, next_o_id),
        )
        self.charge_predicate(self._range_pred, len(lines))
        # The spec query is a join: order_line x stock on (w_id, i_id); each
        # line/stock pairing goes through the join qual (EVJ-specializable).
        self.charge_join("semi", 2, len(lines))
        item_ids = {line[4] for _tid, line in lines}
        low = 0
        for i_id in item_ids:
            _s_tid, stock = self.fetch_one("stock", "stock_pk", (w_id, i_id))
            self.charge_predicate(self._stock_pred, 1)
            if stock[2] < threshold:
                low += 1
        return True


TRANSACTION_TYPES = (
    "new_order", "payment", "order_status", "delivery", "stock_level",
)
