"""Seeded generator of the short-statement stream (``sql_short`` and,
minus INSERT, ``server_mixed``).

The stream touches only the five small TPC-H relations.  Writes are
commuting increments (``x = x + 1`` by key) and inserts of fresh keys,
so the final state of every key is *initial + acknowledged increments*
whatever order concurrent clients ran them in.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# class -> share of the stream
MIX = {
    "lookup": 0.40,
    "groupby": 0.15,
    "join": 0.10,
    "topn": 0.05,
    "upd_supplier": 0.20,
    "upd_customer": 0.07,
    "insert": 0.03,
}
READ_CLASSES = ("lookup", "groupby", "join", "topn")
WRITE_CLASSES = ("upd_supplier", "upd_customer", "insert")
INSERT_KEY_BASE = 1000   # region keys of inserted rows start here
BLOCK = 100              # statements per stratified block


@dataclass(frozen=True)
class Statement:
    cls: str
    sql: str
    key: tuple | None = None   # (relation, key) a write increments

    @property
    def is_write(self) -> bool:
        return self.cls in WRITE_CLASSES


def generate(seed: int, n: int, sizes: dict[str, int],
             inserts: bool = True) -> list[Statement]:
    """The first *n* statements of :func:`stream`."""
    return list(itertools.islice(stream(seed, sizes, inserts), n))


def stream(seed: int, sizes: dict[str, int], inserts: bool = True):
    """An endless statement stream for relations of the given row counts.

    The same ``(seed, sizes, inserts)`` always yields the same sequence,
    so a time-boxed run executes a prefix of one fixed stream.  Classes
    come in shuffled blocks of ``BLOCK`` statements that each hold the
    mix exactly: a customer update costs ten lookups, so leaving the
    class counts to chance would move every per-statement average by
    several percent from seed to seed.
    """
    rng = random.Random(seed)
    block = [c for c, w in MIX.items() for _ in range(round(w * BLOCK))
             if inserts or c != "insert"]
    inserted = 0
    for cls in _shuffled_forever(block, rng):
        if cls == "lookup":
            table = rng.choice(("supplier", "customer", "part"))
            key = rng.randint(1, sizes[table])
            sql = {
                "supplier": "SELECT s_name, s_acctbal FROM supplier WHERE s_suppkey = {}",
                "customer": "SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = {}",
                "part": "SELECT p_name, p_retailprice FROM part WHERE p_partkey = {}",
            }[table].format(key)
            yield Statement(cls, sql)
        elif cls == "groupby":
            if rng.random() < 0.5:
                sql = ("SELECT c_mktsegment, COUNT(*), SUM(c_acctbal) FROM customer "
                       f"WHERE c_nationkey < {rng.randint(5, 24)} GROUP BY c_mktsegment")
            else:
                sql = ("SELECT p_brand, COUNT(*), AVG(p_retailprice) FROM part "
                       f"WHERE p_size < {rng.randint(5, 50)} GROUP BY p_brand")
            yield Statement(cls, sql)
        elif cls == "join":
            if rng.random() < 0.7:
                sql = ("SELECT n_name, COUNT(*), SUM(s_acctbal) FROM supplier "
                       "JOIN nation ON s_nationkey = n_nationkey "
                       f"WHERE s_acctbal > {rng.randint(-500, 5000)} "
                       "GROUP BY n_name ORDER BY n_name")
            else:
                sql = ("SELECT r_name, COUNT(*) FROM nation JOIN region "
                       "ON n_regionkey = r_regionkey "
                       f"WHERE n_nationkey < {rng.randint(5, 25)} "
                       "GROUP BY r_name ORDER BY r_name")
            yield Statement(cls, sql)
        elif cls == "topn":
            sql = ("SELECT c_custkey, c_acctbal FROM customer "
                   f"WHERE c_nationkey = {rng.randint(0, 24)} "
                   f"ORDER BY c_acctbal DESC, c_custkey LIMIT {rng.randint(3, 10)}")
            yield Statement(cls, sql)
        elif cls == "upd_supplier":
            key = rng.randint(1, sizes["supplier"])
            yield Statement(
                cls,
                f"UPDATE supplier SET s_acctbal = s_acctbal + 1 WHERE s_suppkey = {key}",
                ("supplier", key),
            )
        elif cls == "upd_customer":
            key = rng.randint(1, sizes["customer"])
            yield Statement(
                cls,
                f"UPDATE customer SET c_acctbal = c_acctbal + 1 WHERE c_custkey = {key}",
                ("customer", key),
            )
        else:
            key = INSERT_KEY_BASE + inserted
            inserted += 1
            yield Statement(
                cls,
                f"INSERT INTO region VALUES ({key}, 'SPINE{key}', 'inserted by the spine benchmark')",
                ("region", key),
            )


def _shuffled_forever(block: list[str], rng: random.Random):
    while True:
        rng.shuffle(block)
        yield from block


def poisson_due_times(seed: int, rate: float, duration: float) -> list[float]:
    """Seeded Poisson arrivals: offsets in seconds from the phase start."""
    rng = random.Random(seed)
    out: list[float] = []
    at = rng.expovariate(rate)
    while at < duration:
        out.append(at)
        at += rng.expovariate(rate)
    return out
