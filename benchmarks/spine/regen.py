"""``run.py --regen-expected``: rewrite ``expected/`` for the default seed
from the stock engine (generic interpreter, ``BeeSettings.stock()``)."""

from __future__ import annotations

import json
from types import SimpleNamespace

from repro.workloads.tpch.dbgen import TPCHGenerator
from repro.workloads.tpch.loader import generate_rows
from repro.workloads.tpch.queries import QUERIES

import verify
import wl_tpcc
import wl_tpch
from harness import DEFAULT_SEED, EXPECTED_DIR


def main() -> None:
    for kind, sf, numbers in (
        ("tpch", wl_tpch.SF, sorted(QUERIES)),
        ("tpch_parallel", wl_tpch.PARALLEL_SF, list(wl_tpch.PARALLEL_QUERIES)),
    ):
        rows = generate_rows(TPCHGenerator(sf, DEFAULT_SEED))
        verify.write_tpch_expected(kind, sf, DEFAULT_SEED, rows, numbers)
        print(f"wrote {verify.expected_path(kind, sf, DEFAULT_SEED)}")
    config = wl_tpcc.config_for(SimpleNamespace(quick=False, seed=DEFAULT_SEED))
    path = EXPECTED_DIR / f"tpcc_seed{DEFAULT_SEED}.json"
    path.write_text(json.dumps({
        "generator": "run.py --regen-expected (stock engine)",
        "seed": DEFAULT_SEED,
        "warehouses": config.warehouses,
        "checkpoint_transactions": wl_tpcc.CHECKPOINT,
        "digest": wl_tpcc.stock_digest(config, DEFAULT_SEED),
    }, indent=1) + "\n")
    print(f"wrote {path}")
