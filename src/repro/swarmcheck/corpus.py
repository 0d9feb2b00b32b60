"""The routine corpus the purity pass certifies.

Mirrors beecheck's sweep: a fuzzed-statement run against a live database
with every bee family enabled (collecting the GCL/SCL/EVP/EVJ/AGG/IDX
and fused-pipeline routines the engine actually memoized), a second run
with the vector tier on (vector kernels displace pipeline routines when
enabled, so they need their own database), and the deterministic
fused-spec corpus compiled through both fused tiers so every sink shape
is covered even when the fuzzed statements miss one.
"""

from __future__ import annotations


def collect(seed: int, statements: int) -> tuple[list, int]:
    """Build the corpus: ``([(kind, routine), ...], statements_run)``."""
    from repro.beecheck.cli import _fused_spec_corpus
    from repro.bees.pipeline.codegen import generate_pipeline
    from repro.bees.settings import BeeSettings
    from repro.bees.vector.codegen import generate_vector
    from repro.cost.ledger import Ledger
    from repro.db import Database
    from repro.oracle.generator import StatementGenerator
    from repro.oracle.normalize import run_statement

    corpus: list = []
    executed = 0

    def drive(db) -> None:
        nonlocal executed
        generator = StatementGenerator(seed)
        pending = list(generator.bootstrap())
        count = 0
        while count < statements:
            stmt = pending.pop(0) if pending else generator.next_statement()
            run_statement(db, stmt.sql)
            count += 1
        executed += count

    db = Database(BeeSettings.all_bees().enabling(pipelines=True))
    drive(db)
    module = db.bee_module
    for bee in module.cache.relation_bees.values():
        corpus.append(("gcl", bee.gcl))
        corpus.append(("scl", bee.scl))
    for _expr, routine in module.evp_entries():
        corpus.append(("evp", routine))
    for routine in module._evj_by_shape.values():
        corpus.append(("evj", routine))
    for _specs, routine in module.agg_entries():
        corpus.append(("agg", routine))
    for _key_indexes, routine in module._idx_by_index.values():
        corpus.append(("idx", routine))
    for _key, _anchor, _spec, routine in module.fused_entries("pipeline"):
        corpus.append(("pipeline", routine))

    vdb = Database(BeeSettings.vectorized())
    drive(vdb)
    for _key, _anchor, _spec, routine in vdb.bee_module.fused_entries("vector"):
        corpus.append(("vector", routine))

    ledger = Ledger()
    for counter, spec in enumerate(_fused_spec_corpus(), start=1):
        corpus.append(
            ("pipeline", generate_pipeline(spec, ledger, f"PIPE_sw{counter}"))
        )
        corpus.append(
            ("vector", generate_vector(spec, ledger, f"VEC_sw{counter}"))
        )
    corpus.extend(_deterministic(ledger))
    return corpus, executed


def _deterministic(ledger) -> list:
    """Family coverage independent of what the fuzzed statements built:
    relation bees for every TPC-H layout, all EVJ join types, canonical
    AGG and IDX shapes."""
    from repro.bees.maker import BeeMaker
    from repro.bees.routines.agg import generate_agg
    from repro.bees.routines.idx import generate_idx
    from repro.engine import expr as E
    from repro.engine.aggregates import AggSpec
    from repro.storage.layout import TupleLayout
    from repro.workloads.tpch.schema import ALL_SCHEMAS, ANNOTATIONS

    maker = BeeMaker(ledger)
    out: list = []
    for name, make_schema in sorted(ALL_SCHEMAS.items()):
        schema = make_schema()
        layout = TupleLayout(schema, ANNOTATIONS.get(name, ()))
        bee = maker.make_relation_bee(layout)
        out.append(("gcl", bee.gcl))
        out.append(("scl", bee.scl))
    for join_type in ("inner", "left", "semi", "anti"):
        for n_keys in (1, 2):
            out.append(("evj", maker.make_evj(join_type, n_keys)))
    columns = ["p", "d"]
    price = E.bind(E.Col("p"), columns)
    disc = E.bind(E.Col("d"), columns)
    out.append(("agg", generate_agg(
        [
            AggSpec("sum", price, name="s"),
            AggSpec("count", name="n"),
            AggSpec("avg", disc, name="a"),
            AggSpec("min", price, name="lo"),
            AggSpec("max", price, name="hi"),
        ],
        ledger, "AGG_sw1",
    )))
    out.append(("idx", generate_idx([0], ledger, "IDX_sw1")))
    out.append(("idx", generate_idx([2, 0], ledger, "IDX_sw2")))
    return out
