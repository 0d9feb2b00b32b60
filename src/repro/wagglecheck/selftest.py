"""Bug-injection self-test: plant one plan-layer bug per case and
require the matching pass to catch it.

Each case builds a small known-good fixture, tampers with exactly one
invariant the analyzer claims to verify (a type, a nullability bit, a
layout width, a spec field, a cached data-section constant, ...), runs
the relevant checker, and returns True iff a finding naming that bug
appears.  A missed case fails the whole wagglecheck run — the analyzer
is only trusted while it demonstrably still detects every planted bug
class.
"""

from __future__ import annotations

from repro.verify.report import run_injections


def _fixture():
    """A bee-enabled database with one small mixed-type relation."""
    from repro.bees.settings import BeeSettings
    from repro.catalog import DATE, INT4, NUMERIC, make_schema, varchar
    from repro.db import Database

    schema = make_schema(
        "t",
        [
            ("id", INT4),
            ("price", NUMERIC),
            ("name", varchar(12)),
            ("day", DATE),
            ("flag", INT4, True),
        ],
        ("id",),
    )
    db = Database(BeeSettings.all_bees().enabling(pipelines=True))
    db.create_table(schema)
    return db


def _scan(db, relation: str = "t"):
    from repro.engine.nodes import SeqScan

    scan = SeqScan(relation)
    scan.bind_schema(db.relation(relation).schema)
    return scan


def _caught(findings, needle: str) -> bool:
    return any(needle in finding.message for finding in findings)


# -- typeflow ---------------------------------------------------------------


def _ill_typed_comparison() -> bool:
    from repro.engine import expr as E
    from repro.engine.nodes import Filter
    from repro.wagglecheck.typeflow import check_plan

    db = _fixture()
    plan = Filter(_scan(db), E.Cmp("<", E.Col("name"), E.Const(5)))
    findings, _ = check_plan(plan, db, "selftest")
    return _caught(findings, "ill-typed comparison")


def _swapped_join_key_types() -> bool:
    from repro.catalog import INT4, make_schema, varchar
    from repro.engine.joins import HashJoin
    from repro.wagglecheck.typeflow import check_plan

    db = _fixture()
    db.create_table(
        make_schema("u", [("label", varchar(8)), ("ref", INT4)])
    )
    # Key pair swapped: int id probes against the varchar label.
    plan = HashJoin(_scan(db), _scan(db, "u"), ["id"], ["label"])
    findings, _ = check_plan(plan, db, "selftest")
    return _caught(findings, "join key type mismatch")


def _arith_on_string() -> bool:
    from repro.engine import expr as E
    from repro.engine.nodes import Project
    from repro.wagglecheck.typeflow import check_plan

    db = _fixture()
    plan = Project(
        _scan(db), [E.Arith("+", E.Col("name"), E.Const(1))], ["x"]
    )
    findings, _ = check_plan(plan, db, "selftest")
    return _caught(findings, "arithmetic over non-numeric")


def _undeclared_coercion() -> bool:
    from repro.engine import expr as E
    from repro.engine.nodes import Filter
    from repro.wagglecheck.typeflow import check_plan

    db = _fixture()
    # float vs date is NOT a declared coercion (int/date is).
    plan = Filter(_scan(db), E.Cmp("=", E.Col("price"), E.Col("day")))
    findings, _ = check_plan(plan, db, "selftest")
    return _caught(findings, "ill-typed comparison")


def _agg_accumulator_mismatch() -> bool:
    from repro.engine import expr as E
    from repro.engine.agg import HashAgg
    from repro.engine.aggregates import AggSpec
    from repro.wagglecheck.typeflow import check_plan

    db = _fixture()
    plan = HashAgg(
        _scan(db), [], [AggSpec("sum", E.Col("name"), name="s")]
    )
    findings, _ = check_plan(plan, db, "selftest")
    return _caught(findings, "agg accumulator mismatch")


def _nullability_erasure() -> bool:
    from repro.wagglecheck.typeflow import check_plan

    db = _fixture()
    scan = _scan(db)
    # 'flag' is nullable in the catalog; erase the recorded bit.
    scan.nullable[scan.columns.index("flag")] = False
    findings, _ = check_plan(scan, db, "selftest")
    return _caught(findings, "nullability erasure")


def _layout_width_narrowing() -> bool:
    from repro.catalog.schema import Attribute
    from repro.catalog.types import INT4
    from repro.wagglecheck.typeflow import check_relation

    db = _fixture()
    rel = db.relation("t")
    index = [a.name for a in rel.layout.stored_attrs].index("price")
    rel.layout.stored_attrs[index] = Attribute("price", INT4)
    findings = check_relation(rel, "selftest")
    return _caught(findings, "layout width narrowing")


def _layout_offset_skew() -> bool:
    from repro.wagglecheck.typeflow import check_relation

    db = _fixture()
    rel = db.relation("t")
    rel.layout._stored_offsets[1] += 4
    findings = check_relation(rel, "selftest")
    return _caught(findings, "layout offset skew")


# -- rewrite ----------------------------------------------------------------


def _fused_filter(db):
    from repro.bees.pipeline.fusion import fuse_plan
    from repro.engine import expr as E
    from repro.engine.nodes import Filter

    plan = Filter(_scan(db), E.Cmp("<", E.Col("id"), E.Const(5)))
    return plan, fuse_plan(plan, db)


def _rewrite_lost_qual() -> bool:
    from repro.wagglecheck.rewrite import RewriteChecker

    db = _fixture()
    plan, fused = _fused_filter(db)
    fused.spec.qual = None          # drop the residual qualification
    checker = RewriteChecker("selftest", db)
    checker.compare(fused, plan)
    return _caught(checker.findings, "lost a residual qualification")


def _rewrite_projection_swap() -> bool:
    from repro.bees.pipeline.fusion import fuse_plan
    from repro.engine import expr as E
    from repro.engine.nodes import Project
    from repro.wagglecheck.rewrite import RewriteChecker

    db = _fixture()
    plan = Project(
        _scan(db), [E.Col("id"), E.Col("price")], ["id", "price"]
    )
    fused = fuse_plan(plan, db)
    fused.spec.output = list(reversed(fused.spec.output))
    checker = RewriteChecker("selftest", db)
    checker.compare(fused, plan)
    return _caught(checker.findings, "projection differs")


def _rewrite_joinkey_drop() -> bool:
    from repro.bees.pipeline.fusion import fuse_plan
    from repro.catalog import INT4, make_schema
    from repro.engine.joins import HashJoin
    from repro.wagglecheck.rewrite import RewriteChecker

    db = _fixture()
    db.create_table(make_schema("v", [("vid", INT4), ("w", INT4)]))
    plan = HashJoin(_scan(db), _scan(db, "v"), ["id"], ["vid"])
    fused = fuse_plan(plan, db)
    if not hasattr(fused, "spec"):
        return False                # join did not fuse: nothing planted
    fused.spec.probe_idx = ()       # drop the probe-side key
    checker = RewriteChecker("selftest", db)
    checker.compare(fused, plan)
    return _caught(checker.findings, "probe keys")


def _rewrite_ctid_drop() -> bool:
    from repro.bees.pipeline.fusion import fuse_plan
    from repro.engine import expr as E
    from repro.engine.nodes import Filter, SeqScan
    from repro.wagglecheck.rewrite import RewriteChecker

    db = _fixture()
    scan = SeqScan("t", ctid=True)      # a write's match plan
    scan.bind_schema(db.relation("t").schema)
    plan = Filter(scan, E.Cmp("<", E.Col("id"), E.Const(5)))
    fused = fuse_plan(plan, db)
    fused.spec.ctid = False             # the routine forgets the tid column
    checker = RewriteChecker("selftest", db)
    checker.compare(fused, plan)
    return _caught(checker.findings, "the replaced scan has ctid=True")


# -- sections ---------------------------------------------------------------


def _annotated_fixture():
    """A relation with one annotated attribute and one cached section."""
    from repro.bees.settings import BeeSettings
    from repro.catalog import INT4, make_schema, varchar
    from repro.db import Database

    schema = make_schema(
        "s", [("k", INT4), ("tag", varchar(8))], ("k",)
    )
    db = Database(BeeSettings.all_bees())
    db.create_table(schema, annotate=("tag",))
    db.insert("s", [1, "alpha"])
    return db


def _stale_section_constant() -> bool:
    from repro.wagglecheck.sections import check_relation_sections

    db = _annotated_fixture()
    store = db.relation("s").bee.data_sections
    slab, slot = store._slab_slot(0)
    slab[slot] = (123,)             # int constant in a varchar section
    findings, _ = check_relation_sections(db.relation("s"))
    return _caught(findings, "int constant")


def _section_null_erasure() -> bool:
    from repro.wagglecheck.sections import check_relation_sections

    db = _annotated_fixture()
    store = db.relation("s").bee.data_sections
    slab, slot = store._slab_slot(0)
    slab[slot] = (None,)            # NULL smuggled into a NOT NULL column
    findings, _ = check_relation_sections(db.relation("s"))
    return _caught(findings, "NULL constant stored for NOT NULL")


CASES = (
    ("ill-typed-comparison", _ill_typed_comparison),
    ("swapped-join-key-types", _swapped_join_key_types),
    ("arith-on-string", _arith_on_string),
    ("undeclared-coercion", _undeclared_coercion),
    ("agg-accumulator-mismatch", _agg_accumulator_mismatch),
    ("nullability-erasure", _nullability_erasure),
    ("layout-width-narrowing", _layout_width_narrowing),
    ("layout-offset-skew", _layout_offset_skew),
    ("rewrite-lost-qual", _rewrite_lost_qual),
    ("rewrite-projection-swap", _rewrite_projection_swap),
    ("rewrite-joinkey-drop", _rewrite_joinkey_drop),
    ("rewrite-ctid-drop", _rewrite_ctid_drop),
    ("stale-section-constant", _stale_section_constant),
    ("section-null-erasure", _section_null_erasure),
)


def run_selftest() -> dict[str, bool]:
    """Run every injection case; True per case means *caught*."""
    return run_injections(CASES)
