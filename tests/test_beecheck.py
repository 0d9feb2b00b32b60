"""Beecheck: pass-level units, tamper rejection, and maker gating."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.beecheck import (
    BeecheckError,
    check_evp,
    check_gcl,
    check_scl,
    verify_gcl,
)
from repro.beecheck.absint import s_add, s_addvar, s_align, s_const, s_mod
from repro.beecheck.selftest import _tamper, run_selftest
from repro.beecheck.transval import enumerate_rows, ledger_guard
from repro.bees.routines.evp import generate_evp
from repro.bees.routines.gcl import generate_gcl
from repro.bees.routines.scl import generate_scl
from repro.bees.settings import BeeSettings
from repro.catalog import BOOL, INT4, NUMERIC, char, make_schema, varchar
from repro.cost.ledger import Ledger
from repro.db import Database
from repro.engine import expr as E
from repro.storage.layout import TupleLayout


@pytest.fixture()
def layout(orders_schema):
    return TupleLayout(orders_schema)


@pytest.fixture()
def gcl(layout):
    return generate_gcl(layout, Ledger(), "GCL_orders")


@pytest.fixture()
def scl(layout):
    return generate_scl(layout, Ledger(), "SCL_orders")


# -- clean routines pass every lane ------------------------------------------


def test_clean_gcl_passes_all_lanes(gcl, layout):
    report = check_gcl(gcl, layout)
    assert report.ok, [str(f) for f in report.findings]
    assert set(report.passes) == {
        "lint", "absint", "costaudit", "transval", "determinism",
    }
    assert all(status == "ok" for status in report.passes.values())


def test_clean_scl_passes_all_lanes(scl, layout):
    report = check_scl(scl, layout)
    assert report.ok, [str(f) for f in report.findings]


def test_clean_evp_passes_both_variants():
    expr = E.And(
        E.Cmp("<", E.Col("a", 0), E.Const(10)),
        E.Like(E.Col("b", 1), "ab%"),
    )
    for assume_not_null in (False, True):
        routine = generate_evp(
            expr, Ledger(), "EVP_t", assume_not_null=assume_not_null
        )
        report = check_evp(routine, expr)
        assert report.ok, [str(f) for f in report.findings]


def test_tuple_bee_layout_passes(orders_schema):
    layout = TupleLayout(
        orders_schema, ("o_orderstatus", "o_orderpriority")
    )
    ledger = Ledger()
    assert check_gcl(generate_gcl(layout, ledger, "GCL_tb"), layout).ok
    assert check_scl(generate_scl(layout, ledger, "SCL_tb"), layout).ok


def test_bool_before_char_prefix_passes():
    # The generator batches CHAR strips before BOOL casts; absint must
    # accept that order, not the interleaved layout order (seed-3 corpus
    # regression).
    schema = make_schema(
        "bc",
        [("f", BOOL), ("g", char(3)), ("h", BOOL), ("k", INT4)],
    )
    layout = TupleLayout(schema)
    gcl = generate_gcl(layout, Ledger(), "GCL_bc")
    report = check_gcl(gcl, layout)
    assert report.ok, [str(f) for f in report.findings]


# -- the symbolic domain -----------------------------------------------------


def test_symbolic_alignment_facts():
    off = s_const(8)
    assert s_mod(off, 8) == 0
    off = s_addvar(s_add(off, 4), "ln0")      # varlena: alignment lost
    assert s_mod(off, 4) is None
    off = s_align(off, 8)                     # align round restores it
    assert s_mod(off, 8) == 0
    assert s_mod(off, 4) == 0                 # 8-aligned implies 4-aligned
    assert s_mod(s_add(off, 2), 4) == 2
    # aligning an already-aligned expression is a no-op
    assert s_align(off, 4) == off


def test_symbolic_constants_fold():
    assert s_align(s_const(13), 8) == s_const(16)
    assert s_add(s_const(3), 4) == s_const(7)


# -- each pass rejects its tamper class --------------------------------------


def test_lint_rejects_smuggled_loop(gcl, layout):
    bad = _tamper(
        gcl, "    return [", "    for _i in range(1): pass\n    return ["
    )
    report = check_gcl(bad, layout)
    assert any(
        f.pass_name == "lint" and "For" in f.message for f in report.findings
    )


def test_lint_rejects_wrong_guard(gcl, layout):
    bad = _tamper(gcl, "raw[0] & 1", "raw[0] & 2")
    report = check_gcl(bad, layout)
    assert any(f.pass_name == "lint" for f in report.findings)


def test_absint_rejects_offset_bump(gcl, layout):
    bad = _tamper(
        gcl, "raw[off + 4 : off + 4 + ln]", "raw[off + 5 : off + 5 + ln]"
    )
    assert any(
        f.pass_name == "absint"
        for f in check_gcl(bad, layout).findings
    )


def test_absint_rejects_weakened_alignment():
    # varlena first, then an 8-aligned column: the align round is load-
    # bearing, and weakening it is caught symbolically (no execution).
    schema = make_schema("u", [("a", varchar(5)), ("b", NUMERIC)])
    layout = TupleLayout(schema)
    gcl = generate_gcl(layout, Ledger(), "GCL_u")
    bad = _tamper(gcl, "(off + 7) & -8", "(off + 3) & -4")
    findings = check_gcl(bad, layout).findings
    assert any(
        f.pass_name == "absint" and "requires 8" in f.message
        for f in findings
    )


def test_costaudit_rejects_inflated_cost(gcl, layout):
    bad = dataclasses.replace(gcl, cost=gcl.cost + 10)
    assert any(
        f.pass_name == "costaudit"
        for f in check_gcl(bad, layout).findings
    )


def test_transval_catches_wrapped_fn(gcl, layout):
    # Source pristine, compiled fn corrupted — only execution can see it.
    inner = gcl.fn

    def corrupt(raw, sections):
        row = list(inner(raw, sections))
        row[0] += 1
        return row

    bad = dataclasses.replace(gcl)
    bad.fn = corrupt
    report = check_gcl(bad, layout)
    fired = {f.pass_name for f in report.findings}
    assert fired == {"transval"}


def test_scl_error_contract_is_checked(layout):
    # An SCL that silently truncates over-width CHAR values diverges
    # from the generic encode's ValueError and must be flagged.
    scl = generate_scl(layout, Ledger(), "SCL_orders")
    bad = _tamper(scl, "_char(", "_trunc(")
    bad.namespace["_trunc"] = lambda v, w, n: v.encode()[:w].ljust(w, b" ")
    bad.fn = __import__("repro.bees.routines.base", fromlist=["x"]).compile_routine(
        bad.source, bad.name, bad.namespace
    )
    report = check_scl(bad, layout)
    assert any(
        f.pass_name == "transval" and "ValueError" in f.message
        for f in report.findings
    )


# -- transval plumbing -------------------------------------------------------


def test_ledger_guard_restores_counters(gcl, layout):
    ledger = gcl.namespace["_charge"].__self__
    before = ledger.total
    report = check_gcl(gcl, layout)
    assert report.ok
    assert ledger.total == before


def test_ledger_guard_contextmanager(gcl):
    ledger = gcl.namespace["_charge"].__self__
    with ledger_guard(gcl):
        ledger.charge(123)
    assert ledger.total == 0


def test_enumerate_rows_is_deterministic_and_capped():
    domains = [[0, 1, 2], ["a", "b"], [True, False]]
    rows = enumerate_rows(domains)
    assert rows == enumerate_rows(domains)
    assert len(rows) == len({tuple(r) for r in rows})
    # One-hot alone over 8 ten-value domains exceeds the cap.
    big = enumerate_rows([list(range(10))] * 8, cap=50)
    assert len(big) == 50


# -- maker gating (verify_on_generate) ---------------------------------------


def test_verify_on_generate_refuses_injected_gcl():
    from repro.oracle.inject import inject_bug

    settings = BeeSettings.all_bees().enabling(verify_on_generate=True)
    with inject_bug("gcl"):
        db = Database(settings)
        with pytest.raises(BeecheckError) as excinfo:
            db.sql("CREATE TABLE t (a INT NOT NULL, b INT NOT NULL)")
    assert "transval" in str(excinfo.value)


def test_verify_on_generate_refuses_injected_evp():
    from repro.oracle.inject import inject_bug

    settings = BeeSettings.all_bees().enabling(verify_on_generate=True)
    with inject_bug("evp"):
        db = Database(settings)
        db.sql("CREATE TABLE t (a INT NOT NULL)")
        db.sql("INSERT INTO t VALUES (1)")
        with pytest.raises(BeecheckError):
            db.sql("SELECT a FROM t WHERE a < 5")


def test_verify_on_generate_clean_database_works():
    settings = BeeSettings.all_bees().enabling(verify_on_generate=True)
    db = Database(settings)
    db.sql("CREATE TABLE t (a INT NOT NULL, b TEXT NOT NULL)")
    db.sql("INSERT INTO t VALUES (1, 'x')")
    assert db.sql("SELECT a FROM t WHERE b LIKE 'x%'").rows == [(1,)]


@pytest.mark.parametrize(
    "settings", [BeeSettings.pipelined, BeeSettings.vectorized],
    ids=["pipeline", "vector"],
)
def test_verify_on_generate_admits_column_free_scans(settings):
    """``COUNT(*)`` references no column, so the fused loop inlines no
    deform at all: the cost audit must not bill it the deform's
    null-bitmap test (it did, and refused the routine).  The vector
    kernel never inlines a deform and a ctid match scan deforms the
    whole row; both pass either way and ride along."""
    db = Database(settings().verified())
    db.sql("CREATE TABLE t (a INT NOT NULL, b INT)")
    db.sql("INSERT INTO t VALUES (1, 2)")
    db.sql("INSERT INTO t VALUES (3, NULL)")
    assert db.sql("SELECT COUNT(*) FROM t").rows == [(2,)]
    assert db.sql("DELETE FROM t WHERE a = 3").status == "DELETE 1"
    assert db.sql("SELECT COUNT(*), COUNT(b) FROM t").rows == [(1, 1)]


def test_with_routines_preserves_verify_flag():
    settings = BeeSettings(verify_on_generate=True).with_routines("gcl")
    assert settings.verify_on_generate
    assert settings.gcl and not settings.scl


def test_verify_gcl_raises_with_findings(gcl, layout):
    bad = _tamper(
        gcl, "raw[off + 4 : off + 4 + ln]", "raw[off + 5 : off + 5 + ln]"
    )
    with pytest.raises(BeecheckError) as excinfo:
        verify_gcl(bad, layout)
    assert excinfo.value.findings


# -- self-test and CLI -------------------------------------------------------


def test_selftest_catches_every_case():
    results = run_selftest()
    assert results and all(results.values()), results
    assert {"inject-gcl", "inject-evp"} <= set(results)


def test_cli_sweep_writes_report(tmp_path):
    from repro.verify.cli import main

    code = main([
        "--pass", "beecheck", "--statements", "25",
        "--out", str(tmp_path), "--no-selftest", "--check",
    ])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert list(payload["passes"]) == ["beecheck"]
    result = payload["passes"]["beecheck"]
    assert result["ok"] is True and result["findings"] == []
    stats = result["stats"]
    assert stats["routines_checked"] >= 46  # 23 schema sweeps x 2
    kinds = stats["routines_by_kind"]
    assert kinds["gcl"] >= 23 and kinds["scl"] >= 23


def test_report_json_shape(gcl, layout):
    report = check_gcl(gcl, layout)
    payload = report.to_dict()
    assert payload["routine"] == "GCL_orders"
    assert payload["kind"] == "gcl"
    assert payload["passes"] == {
        "lint": "ok", "absint": "ok", "costaudit": "ok", "transval": "ok",
        "determinism": "ok",
    }


# -- the vector probe sink against HashJoin ----------------------------------


_PROBE_LAYOUT = TupleLayout(make_schema("pr", [
    ("a", INT4), ("k", INT4, True), ("j", INT4, True), ("s", varchar(6)),
]))


def _probe_spec(join_type: str, keys: tuple, qual: str):
    from repro.bees.pipeline.codegen import PipelineSpec

    cols = [attr.name for attr in _PROBE_LAYOUT.schema.attributes]
    predicate = {
        "filtered": E.Cmp("<", E.Col("a"), E.Const(3)),
        "none": None,
        "nothing": E.Cmp("=", E.Col("a"), E.Const(None)),   # _NOSEL
    }[qual]
    return PipelineSpec(
        "pr", _PROBE_LAYOUT,
        qual=None if predicate is None else E.bind(predicate, cols),
        sink="probe", join_type=join_type,
        probe_idx=tuple(_PROBE_LAYOUT.schema.attnum(k) for k in keys),
        build_width=3,
    )


def _vector_probe(spec):
    from repro.bees.vector.codegen import generate_vector

    return generate_vector(spec, Ledger(), "VEC_probe")


@pytest.mark.parametrize("join_type", ["inner", "left", "semi", "anti"])
@pytest.mark.parametrize("keys", [("k",), ("a",), ("k", "j")],
                         ids=["nullable", "notnull", "two-key"])
@pytest.mark.parametrize("qual", ["filtered", "none", "nothing"])
def test_vector_probe_matches_hash_join(join_type, keys, qual):
    """Every join type, over nullable and NOT NULL keys, one key and two,
    a selection, no qualification (no ``_idx``) and an empty selection
    (``_NOSEL``), each against mixed, all-hit and all-miss builds."""
    from repro.beecheck.checker import check_vector

    spec = _probe_spec(join_type, keys, qual)
    routine = _vector_probe(spec)
    assert ("_NOSEL" in routine.source) == (qual == "nothing")
    assert ("_idx" in routine.source) == (qual != "none")
    report = check_vector(routine, spec)
    assert report.ok, [str(f) for f in report.findings]


def test_vector_probe_lane_needs_the_null_key_guard():
    """The lane probes a table holding entries under NULL-bearing keys:
    a kernel that skips the null-lane guard (and trusts the build never
    to store them) matches rows ``HashJoin`` never does."""
    from repro.beecheck.transval import validate_vector
    from repro.bees.vector import codegen

    spec = _probe_spec("inner", ("k",), "none")
    routine = _vector_probe(spec)
    assert validate_vector(routine, spec) == []

    def unguarded(kind, table, keys, key_nulls, *rest):
        return codegen._probe(
            kind, table, keys, [False] * len(key_nulls), *rest
        )

    routine.namespace["_probe"] = unguarded
    assert validate_vector(routine, spec)


def test_vector_probe_lane_catches_domain_positions():
    """``inject_bug("probe")``: survivors gathered at their positions in
    the selection instead of their chunk rows — wrong behind a filter,
    right over a whole chunk."""
    from repro.beecheck.transval import validate_vector
    from repro.oracle import inject_bug

    with inject_bug("probe"):
        filtered = _probe_spec("inner", ("k",), "filtered")
        whole = _probe_spec("inner", ("k",), "none")
        broken = [_vector_probe(filtered), _vector_probe(whole)]
    assert validate_vector(broken[0], filtered)
    assert validate_vector(broken[1], whole) == []


# -- a vector qual split at its AND ------------------------------------------


_SPLIT_LAYOUT = TupleLayout(make_schema("sp", [
    ("a", INT4), ("k", INT4, True), ("s", varchar(6), True),
    ("f", NUMERIC, True),
]))


def _split_spec(qual: str):
    from repro.bees.pipeline.codegen import PipelineSpec

    cols = [attr.name for attr in _SPLIT_LAYOUT.schema.attributes]
    predicate = {
        # late LIKE first, a vector conjunct, an exact-int one, a vector
        # one over a nullable float
        "mixed": E.And(
            E.Like(E.Col("s"), "a%"),
            E.Cmp(">", E.Col("k"), E.Const(0)),
            E.Cmp("<", E.Arith("*", E.Col("k"), E.Const(2)), E.Const(9)),
            E.Cmp("<", E.Col("f"), E.Const(2.5)),
        ),
        # no vector conjunct at all
        "objects": E.And(
            E.InList(E.Col("k"), [0, 1, 2]),
            E.Cmp("=", E.Arith("+", E.Col("a"), E.Const(1)), E.Const(2)),
            E.Not(E.Like(E.Col("s"), "%z")),
        ),
        "like": E.Like(E.Col("s"), "%a%"),
    }[qual]
    return PipelineSpec(
        "sp", _SPLIT_LAYOUT, qual=E.bind(predicate, cols),
        output=[E.bind(E.Col("a"), cols), E.bind(E.Col("s"), cols)],
    )


def _vector_rows(spec):
    from repro.bees.vector.codegen import generate_vector

    return generate_vector(spec, Ledger(), "VEC_split")


@pytest.mark.parametrize("qual", ["mixed", "objects", "like"])
def test_split_kernel_matches_filter(qual):
    """A mixed ``AND``, an all-object one and a lone ``LIKE`` pass every
    pass, the transval lane running them against the unfused reference
    (``Filter``'s strict-``True`` admission) over NULL-heavy lanes and a
    chunk with no survivors as well."""
    from repro.beecheck.checker import check_vector
    from repro.beecheck.transval import _fused_candidates, _split_runs

    spec = _split_spec(qual)
    routine = _vector_rows(spec)
    report = check_vector(routine, spec)
    assert report.ok, [str(f) for f in report.findings]
    _raws, rows, _sections = _fused_candidates(spec)
    heavy, empty = _split_runs(spec, rows)
    assert heavy[0] and empty[0]
    assert all(
        sum(v is None for v in row[1:]) >= 2 for row in heavy[0][1::3]
    )


def test_split_lane_catches_survivor_positions():
    """``inject_bug("split")``: an object conjunct read at chunk rows
    ``0..m-1`` instead of its survivors — wrong behind a vector
    conjunct, right over a whole chunk."""
    from repro.beecheck.transval import validate_vector
    from repro.oracle import inject_bug

    with inject_bug("split"):
        broken = [_vector_rows(_split_spec(q)) for q in ("mixed", "like")]
    assert validate_vector(broken[0], _split_spec("mixed"))
    assert validate_vector(broken[1], _split_spec("like")) == []


def test_costaudit_pins_the_split():
    """Each object conjunct is evaluated once, over rows that carry
    exactly the columns it reads; a kernel that widens a conjunct's
    rows or drops a conjunct is a finding."""
    from repro.beecheck.costaudit import audit_vector

    spec = _split_spec("mixed")
    routine = _vector_rows(spec)
    assert audit_vector(routine, spec) == []
    wide = dataclasses.replace(
        routine, source=routine.source.replace("(2,)", "(1, 2)")
    )
    assert any("carry columns" in f for f in audit_vector(wide, spec))
    dropped = dataclasses.replace(
        routine, source=routine.source.replace("_E1.evaluate", "_E0.evaluate")
    )
    assert any("object lane" in f for f in audit_vector(dropped, spec))
