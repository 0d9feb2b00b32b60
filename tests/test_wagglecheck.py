"""Tests for wagglecheck: contracts, typeflow, rewrite replay, sections,
the shared report schema, and the pass end-to-end through repro.verify."""

import json

import pytest

from repro import BeeSettings, Database
from repro.catalog import DATE, INT4, NUMERIC, make_schema, varchar
from repro.catalog.types import BOOL, FLOAT8, INT8, TEXT, char
from repro.engine import expr as E
from repro.engine.nodes import Filter, Project, SeqScan
from repro.wagglecheck.contracts import (
    ColumnContract,
    TypeChecker,
    comparable,
    contracts_from_schema,
    kind_of_sql_type,
    kind_of_value,
)
from repro.verify.report import Finding, PassResult, Report
from repro.wagglecheck.rewrite import RewriteChecker, expr_equal
from repro.wagglecheck.sections import value_violation
from repro.wagglecheck.typeflow import check_plan, check_relation


@pytest.fixture()
def db():
    database = Database(BeeSettings.all_bees().enabling(pipelines=True))
    database.create_table(
        make_schema(
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
    )
    return database


def _scan(db, relation="t"):
    scan = SeqScan(relation)
    scan.bind_schema(db.relation(relation).schema)
    return scan


class TestContracts:
    def test_kind_mapping(self):
        assert kind_of_sql_type(INT4) == "int"
        assert kind_of_sql_type(INT8) == "int"
        assert kind_of_sql_type(FLOAT8) == "float"
        assert kind_of_sql_type(NUMERIC) == "float"
        assert kind_of_sql_type(BOOL) == "bool"
        assert kind_of_sql_type(DATE) == "date"
        assert kind_of_sql_type(TEXT) == "string"
        assert kind_of_sql_type(char(7)) == "string"
        assert kind_of_sql_type(varchar(20)) == "string"

    def test_kind_of_value_bool_before_int(self):
        assert kind_of_value(True) == "bool"
        assert kind_of_value(1) == "int"
        assert kind_of_value(1.5) == "float"
        assert kind_of_value("x") == "string"
        assert kind_of_value(None) == "any"

    def test_declared_coercions(self):
        assert comparable("int", "float")
        assert comparable("int", "date")
        assert comparable("int", "bool")
        assert comparable("any", "string")
        assert not comparable("float", "date")
        assert not comparable("string", "int")
        assert not comparable("string", "date")

    def test_contracts_from_schema(self):
        schema = make_schema(
            "r", [("a", INT4), ("b", varchar(9), True)]
        )
        contracts = contracts_from_schema(schema)
        assert [c.name for c in contracts] == ["a", "b"]
        assert contracts[0] == ColumnContract("a", "int", False, 4, "int4")
        assert contracts[1].nullable and contracts[1].kind == "string"

    def test_case_arm_unification(self):
        checker = TypeChecker("case")
        inputs = [ColumnContract("n", "int", False)]
        mixed_numeric = E.Case(
            [(E.Cmp("<", E.Col("n", 0), E.Const(1)), E.Const(1))],
            E.Const(2.0),
        )
        assert checker.type_expr(mixed_numeric, inputs).kind == "float"
        assert not checker.findings
        disjoint = E.Case(
            [(E.Cmp("<", E.Col("n", 0), E.Const(1)), E.Const("a"))],
            E.Const(2),
        )
        checker.type_expr(disjoint, inputs)
        assert any("CASE arms" in f.message for f in checker.findings)


class TestTypeflow:
    def test_clean_plan(self, db):
        plan = Filter(
            _scan(db),
            E.And(
                E.Cmp("<", E.Col("id"), E.Const(10)),
                E.Like(E.Col("name"), "a%"),
            ),
        )
        findings, nodes = check_plan(plan, db, "clean")
        assert findings == []
        assert nodes == 2

    def test_date_comparison_is_declared(self, db):
        plan = Filter(_scan(db), E.Cmp(">", E.Col("day"), E.Const(9000)))
        findings, _ = check_plan(plan, db, "date")
        assert findings == []

    def test_nullable_column_flows_through_project(self, db):
        plan = Project(
            _scan(db), [E.Arith("+", E.Col("flag"), E.Const(1))], ["f1"]
        )
        checker_findings, _ = check_plan(plan, db, "proj")
        assert checker_findings == []
        assert plan.nullable == [True]

    def test_unknown_relation(self, db):
        findings, _ = check_plan(SeqScan("ghost"), db, "ghost")
        assert any("unknown relation" in f.message for f in findings)

    def test_clean_relation_layout(self, db):
        assert check_relation(db.relation("t"), "t") == []


class TestRewrite:
    def test_expr_equal_structural(self):
        a = E.And(E.Cmp("<", E.Col("x", 0), E.Const(5)), E.Not(E.Col("b", 1)))
        b = E.And(E.Cmp("<", E.Col("x", 0), E.Const(5)), E.Not(E.Col("b", 1)))
        assert expr_equal(a, b)
        c = E.And(E.Cmp("<", E.Col("x", 0), E.Const(6)), E.Not(E.Col("b", 1)))
        assert not expr_equal(a, c)

    def test_expr_equal_const_type_exact(self):
        assert not expr_equal(E.Const(1), E.Const(1.0))
        assert not expr_equal(E.Const(1), E.Const(True))
        assert expr_equal(E.Const(None), E.Const(None))

    def test_clean_fusion(self, db):
        from repro.bees.pipeline.fusion import fuse_plan

        plan = Filter(_scan(db), E.Cmp("<", E.Col("id"), E.Const(5)))
        fused = fuse_plan(plan, db)
        checker = RewriteChecker("clean", db)
        checker.compare(fused, plan)
        assert checker.findings == []
        assert checker.rewrites_checked == 1

    def test_tampered_relation_detected(self, db):
        from repro.bees.pipeline.fusion import fuse_plan

        db.create_table(make_schema("t2", [("id", INT4)]))
        plan = Filter(_scan(db), E.Cmp("<", E.Col("id"), E.Const(5)))
        fused = fuse_plan(plan, db)
        fused.spec.relation = "t2"
        checker = RewriteChecker("tamper", db)
        checker.compare(fused, plan)
        assert any("scans" in f.message for f in checker.findings)

    def test_fused_label_trail_checked(self, db):
        from repro.bees.pipeline.fusion import fuse_plan

        plan = Filter(_scan(db), E.Cmp("<", E.Col("id"), E.Const(5)))
        fused = fuse_plan(plan, db)
        fused.spec.fused_nodes = ("Filter", "Filter", "SeqScan(t)")
        checker = RewriteChecker("labels", db)
        checker.compare(fused, plan)
        assert any("fused-node trail" in f.message for f in checker.findings)


class TestSections:
    def _attr(self, sql_type, nullable=False):
        from repro.catalog.schema import Attribute

        return Attribute("col", sql_type, nullable)

    def test_values_accepted(self):
        assert value_violation(self._attr(INT4), 42) is None
        assert value_violation(self._attr(NUMERIC), 1.5) is None
        assert value_violation(self._attr(NUMERIC), 2) is None
        assert value_violation(self._attr(varchar(5)), "abc") is None
        assert value_violation(self._attr(DATE), 12345) is None
        assert value_violation(self._attr(INT4, nullable=True), None) is None

    def test_violations(self):
        assert value_violation(self._attr(INT4), "x") is not None
        assert value_violation(self._attr(INT4), True) is not None
        assert value_violation(self._attr(INT4), 2**40) is not None
        assert value_violation(self._attr(INT8), 2**40) is None
        assert value_violation(self._attr(varchar(3)), "toolong") is not None
        assert value_violation(self._attr(char(2)), 9) is not None
        assert value_violation(self._attr(INT4), None) is not None


class TestReport:
    def test_ok_and_dict(self):
        result = PassResult("wagglecheck", stats={"plans_checked": 3})
        report = Report(seed=7, statements=0, passes=[result])
        assert report.ok
        result.selftest = {"case": True}
        assert report.ok
        result.findings.append(Finding("typeflow", "s", "boom"))
        assert not result.ok and not report.ok
        payload = report.to_dict()
        assert payload["seed"] == 7
        waggle = payload["passes"]["wagglecheck"]
        assert waggle["findings"][0]["pass"] == "typeflow"
        assert waggle["ok"] is False
        json.dumps(payload)     # serializable

    def test_missed_injection_fails(self):
        result = PassResult("wagglecheck", selftest={"a": True, "b": False})
        assert not result.ok


class TestSelftest:
    def test_all_injections_caught(self):
        from repro.wagglecheck.selftest import run_selftest

        results = run_selftest()
        assert len(results) >= 8
        missed = [name for name, caught in results.items() if not caught]
        assert missed == []


class TestAnalysisScaffold:
    def test_write_report(self, tmp_path):
        report = Report(seed=0, statements=0, passes=[PassResult("p")])
        path = report.write(tmp_path / "x")
        assert path == tmp_path / "x" / "report.json"
        assert json.loads(path.read_text())["passes"]["p"]["ok"] is True
        summary = json.loads((tmp_path / "x" / "summary.json").read_text())
        assert summary["passes"]["p"]["sha256"] == PassResult("p").digest()

    def test_exit_code_policy(self, tmp_path, monkeypatch):
        """A failing run only gates under --check."""
        from repro.verify import cli

        failing = Report(seed=0, statements=0, passes=[
            PassResult("p", findings=[Finding("typeflow", "s", "boom")])
        ])
        monkeypatch.setattr(cli, "run", lambda *a, **k: failing)
        assert cli.main(["--out", str(tmp_path)]) == 0
        assert cli.main(["--out", str(tmp_path), "--check"]) == 1
        monkeypatch.setattr(
            cli, "run", lambda *a, **k: Report(seed=0, statements=0)
        )
        assert cli.main(["--out", str(tmp_path), "--check"]) == 0

    def test_run_injections_crash_is_missed(self):
        from repro.verify import run_injections

        def boom():
            raise RuntimeError("planted")

        results = run_injections([("ok", lambda: True), ("bad", boom)])
        assert results == {"ok": True, "bad": False}


class TestEndToEnd:
    def test_small_run_clean(self, tmp_path):
        from repro.verify.cli import main

        code = main(
            [
                "--pass", "wagglecheck",
                "--statements", "5",
                "--no-selftest",
                "--out", str(tmp_path),
                "--check",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        result = payload["passes"]["wagglecheck"]
        assert result["ok"] is True
        assert result["stats"]["plans_checked"] > 20
        assert result["stats"]["rewrites_checked"] > 0
        assert result["stats"]["sections_checked"] > 0
        assert result["findings"] == []
