"""Hiveaudit: the whole-engine invalidation-soundness analysis.

The audit is itself code under test here, at three levels: the taint
extraction must prove what each bee kind embeds (and that settings are
*never* embedded), the mutation scan must find the known lifecycle
sites, and the clean engine must audit green while every planted bug in
the injection corpus turns it red *at the right site*.
"""

import json

import pytest

from repro.hiveaudit import CASES, run_audit, run_selftest
from repro.hiveaudit.callgraph import CallGraph
from repro.hiveaudit.extract import EXPECTED_EMBEDDINGS, extract_embeddings
from repro.hiveaudit.mutations import scan_mutations
from repro.hiveaudit.source import EngineSource
from repro.verify.cli import main as verify_main


@pytest.fixture(scope="module")
def report():
    return run_audit()


@pytest.fixture(scope="module")
def extraction():
    return extract_embeddings(EngineSource())


@pytest.fixture(scope="module")
def mutations():
    source = EngineSource()
    return scan_mutations(source, CallGraph(source))


class TestExtraction:
    def test_every_kind_meets_its_floor(self, extraction, report):
        assert set(report.stats["extraction"]) == set(extraction)
        for kind, expected in EXPECTED_EMBEDDINGS.items():
            assert kind in extraction, f"kind {kind} not analyzed"
            got = extraction[kind].classes
            assert expected <= got, (
                f"{kind}: expected {sorted(expected)}, proved {sorted(got)}"
            )

    def test_relation_bees_embed_schema_and_offsets(self, extraction):
        for kind in ("gcl", "scl"):
            classes = extraction[kind].classes
            assert "catalog.schema" in classes
            assert "layout.offsets" in classes

    def test_query_bees_embed_plan_constants(self, extraction):
        for kind in ("evp", "evj", "agg"):
            assert "plan.constants" in extraction[kind].classes

    def test_tuple_bees_embed_section_values(self, extraction):
        assert "datasection.values" in extraction["tuple"].classes

    def test_settings_are_never_embedded(self, extraction, report):
        for kind, ext in extraction.items():
            assert "settings.flags" not in ext.classes, (
                f"bee kind {kind} embeds BeeSettings — a settings swap "
                "would stale it with no invalidation edge"
            )
        assert not any(
            f.pass_name == "settings-never-embedded" for f in report.findings
        )

    def test_evidence_carries_source_locations(self, extraction):
        for kind, ext in extraction.items():
            assert ext.evidence, f"{kind} proved classes without evidence"
            for emb in ext.evidence:
                assert emb.lineno > 0
                assert emb.module.endswith(".py")


class TestMutationScan:
    def test_known_lifecycle_sites_found(self, mutations, report):
        assert report.stats["mutation_sites"] == len(mutations)
        sites = {(s.qualname, s.invariant, s.verb) for s in mutations}
        expected = {
            ("Catalog.create_relation", "catalog.schema", "create"),
            ("Catalog.alter_relation", "catalog.schema", "replace"),
            ("Catalog.drop_relation", "catalog.schema", "destroy"),
            ("Database.vacuum", "storage.heap", "rebuild"),
            ("RowWriter.write", "storage.heap", "row-insert"),
            ("DataSectionStore.get_or_create", "datasection.values",
             "append"),
        }
        missing = expected - sites
        assert not missing, f"mutation scan lost sites: {sorted(missing)}"

    def test_settings_swap_sites_found(self, mutations):
        swaps = [
            s for s in mutations
            if s.invariant == "settings.flags" and s.verb == "swap"
        ]
        assert any(s.qualname == "Database.use_settings" for s in swaps)


class TestCleanEngine:
    def test_baseline_audits_green(self, report):
        assert report.ok, [str(f) for f in report.findings]

    def test_every_rule_match_is_proven_or_exempted(self, report):
        assert len(report.stats["proofs"]) >= 10
        for proof in report.stats["proofs"]:
            assert proof["witness"], f"proof without witness: {proof}"
            assert proof["witness"][0] == proof["function"]

    def test_vacuum_reinsert_is_the_only_exemption(self, report):
        assert [e["function"] for e in report.stats["exempted"]] == [
            "Database.vacuum"
        ]


class TestSelfTest:
    def test_corpus_is_large_enough(self):
        assert len(CASES) >= 6

    def test_every_planted_bug_is_caught_with_attribution(self, report):
        results = run_selftest(baseline=report)
        missed = [r for r in results if not r["caught"]]
        assert not missed, f"audit missed planted bugs: {missed}"

    def test_patches_do_not_touch_disk(self, report):
        before = {
            case.module: EngineSource().text(case.module) for case in CASES
        }
        run_selftest(baseline=report)
        for module, text in before.items():
            assert EngineSource().text(module) == text


class TestCLI:
    def test_writes_report_and_exits_zero(self, tmp_path):
        status = verify_main([
            "--pass", "hiveaudit", "--statements", "5",
            "--out", str(tmp_path), "--no-selftest", "--check",
        ])
        assert status == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        result = payload["passes"]["hiveaudit"]
        assert result["ok"] is True
        assert result["stats"]["extraction"]
        assert result["stats"]["mutations"]
        assert result["stats"]["proofs"]
