"""The verification spine: one corpus, one report schema, one pass table,
one tier-table-driven N-way oracle lane (``python -m repro.verify``)."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.bees import drivers
from repro.bees.settings import BeeSettings
from repro.db import Database
from repro.oracle.inject import BUG_KINDS, inject_bug
from repro.oracle.runner import plan_points
from repro.verify import cli, passes
from repro.verify.corpus import Corpus, harvest

REPO = Path(__file__).resolve().parent.parent
TOOLS = ("beecheck", "swarmcheck", "wagglecheck", "hiveaudit", "resilience",
         "oracle")

#: Injection cases per pass at the commit that merged the six harnesses;
#: merging them must not drop one (ROADMAP's condition for the merge).
INJECTION_CENSUS = {
    "beecheck": 28, "swarmcheck": 13, "wagglecheck": 14, "hiveaudit": 13,
    "resilience": 3, "oracle": 9,
}


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """``python -m repro.verify --check`` at the default seed/statements."""
    out = tmp_path_factory.mktemp("verify")
    code = cli.main(["--check", "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    return code, report["passes"], (out / "summary.json").read_text()


class TestFullRun:
    def test_check_is_clean(self, full_run):
        code, results, _summary = full_run
        assert code == 0
        assert list(results) == list(TOOLS)
        for name, result in results.items():
            assert result["findings"] == [], name

    def test_injection_census(self, full_run):
        _code, results, _summary = full_run
        assert {
            name: len(result["selftest"]) for name, result in results.items()
        } == INJECTION_CENSUS
        missed = [
            f"{name}:{case}"
            for name, result in results.items()
            for case, caught in result["selftest"].items()
            if not caught
        ]
        assert missed == []

    def test_one_corpus_feeds_both_routine_passes(self, full_run):
        _code, results, _summary = full_run
        verified = results["beecheck"]["stats"]["routines_by_kind"]
        proven = results["swarmcheck"]["stats"]["routines_proven_pure"]
        assert verified == proven
        assert sum(verified.values()) >= 250
        assert set(verified) >= {
            "gcl", "gcl_cols", "scl", "evp", "evj", "agg", "idx",
        } | {
            tier.name for tier in drivers.TIERS if not tier.remote
        }

    def test_plan_corpus_did_not_shrink(self, full_run):
        _code, results, _summary = full_run
        stats = results["wagglecheck"]["stats"]
        # Raised when the fuzz stream gained literal siblings: they ride
        # behind the seed's 200 statements (not in place of any), so the
        # corpus has every plan it had, and the siblings' on top.
        floor = {
            "plans_checked": 308, "nodes_checked": 1157,
            "rewrites_checked": 3153, "relations_checked": 21,
            "sections_checked": 177,
        }
        for key, n in floor.items():
            assert stats[key] >= n, (key, stats[key])

    def test_every_tier_point_executed_on_its_tier(self, full_run):
        """The hand-written parallel lane this replaced never reached
        the pool: the per-statement toggle stacked PARALLEL over a plan
        with no fused driver, and fuzz tables are below the dispatch
        floor anyway."""
        _code, results, _summary = full_run
        stats = results["oracle"]["stats"]
        assert set(stats["executed_on_tier"]) == {t.name for t in drivers.TIERS}
        assert all(n > 0 for n in stats["executed_on_tier"].values()), stats
        pool = stats["worker_pools"]["parallel"]
        assert pool["statements"] > 0 and pool["morsels_dispatched"] > 0
        assert stats["fingerprint"] == "19d9b69c5e143375"

    def test_summary_is_deterministic(self, full_run):
        """Same seed, same bytes.  The second run skips the self-tests
        (their verdicts are not hashed) and borrows the first run's."""
        _code, results, summary = full_run
        again = cli.run(selftest=False)
        for result in again.passes:
            result.selftest = results[result.name]["selftest"]
        assert json.dumps(again.to_summary(), indent=2) + "\n" == summary
        assert not re.search(r"0x[0-9a-f]{6,}|elapsed", summary)


class TestCommittedBaselines:
    def test_summary_covers_every_pass_and_injection(self):
        summary = json.loads(
            (REPO / "results" / "verify" / "summary.json").read_text()
        )
        assert summary["ok"] is True
        assert {
            name: len(result["selftest"])
            for name, result in summary["passes"].items()
        } == INJECTION_CENSUS

    def test_oracle_golden_fingerprint(self):
        golden = json.loads(
            (REPO / "results" / "oracle" / "seed0.json").read_text()
        )
        assert golden["fingerprint"] == "19d9b69c5e143375"
        assert golden["executed_on_tier"]["parallel"] > 0


class TestSelection:
    def test_pass_flag_runs_only_that_pass(self):
        report = cli.run(["hiveaudit"], statements=5)
        assert [result.name for result in report.passes] == ["hiveaudit"]
        assert report.ok and len(report.passes[0].selftest) == (
            INJECTION_CENSUS["hiveaudit"]
        )

    def test_unknown_pass_is_rejected(self):
        with pytest.raises(ValueError):
            cli.run(["nosuchpass"])

    def test_spent_budget_is_a_finding_not_a_skip(self):
        report = cli.run(["hiveaudit"], statements=5, budget=0.0)
        assert [f.pass_name for f in report.passes[0].findings] == ["budget"]
        assert not report.ok

    def test_idle_tier_point_is_a_finding(self, monkeypatch):
        """Without the TPC-H slice nothing reaches the worker pool; the
        lane must say so instead of passing vacuously."""
        monkeypatch.setattr(passes, "_tpch_queries", lambda numbers=None: {})
        report = cli.run(["oracle"], statements=30, selftest=False)
        idle = [f.pass_name for f in report.passes[0].findings]
        assert idle == ["plan:parallel"]


class TestOneEntryPoint:
    def test_per_tool_entry_points_are_gone(self):
        for tool in TOOLS:
            for module in ("__main__", "cli"):
                assert importlib.util.find_spec(f"repro.{tool}.{module}") is None
        assert importlib.util.find_spec("repro.analysis") is None

    def test_only_verify_parses_checker_arguments(self):
        parsers = sorted(
            str(path.relative_to(REPO / "src" / "repro"))
            for path in (REPO / "src" / "repro").rglob("*.py")
            if "argparse" in path.read_text()
        )
        assert parsers == ["bench/cli.py", "verify/cli.py"]

    def test_seven_flags(self):
        text = (REPO / "src" / "repro" / "verify" / "cli.py").read_text()
        flags = set(re.findall(r'"(--[a-z-]+)"', text))
        assert flags == {
            "--pass", "--seed", "--statements", "--out", "--check",
            "--no-selftest", "--budget",
        }


class TestTierTable:
    def test_every_tier_row_has_an_injection_kind(self):
        assert set(BUG_KINDS) >= {tier.name for tier in drivers.TIERS}

    def test_settings_points_stack_every_row_below(self):
        points = drivers.settings_points(BeeSettings.all_bees())
        assert [tier.name for tier, _ in points] == [
            tier.name for tier in drivers.TIERS
        ]
        assert points[-1][1] == BeeSettings.parallelized()
        assert points[0][1] == BeeSettings.pipelined()

    def test_a_new_tier_row_is_demanded_everywhere(self, monkeypatch):
        """Adding a row to TIERS — and nothing under repro/oracle — puts
        it in the N-way lane and the harvest, and fails the census until
        it has a checker and an injection kind."""

        class _Dummy(drivers._Vector):
            name, prefix = "dummy", "DUM"

        dummy = _Dummy()
        monkeypatch.setattr(drivers, "TIERS", drivers.TIERS + (dummy,))
        monkeypatch.setitem(drivers.TIER_BY_NAME, "dummy", dummy)

        points = plan_points(BeeSettings.all_bees())
        assert [p.name for p in points][-1] == "dummy"

        with Database(BeeSettings.all_bees()) as db:
            db.sql("CREATE TABLE t (a INT NOT NULL, b INT NOT NULL)")
            db.sql("INSERT INTO t VALUES (1, 2)")
            with harvest(db) as made:
                db.sql("SELECT a FROM t WHERE b > 1", bees=points[-1].settings)
            kinds = {entry.kind for entry in made}
            counted = db.stats()["bees"]["dummy_routines"]
        assert "dummy" in kinds and counted > 0   # the lane's evidence
        from repro import beecheck

        with pytest.raises(KeyError):
            beecheck.check("dummy", object())
        assert {t.name for t in drivers.TIERS} - set(BUG_KINDS) == {"dummy"}
        with pytest.raises(ValueError):
            with inject_bug("dummy"):
                pass


class TestCorpus:
    def test_routines_carry_what_their_checker_needs(self):
        from repro import beecheck

        with Corpus(seed=3, statements=30) as corpus:
            assert set(corpus.databases) == {
                "tpch", "tpcc", "fuzz/pipeline", "fuzz/vector",
            }
            for entry in corpus.routines[::7]:
                assert beecheck.check(
                    entry.kind, entry.routine, *entry.args
                ).ok
