"""swarmcheck: purity, shared-state, and escape passes + self-tests."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.bees.settings import BeeSettings
from repro.bees.vector.chunks import ChunkCache, chunk_from_rows, freeze_chunk
from repro.catalog import INT4, NUMERIC, make_schema
from repro.db import Database
from repro.hiveaudit.source import EngineSource
from repro.swarmcheck import REGISTRY, SHARED
from repro.swarmcheck import escape as escape_mod
from repro.swarmcheck import locks as locks_mod
from repro.swarmcheck import purity as purity_mod
from repro.swarmcheck import registry as registry_mod
from repro.swarmcheck import sharedstate as shared_mod
from repro.swarmcheck.selftest import run_selftest
from repro.verify.corpus import Corpus


@pytest.fixture(scope="module")
def source():
    return EngineSource()


@pytest.fixture(scope="module")
def corpus():
    with Corpus(seed=0, statements=60) as built:
        # TPC-H + TPC-C batteries, then one fuzz database per local
        # tier, 60 statements each and the 25 literal siblings and 4
        # split cases behind them (uncounted riders, see
        # StatementGenerator.stream)
        assert built.executed == 22 + 15 + 2 * (60 + 25 + 4)
        return [(entry.kind, entry.routine) for entry in built.routines]


@pytest.fixture(scope="module")
def shared_result(source):
    return shared_mod.classify_writes(source)


class TestPurity:
    def test_whole_corpus_is_pure(self, corpus):
        findings, counts = purity_mod.run_purity(corpus)
        assert findings == []
        # The deterministic section guarantees every family appears
        # regardless of what the fuzzed statements built.
        assert set(counts) == {
            "gcl", "gcl_cols", "scl", "evp", "evj", "agg", "idx",
            "pipeline", "vector",
        }

    def test_global_write_is_impure(self, corpus):
        evp = next(r for kind, r in corpus if kind == "evp")
        bad = dataclasses.replace(
            evp,
            source=evp.source.replace(
                "    _charge(", "    global _n\n    _n = 1\n    _charge(", 1
            ),
        )
        findings = purity_mod.check_routine("evp", bad)
        assert any("global" in f.message for f in findings)

    def test_param_mutation_is_impure(self, corpus):
        evp = next(r for kind, r in corpus if kind == "evp")
        bad = dataclasses.replace(
            evp,
            source=evp.source.replace(
                "    _charge(", "    row[0] = None\n    _charge(", 1
            ),
        )
        findings = purity_mod.check_routine("evp", bad)
        assert any("non-owned" in f.message for f in findings)

    def test_agg_states_sink_is_declared(self, corpus):
        # AGG bees mutate their states parameter by design — that is
        # the declared sink, not an impurity.
        agg = next(r for kind, r in corpus if kind == "agg")
        assert "states[" in agg.source
        assert purity_mod.check_routine("agg", agg) == []

    def test_non_whitelisted_call_is_impure(self, corpus):
        idx = next(r for kind, r in corpus if kind == "idx")
        bad = dataclasses.replace(
            idx,
            source=idx.source.replace(
                "    _charge(", "    print('x')\n    _charge(", 1
            ),
        )
        findings = purity_mod.check_routine("idx", bad)
        assert any("whitelist" in f.message for f in findings)

    def test_mutable_namespace_capture_is_impure(self, corpus):
        gcl = next(r for kind, r in corpus if kind == "gcl")
        bad = dataclasses.replace(
            gcl, namespace=dict(gcl.namespace or {}, _MEMO=[])
        )
        findings = purity_mod.check_routine("gcl", bad)
        assert any("mutable list" in f.message for f in findings)

    def test_writable_array_capture_is_impure(self, corpus):
        vec = next(r for kind, r in corpus if kind == "vector")
        bad = dataclasses.replace(
            vec, namespace=dict(vec.namespace or {}, _BUF=np.zeros(4))
        )
        findings = purity_mod.check_routine("vector", bad)
        assert any("WRITABLE ndarray" in f.message for f in findings)

    def test_frozen_array_capture_is_pure(self, corpus):
        vec = next(r for kind, r in corpus if kind == "vector")
        frozen = np.zeros(4)
        frozen.setflags(write=False)
        ok = dataclasses.replace(
            vec, namespace=dict(vec.namespace or {}, _BUF=frozen)
        )
        assert purity_mod.check_routine("vector", ok) == []

    def test_evj_static_data_is_impure(self, corpus):
        evj = next(r for kind, r in corpus if kind == "evj")
        assert purity_mod.check_routine("evj", evj) == []
        bad = dataclasses.replace(
            evj, source="static int hits = 0;\n" + evj.source
        )
        findings = purity_mod.check_routine("evj", bad)
        assert any("static data" in f.message for f in findings)


class TestSharedState:
    def test_no_unclassified_writes(self, shared_result):
        _sites, findings, _stats = shared_result
        assert findings == []

    def test_every_registry_entry_is_exercised(self, shared_result):
        _sites, _findings, stats = shared_result
        assert stats["unused_registry_keys"] == []

    def test_shared_entries_name_guard_and_epoch(self):
        for entry in REGISTRY:
            if entry.scope == SHARED:
                assert entry.guard, f"{entry.key} has no guard"
                assert entry.epoch, f"{entry.key} has no epoch"

    def test_memo_caches_are_declared(self, shared_result):
        sites, _findings, _stats = shared_result
        matched = {s.entry_key for s in sites if s.entry_key}
        for key in (
            "GenericBeeModule._evp_by_expr",
            "ChunkCache._entries",
            "Ledger.total",
            "ResilienceRegistry._health",
        ):
            assert key in matched, f"no write site matched {key}"

    def test_plan_node_writes_are_statement_local(self, shared_result):
        sites, _findings, _stats = shared_result
        node_sites = [
            s for s in sites if s.module == "engine/nodes.py"
        ]
        assert node_sites, "no writes found in plan-node module"
        assert all(
            s.classification == "statement-local" for s in node_sites
        )

    def test_registry_gap_is_a_finding(self, source):
        gapped = tuple(
            e for e in REGISTRY if e.key != "Ledger.total"
        )
        _sites, findings, _stats = shared_mod.classify_writes(
            source, registry=gapped
        )
        assert any("Ledger.total" in f.subject for f in findings)

    def test_lookup_falls_back_to_wildcard(self):
        assert registry_mod.lookup("BeeRoutine", "epoch") is not None
        assert registry_mod.lookup(None, "epoch") is not None
        assert registry_mod.lookup(None, "no_such_attr") is None


class TestEscape:
    def test_vector_modules_are_clean(self, source):
        assert escape_mod.scan_modules(source) == []

    def test_all_kernels_are_clean(self, corpus):
        findings, checked = escape_mod.scan_kernels(corpus)
        assert findings == []
        assert checked > 0

    def test_kernel_store_is_flagged(self, corpus):
        vec = next(r for kind, r in corpus if kind == "vector")
        bad = dataclasses.replace(
            vec,
            source=vec.source.replace(
                "    _charge(", "    cols[0][0] = 1\n    _charge(", 1
            ),
        )
        findings, _ = escape_mod.scan_kernels([("vector", bad)])
        assert findings

    def test_out_kwarg_is_flagged(self, corpus):
        vec = next(r for kind, r in corpus if kind == "vector")
        bad = dataclasses.replace(
            vec,
            source=vec.source.replace(
                "    _charge(",
                "    _np.add(cols[0], 1, out=t0)\n    _charge(", 1,
            ),
        )
        findings, _ = escape_mod.scan_kernels([("vector", bad)])
        assert any("out=" in f.message for f in findings)

    def test_cached_chunks_are_frozen(self):
        db = Database(BeeSettings.vectorized())
        db.sql("CREATE TABLE t (a INT, b INT)")
        db.sql("INSERT INTO t VALUES (1, 10)")
        db.sql("INSERT INTO t VALUES (2, 20)")
        db.sql("SELECT a FROM t WHERE b > 5")
        entries = db.chunk_cache._entries
        assert entries, "vector scan did not populate the chunk cache"
        chunks = {uid: entry.chunk for uid, entry in entries.items()}
        findings, arrays = escape_mod.check_entries(chunks)
        assert findings == []
        assert arrays > 0
        # And mutation actually raises, not just reports.
        chunk = next(iter(chunks.values()))
        with pytest.raises(ValueError):
            chunk.cols[0][0] = 99

    def test_writable_entry_is_flagged(self):
        schema = make_schema("t", [("a", INT4), ("b", NUMERIC, True)])
        chunk = chunk_from_rows(schema, [[1, 1.5], [2, None]])
        findings, arrays = escape_mod.check_entries({1: chunk})
        assert findings and arrays > 0
        freeze_chunk(chunk)
        findings, _ = escape_mod.check_entries({1: chunk})
        assert findings == []


class TestLocks:
    """Pass 4: the guard registry is materialized and honoured."""

    def test_locks_pass_is_clean(self, source):
        findings, stats = locks_mod.run_locks(source)
        assert findings == []
        # One statement.run site, reached only through the gate.
        assert stats["gated_run_sites"] == 1
        assert stats["guarded_writes_checked"] > 0

    def test_every_declared_guard_is_materialized(self, source):
        _findings, stats = locks_mod.run_locks(source)
        assert set(stats["declared_guards"]) == set(stats["materialized"])

    def test_phantom_guard_is_a_finding(self, source):
        phantom = REGISTRY + (
            registry_mod.SharedState(
                "HiveServer", "_ghost", SHARED, "ghost_lock", "-"
            ),
        )
        findings, _stats = locks_mod.run_locks(source, registry=phantom)
        assert any(f.subject == "ghost_lock" for f in findings)

    def test_unguarded_write_is_a_finding(self, source):
        text = source.text("server/core.py").replace(
            "        with self.locks.server_lock:\n"
            "            self.stats.disconnects += 1",
            "        self.stats.disconnects += 1",
            1,
        )
        patched = type(source)(overrides={"server/core.py": text})
        findings, _stats = locks_mod.run_locks(patched)
        assert any(
            f.subject == "ServerStats.disconnects" for f in findings
        )

    def test_ungated_run_statement_is_a_finding(self, source):
        original = source.text("server/core.py")
        for old, new in (
            # execute runs the statement without admission ...
            ("        shed = self._admit()\n", "        shed = False\n"),
            # ... or a second caller reaches _run past the gate.
            ("    def note_disconnect(self) -> None:\n",
             "    def rerun(self, session, statement) -> None:\n"
             "        self._run(session, statement, None)\n\n"
             "    def note_disconnect(self) -> None:\n"),
        ):
            text = original.replace(old, new, 1)
            assert text != original
            patched = type(source)(overrides={"server/core.py": text})
            findings, _stats = locks_mod.run_locks(patched)
            assert any("outside the gate" in f.message for f in findings)


class TestSelftest:
    def test_every_injection_is_caught(self, source, corpus):
        results = run_selftest(source, corpus)
        assert len(results) >= 13
        missed = [case for case, ok in results.items() if not ok]
        assert not missed, f"injections missed: {missed}"


class TestSatellites:
    def test_stats_returns_deep_copies(self):
        db = Database(BeeSettings.all_bees())
        db.sql("CREATE TABLE t (a INT)")
        db.sql("INSERT INTO t VALUES (1)")
        first = db.stats()
        # Mutating the returned snapshot must not leak into engine
        # state or into later snapshots.
        mutated = copy.deepcopy(first)
        first["bees"].clear()
        first["resilience"]["events"] = ["bogus"] if isinstance(
            first["resilience"], dict
        ) else first["resilience"]
        second = db.stats()
        assert second["bees"] == mutated["bees"]

    def test_chunk_cache_get_freezes(self):
        db = Database(BeeSettings.vectorized())
        db.sql("CREATE TABLE t (a INT)")
        db.sql("INSERT INTO t VALUES (7)")
        rel = db.relation("t")
        cache = ChunkCache()
        chunk = cache.get(rel)
        for arr in chunk.cols:
            assert not arr.flags.writeable
        for mask in chunk.nulls:
            if mask is not None:
                assert not mask.flags.writeable
