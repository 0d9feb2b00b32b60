"""Tests for the paper-figure reporter (``repro.bench``) and the tier
gates' decision function (``benchmarks/gates.py``)."""

import importlib.util
from pathlib import Path

import pytest

from repro.bench import extra_experiments as extras
from repro.bench.reporting import bar_chart, improvement, table
from repro.bench.tpcc_experiments import MixComparison, run_tpcc_comparison
from repro.bench.tpch_experiments import (
    QueryComparison,
    SuiteResult,
    build_suite_pair,
    compare_queries,
    run_ablation,
)
from repro.workloads.tpcc.loader import TPCCConfig
from repro.workloads.tpcc.runner import TPCCResult
from repro.workloads.tpch.dbgen import TPCHGenerator
from repro.workloads.tpch.loader import generate_rows


class TestReporting:
    def test_improvement(self):
        assert improvement(100, 88) == pytest.approx(12.0)
        assert improvement(0, 5) == 0.0
        assert improvement(100, 110) == pytest.approx(-10.0)

    def test_bar_chart(self):
        chart = bar_chart(["q1", "q2"], [10.0, 20.0], "Title")
        assert "Title" in chart
        assert "q1" in chart
        assert "10.0%" in chart
        assert chart.count("#") > 0

    def test_bar_chart_mismatched(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0], "t")

    def test_table(self):
        text = table(["name", "value"], [["x", 1.5], ["yy", 2]])
        assert "name" in text
        assert "1.50" in text
        assert "yy" in text


class TestSuiteResult:
    def _comparison(self, n, stock_s, bees_s):
        return QueryComparison(
            query=n,
            stock_seconds=stock_s,
            bees_seconds=bees_s,
            stock_instructions=int(stock_s * 1e9),
            bees_instructions=int(bees_s * 1e9),
            results_match=True,
        )

    def test_avg1_equal_weight(self):
        suite = SuiteResult({
            1: self._comparison(1, 10.0, 9.0),     # 10%
            2: self._comparison(2, 1.0, 0.7),      # 30%
        })
        assert suite.avg1("time") == pytest.approx(20.0)

    def test_avg2_time_weighted(self):
        suite = SuiteResult({
            1: self._comparison(1, 10.0, 9.0),
            2: self._comparison(2, 1.0, 0.7),
        })
        # (11 - 9.7) / 11 = 11.8%
        assert suite.avg2("time") == pytest.approx(11.8, abs=0.1)

    def test_all_match(self):
        good = SuiteResult({1: self._comparison(1, 1.0, 0.9)})
        assert good.all_match()


@pytest.fixture(scope="module")
def small_pair():
    return build_suite_pair(scale_factor=0.001)


class TestCompareQueries:
    def test_warm_subset(self, small_pair):
        stock, bees = small_pair
        suite = compare_queries(stock, bees, queries=[1, 6])
        assert set(suite.comparisons) == {1, 6}
        assert suite.all_match()
        assert suite.avg1("time") > 0

    def test_cold_has_io(self, small_pair):
        stock, bees = small_pair
        warm = compare_queries(stock, bees, queries=[9], cold=False)
        cold = compare_queries(stock, bees, queries=[9], cold=True)
        assert (
            cold.comparisons[9].stock_seconds
            > warm.comparisons[9].stock_seconds
        )


class TestAblation:
    def test_three_steps_monotone(self):
        results = run_ablation(scale_factor=0.001, queries=[3, 6])
        assert set(results) == {"GCL", "GCL+EVP", "GCL+EVP+EVJ"}
        gcl = results["GCL"].avg1("time")
        evp = results["GCL+EVP"].avg1("time")
        assert gcl > 0
        assert evp >= gcl
        steps = [results[step].comparisons for step in results]
        for n in (3, 6):        # bee additivity: a routine never subtracts
            gains = [step[n].time_improvement for step in steps]
            assert gains == sorted(gains), f"q{n}: {gains}"
        # q6 is one scan under a heavy predicate: EVP is its big win.
        assert steps[1][6].time_improvement >= steps[0][6].time_improvement + 5.0


class TestTPCCComparison:
    def test_mix_comparison_properties(self):
        stock = TPCCResult("default", 100, 2.0, {"new_order": 45})
        bees = TPCCResult("default", 100, 1.8, {"new_order": 45})
        comparison = MixComparison("default", stock, bees)
        assert comparison.throughput_improvement == pytest.approx(
            (100 / 1.8) / (100 / 2.0) * 100 - 100
        )
        assert comparison.tpmc_improvement > 0

    def test_zero_throughput_guard(self):
        zero = TPCCResult("default", 0, 0.0, {})
        comparison = MixComparison("default", zero, zero)
        assert comparison.throughput_improvement == 0.0

    def test_run_tpcc_comparison_smoke(self):
        config = TPCCConfig(warehouses=1, customers_per_district=20, items=60)
        report = run_tpcc_comparison(
            config, mixes=["default"], n_transactions=20
        )
        assert report["default"].throughput_improvement > 0


class TestExtras:
    """Shape claims of the ablation / future-work tables, at tiny sizes."""

    def test_cardinality_sweep_low_wins_high_loses(self):
        sweep = extras.cardinality_sweep(n_rows=1500, cardinalities=(2, 1024))
        assert sweep[2] > 0
        assert sweep[2] > sweep[1024]

    def test_placement_small_effect(self):
        report = extras.placement()
        naive, optimized = report["naive"], report["optimized"]
        assert optimized["added_conflict"] <= naive["added_conflict"]
        assert optimized["miss_rate_delta"] < 0.01

    def test_agg_adds_on_top(self):
        rows = generate_rows(TPCHGenerator(0.001))
        report = extras.agg_future(rows)
        assert set(report) == {1, 9, 16, 18}
        for n, (paper, future) in report.items():
            assert future >= paper - 0.2, f"q{n}: AGG regressed"
        assert report[1][1] > report[1][0] + 1.0

    def test_columnar_orthogonality(self):
        counts = extras.columnar_q6(generate_rows(TPCHGenerator(0.001)))
        row, generic, specialized = counts.values()
        assert generic < row / 2
        assert 10.0 <= improvement(generic, specialized) <= 60.0

    def test_generated_code_is_faster_python(self):
        for name, (generic, generated) in extras.routine_microbench().items():
            assert 0 < generated < generic, name
        cost = extras.instantiation_cost()
        assert cost["clone_evj_ns"] < cost["recompile_evp_ns"]


def _load_gates():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "gates.py"
    spec = importlib.util.spec_from_file_location("gates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGateDecision:
    """``gates.decide`` is pure: fabricated spine results in, verdicts out."""

    gates = _load_gates()

    @staticmethod
    def _results(**overrides):
        def result(ops_per_s, model_ms, **extra):
            metrics = {"ops_per_s": ops_per_s, "model_ms_per_op": model_ms, **extra}
            return {
                "correct": True, "attempted": 66, "failed": 0,
                "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()},
            }

        results = {
            "tpch_bees_warm": result(25.0, 5.0),
            "tpch_pipe_warm": result(42.0, 2.0),
            "tpch_vector_warm": result(80.0, 0.95),
            "tpch_parallel": result(30.0, 0.6, **{
                "parallel.model_ratio_vs_serial": 0.62,
                "parallel.wall_ratio_vs_serial": 2.6,
            }),
        }
        for name, (ops_per_s, model_ms) in overrides.items():
            results[name] = result(ops_per_s, model_ms)
        return results

    def _failed(self, results, shield=1.0):
        return [row[0] for row in self.gates.decide(results, shield) if not row[-1]]

    def test_measured_numbers_pass(self):
        assert self._failed(self._results(), shield=1.02) == []

    def test_vector_slower_than_fused_fails(self):
        results = self._results(tpch_vector_warm=(40.0, 0.95))
        assert self._failed(results) == ["vector beats fused"]

    def test_fused_must_win_on_both_clocks(self):
        slow_wall = self._results(tpch_pipe_warm=(24.0, 2.0))
        assert "fused beats routine bees" in self._failed(slow_wall)
        slow_model = self._results(tpch_pipe_warm=(42.0, 5.5))
        assert "fused beats routine bees" in self._failed(slow_model)

    def test_shield_overhead_fails(self):
        assert self._failed(self._results(), shield=1.10) == ["shield overhead"]

    def test_failed_spine_run_fails(self):
        results = self._results()
        results["tpch_pipe_warm"]["failed"] = 3
        assert self._failed(results) == ["spine run tpch_pipe_warm correct"]
        results = self._results()
        results["tpch_parallel"] = {
            "correct": False, "attempted": 0, "failed": 1, "metrics": {},
        }
        assert self._failed(results) == [
            "spine run tpch_parallel correct",
            "parallel beats serial vector (modeled only)",
        ]

    def test_parallel_real_ratio_is_not_gated(self):
        results = self._results()
        results["tpch_parallel"]["metrics"]["parallel.wall_ratio_vs_serial"]["value"] = 9.0
        assert self._failed(results) == []
        results["tpch_parallel"]["metrics"]["parallel.model_ratio_vs_serial"]["value"] = 0.9
        assert self._failed(results) == ["parallel beats serial vector (modeled only)"]
