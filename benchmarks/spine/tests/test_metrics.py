import json
import re

import metrics
from harness import REPO_ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_matches_the_registry():
    on_disk = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.benchmark_json(on_disk["run_seconds"])


def test_contract_limits():
    spec = metrics.benchmark_json(8)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert len(json.dumps(spec)) < 64 * 1024


def test_every_per_layer_metric_names_its_layer():
    assert set(metrics.LAYER) == set(metrics.PER_LAYER_NAMES)
    assert set(metrics.LAYER.values()) <= {
        "sql", "bees", "bees.vector", "engine", "storage", "cost", "parallel",
        "server", "resilience", "stmt", "tpcc", "trace",
    }
