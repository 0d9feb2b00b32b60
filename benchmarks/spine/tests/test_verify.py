import json
import shutil
from types import SimpleNamespace

import pytest

import harness
import verify


def default_tpch_expected():
    import wl_tpch

    return verify.expected_path("tpch", wl_tpch.SF, harness.DEFAULT_SEED)


def test_reference_check_fails_on_a_perturbed_row():
    import wl_tpch

    reference = verify.tpch_reference("tpch", wl_tpch.SF, harness.DEFAULT_SEED, None, [], 0.0)
    assert reference.source.startswith("file:")
    queries = reference.queries
    rows = list(queries[1]["rows"])
    assert reference.check(1, rows) is True
    assert reference.check(1, list(reversed(rows))) is True       # order-insensitive
    bumped = [tuple(v * 1.001 if isinstance(v, float) else v for v in rows[0])] + rows[1:]
    assert reference.check(1, bumped) is False
    assert reference.check(1, rows[1:]) is False
    assert verify.TpchReference({}, "empty").check(1, rows) is None


def test_command_exits_nonzero_when_one_expected_row_is_perturbed(tmp_path, monkeypatch, capsys):
    import run

    source = default_tpch_expected()
    shutil.copy(source, tmp_path / source.name)
    data = json.loads(source.read_text())
    row = data["queries"]["6"]["rows"][0]
    row[0] = row[0] * 1.01
    (tmp_path / source.name).write_text(json.dumps(data))
    monkeypatch.setattr(verify, "EXPECTED_DIR", tmp_path)
    code = run.main(["--workload", "tpch_vector_warm", "--seconds", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] >= 1


def test_tpcc_consistency_catches_a_broken_warehouse_total():
    from repro.bees.settings import BeeSettings

    import wl_tpcc

    config = wl_tpcc.config_for(SimpleNamespace(quick=True, seed=3))
    db, _seconds = wl_tpcc.build(BeeSettings.all_bees(), config)
    wl_tpcc.Driver(db, config, 3).run(200)
    assert verify.tpcc_consistency(db) == []
    before = verify.state_digest(db, ["warehouse", "district"])
    db.update_where("warehouse", lambda row: row[0] == 1,
                    lambda row: row[:7] + [row[7] + 5.0])
    assert any(p.startswith("cond1") for p in verify.tpcc_consistency(db))
    assert verify.state_digest(db, ["warehouse", "district"]) != before
    db.close()


def test_final_state_check_counts_a_lost_increment():
    import wl_sql

    rows = {"supplier": [[1, "", "", 0, "", 10.0, ""]],
            "customer": [[1, "", "", 0, "", 5.0, "", ""]], "region": []}
    final = {"supplier": [[1, "", "", 0, "", 12.0, ""]],
             "customer": [[1, "", "", 0, "", 5.0, "", ""]], "region": []}
    ok = harness.RunResult("t")
    wl_sql.check_final_state(ok, final.__getitem__, rows, {("supplier", 1): 2})
    assert ok.correct
    lost = harness.RunResult("t")
    wl_sql.check_final_state(lost, final.__getitem__, rows, {("supplier", 1): 3})
    assert not lost.correct and lost.failed == 1


@pytest.mark.parametrize("trace", [False, True])
def test_result_object_has_exactly_the_contract_keys(trace):
    import metrics
    import run

    result = harness.RunResult("sql_short", attempted=3)
    names = metrics.PER_LAYER_NAMES if trace else metrics.END_TO_END_NAMES
    result.metrics = {names[0]: 1.5} if trace else {n: 1.5 for n in names}
    obj = run.result_object(result, trace)
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}
    assert list(obj["metrics"]) == names
    assert obj["metrics"][names[0]] == {"value": 1.5, "unit": metrics.UNITS[names[0]]}
    result.metrics["not.registered"] = 1.0
    with pytest.raises(KeyError):
        run.result_object(result, trace)
