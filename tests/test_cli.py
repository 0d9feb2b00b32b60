"""Tests for the ``python -m repro.bench`` experiment CLI."""

import subprocess
import sys

import pytest

from repro.bench.cli import run


class TestCLIInProcess:
    def test_case_study_only(self, capsys):
        assert run(["--sf", "0.001", "--only", "case-study"]) == 0
        out = capsys.readouterr().out
        assert "Section II case study" in out
        assert "paper ~340" in out

    def test_fig8_only(self, capsys):
        assert run(["--sf", "0.001", "--only", "fig8"]) == 0
        out = capsys.readouterr().out
        assert "bulk-loading improvement" in out
        assert "lineitem" in out

    def test_fig7_only(self, capsys):
        assert run(["--sf", "0.001", "--only", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "GCL+EVP+EVJ" in out

    def test_tpcc_only(self, capsys):
        assert run([
            "--only", "tpcc", "--warehouses", "1", "--transactions", "30",
        ]) == 0
        out = capsys.readouterr().out
        assert "TPC-C throughput" in out
        assert "query_only" in out

    def test_extras_only(self, capsys):
        assert run(["--sf", "0.001", "--only", "extras"]) == 0
        out = capsys.readouterr().out
        for title in (
            "tuple-bee cardinality", "clone-and-patch vs recompile",
            "bee placement", "+AGG routine", "q6 on row store vs column store",
            "generic vs generated code",
        ):
            assert title in out
        assert "Section II case study" not in out
        assert "q18" in out and "bee-specialized" in out and "deform (GCL)" in out

    def test_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run(["--only", "fig99"])


def test_cli_as_module():
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.bench",
            "--sf", "0.001", "--only", "case-study",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0
    assert "case study" in result.stdout
