"""Tests for the algorithm registry and the bench harness utilities."""

import numpy as np
import pytest

import json
import os

from repro import ALGORITHMS, algorithm_names, get_algorithm
from repro.bench import (
    average_reports,
    format_series,
    format_table,
    json_output_dir,
    run_algorithms,
    write_bench_json,
)
from repro.bench.harness import JSON_ENV_VAR
from repro.verify import CHECK_ASSIGNMENT, verify_solution


class TestRegistry:
    def test_all_paper_algorithms_present(self):
        names = set(algorithm_names())
        assert {"Gr", "Gr*", "Gr-no-latency", "Closest",
                "Closest-no-balance", "Balance", "SLP1", "SLP"} <= names

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_algorithm("nope")

    @pytest.mark.parametrize("name", ["Gr", "Gr*", "Gr-no-latency",
                                      "Closest", "Closest-no-balance",
                                      "Balance"])
    def test_fast_algorithms_run(self, name, tiny_problem):
        solution = get_algorithm(name)(tiny_problem)
        assert solution.assignment.shape == (tiny_problem.num_subscribers,)

    def test_slp1_runs(self, tiny_problem):
        solution = get_algorithm("SLP1")(tiny_problem, seed=0)
        assert verify_solution(tiny_problem, solution, {CHECK_ASSIGNMENT}).ok

    def test_slp_runs_on_one_level(self, tiny_problem):
        solution = get_algorithm("SLP")(tiny_problem, seed=0)
        assert verify_solution(tiny_problem, solution, {CHECK_ASSIGNMENT}).ok


class TestHarness:
    def test_run_algorithms(self, tiny_problem):
        runs = run_algorithms(tiny_problem, ["Gr", "Gr*"])
        assert [r.name for r in runs] == ["Gr", "Gr*"]
        for run in runs:
            assert run.report.bandwidth > 0
            assert run.report.runtime_seconds is not None

    def test_run_algorithms_kwargs(self, tiny_problem):
        runs = run_algorithms(tiny_problem, ["SLP1"],
                              kwargs={"SLP1": {"seed": 7}})
        assert runs[0].report.algorithm == "SLP1"

    def test_average_reports(self, tiny_problem):
        runs = run_algorithms(tiny_problem, ["Gr", "Gr*"])
        avg = average_reports([r.report for r in runs])
        assert set(avg) == {"bandwidth", "rms_delay", "load_stdev", "lbf",
                            "feasible_fraction"}
        assert avg["bandwidth"] > 0

    def test_average_empty_rejected(self):
        with pytest.raises(ValueError):
            average_reports([])


class TestTables:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.5], ["x", None]],
                           title="demo")
        assert "demo" in out
        assert "| a" in out
        assert "2.5" in out
        assert "-" in out  # None rendered as dash

    def test_format_table_large_numbers_scientific(self):
        out = format_table(["v"], [[1.23e9]])
        assert "e+09" in out

    def test_format_series(self):
        out = format_series("bw", [(1, 10.0), (2, 20.0)])
        assert "series: bw" in out
        assert "10" in out


class TestBenchJson:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv(JSON_ENV_VAR, raising=False)
        assert json_output_dir() is None
        assert write_bench_json("noop", {"rows": []}) is None

    def test_writes_numpy_payload(self, tmp_path):
        payload = {
            "rows": [[np.int64(3), np.float64(1.5), np.bool_(True)]],
            "series": np.arange(3),
        }
        path = write_bench_json("demo", payload, directory=str(tmp_path))
        assert path == str(tmp_path / "BENCH_demo.json")
        data = json.loads(open(path).read())
        assert data["rows"] == [[3, 1.5, True]]
        assert data["series"] == [0, 1, 2]

    def test_env_var_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(JSON_ENV_VAR, str(tmp_path))
        assert json_output_dir() == str(tmp_path)
        path = write_bench_json("env", {"x": 1})
        assert path is not None
        assert os.path.dirname(path) == str(tmp_path)

    def test_unserializable_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_bench_json("bad", {"x": object()},
                             directory=str(tmp_path))
