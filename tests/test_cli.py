"""End-to-end tests of the command-line front end (in-process main calls)."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from wrdyn import cli, structure
from wrdyn.cli import main


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return str(path)


def coupled_spec(tmp_path, **extra):
    """Kernel direction plus a coupled 2x2 block, weight split half and half."""
    payload = {
        "matrix": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        "u": [1, 1, 0],
    }
    payload.update(extra)
    return write_json(tmp_path / "spec.json", payload)


def reference_report():
    R = np.array([[0, 0, 0], [0, 1, 1], [0, 1, 2]], dtype=np.complex128)
    u = np.array([1.0, 1.0, 0.0], dtype=np.complex128)
    u = u / np.linalg.norm(u)
    return structure.analyze_instance(R, u)


class TestRun:
    def test_coupled_instance_writes_report_and_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        spec = coupled_spec(
            tmp_path,
            outputs={
                "trace_path": str(trace_path),
                "report_path": str(report_path),
                "format": "json",
            },
        )
        assert main(["run", spec]) == 0
        out = capsys.readouterr().out
        assert "ActiveDim2" in out

        report = json.loads(report_path.read_text())
        assert report["exit_status"] == 0
        assert report["converged"] is True
        assert report["classification"]["kind"] == structure.KIND_ACTIVE_DIM2
        assert report["split"] == {"frozen_dim": 0, "seed_dim": 3}
        assert report["active"]["dim"] == 2
        assert abs(report["active"]["tau"] - 0.5) < 1e-12
        assert report["stationarity"]["passed"] is True
        limit = np.array(
            [[complex(re, im) for re, im in row] for row in report["limit_estimate"]]
        )
        assert np.abs(limit).max() < 1e-8
        assert set(report["residual_max"]) >= {"a_recursion", "det_decay"}

        trace = json.loads(trace_path.read_text())
        assert trace["records"][0]["n"] == 0
        assert trace["converged"] is True
        assert len(trace["records"]) == report["steps"] + 1
        assert abs(trace["tau"] - 0.5) < 1e-12

    def test_trace_json_round_trips_exact_floats(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        spec = coupled_spec(
            tmp_path, outputs={"trace_path": str(trace_path), "format": "json"}
        )
        assert main(["run", spec]) == 0
        got = json.loads(trace_path.read_text())["records"]
        want = reference_report().trace.records
        assert len(got) == len(want)
        for k in (0, 1, 2, 17, len(want) - 1):
            assert got[k]["det"] == want[k].det
            assert got[k]["trace"] == want[k].trace
            assert got[k]["gap"] == want[k].gap
            assert got[k]["rank"] == want[k].rank
        for k in (0, 5, 25):
            assert got[k]["block"]["coupling_norm"] == want[k].block_coords.coupling_norm
            assert got[k]["block"]["det"] == want[k].block_det

    def test_trace_csv_round_trips_exact_floats(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        spec = coupled_spec(
            tmp_path, outputs={"trace_path": str(trace_path), "format": "csv"}
        )
        assert main(["run", spec]) == 0
        with open(trace_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        want = reference_report().trace.records
        assert len(rows) == len(want)
        for k in (0, 1, 33, len(want) - 1):
            assert int(rows[k]["n"]) == k
            assert float(rows[k]["lambda_max"]) == want[k].lambda_max
            assert float(rows[k]["trace"]) == want[k].trace
            assert float(rows[k]["gap"]) == want[k].gap
        assert float(rows[4]["coupling_norm"]) == want[4].block_coords.coupling_norm

    def test_commuting_instance_predicts_spectral_truncation(self, tmp_path):
        report_path = tmp_path / "report.json"
        spec = write_json(
            tmp_path / "spec.json",
            {
                "matrix": [[2, 0], [0, 1]],
                "u": [1, 0],
                "outputs": {"report_path": str(report_path)},
            },
        )
        assert main(["run", spec]) == 0
        report = json.loads(report_path.read_text())
        assert report["classification"]["kind"] == structure.KIND_COMMUTING_COMPRESSION
        predicted = report["classification"]["predicted_limit"]
        assert predicted[0][0] == [0.0, 0.0]
        assert predicted[1][1] == [1.0, 0.0]

    def test_max_iter_exhaustion_exits_2_but_writes_outputs(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        spec = coupled_spec(
            tmp_path,
            max_iter=1,
            outputs={"trace_path": str(trace_path), "report_path": str(report_path)},
        )
        assert main(["run", spec]) == cli.EXIT_MAX_ITER
        report = json.loads(report_path.read_text())
        assert report["exit_status"] == cli.EXIT_MAX_ITER
        assert report["max_iter_exceeded"] is True
        assert report["converged"] is False
        assert len(json.loads(trace_path.read_text())["records"]) == 2

    def test_max_iter_flag_overrides_spec(self, tmp_path):
        spec = coupled_spec(tmp_path, max_iter=5000)
        assert main(["run", spec, "--max-iter", "1"]) == cli.EXIT_MAX_ITER

    def test_conv_tol_override_shortens_run(self, tmp_path):
        report_path = tmp_path / "report.json"
        spec = coupled_spec(tmp_path, outputs={"report_path": str(report_path)})
        assert main(["run", spec, "--conv-tol", "1e-4"]) == 0
        loose = json.loads(report_path.read_text())["steps"]
        assert main(["run", spec]) == 0
        tight = json.loads(report_path.read_text())["steps"]
        assert loose < tight

    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n "matrix": [[1, 0], [0, 1]],,\n}\n', encoding="utf-8")
        assert main(["run", str(bad)]) == cli.EXIT_SPEC_ERROR
        err = capsys.readouterr().err
        assert "spec error" in err
        assert ":2:" in err

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"matrix": [[1, 0], [0, 1]]}, "required fields"),
            ({"matrix": [[1, 0]], "u": [1]}, "not square"),
            ({"matrix": [[1, 0], [0, 1]], "u": [1]}, "length 1"),
            ({"matrix": [[1, 0], [0, 1]], "u": [0, 0]}, "nonzero"),
            (
                {"matrix": [[1, 0], [0, 1]], "u": [1, 0], "tolerances": {"conv_tol": 0}},
                "positive",
            ),
            (
                {"matrix": [[1, 0], [0, 1]], "u": [1, 0], "max_iter": 0},
                "max_iter",
            ),
            (
                {"matrix": [[1, 0], [0, 1]], "u": [1, 0], "outputs": {"format": "xml"}},
                "format",
            ),
            ({"matrix": [[1, "x"], [0, 1]], "u": [1, 0]}, "pair"),
            ({"matrix": [[1, 0], [0, float("nan")]], "u": [1, 0]}, "finite"),
            ({"matrix": [[1, 0], [0, 1]], "u": [[1, float("inf")], 0]}, "finite"),
        ],
    )
    def test_invalid_specs_exit_1(self, tmp_path, capsys, payload, fragment):
        spec = write_json(tmp_path / "spec.json", payload)
        assert main(["run", spec]) == cli.EXIT_SPEC_ERROR
        assert fragment in capsys.readouterr().err

    def test_non_hermitian_matrix_exits_1(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "spec.json", {"matrix": [[1, 1], [0, 1]], "u": [1, 0]}
        )
        assert main(["run", spec]) == cli.EXIT_SPEC_ERROR
        assert "NonHermitianInput" in capsys.readouterr().err

    def test_complex_entries_via_re_im_pairs(self, tmp_path):
        report_path = tmp_path / "report.json"
        spec = write_json(
            tmp_path / "spec.json",
            {
                "matrix": [[[1, 0], [0, -0.5]], [[0, 0.5], [2, 0]]],
                "u": [[1, 0], [0, 0]],
                "outputs": {"report_path": str(report_path)},
            },
        )
        assert main(["run", spec]) == 0
        report = json.loads(report_path.read_text())
        assert report["converged"] is True


class TestCheck:
    def test_canonical_identities_pass(self, tmp_path, capsys):
        spec = coupled_spec(tmp_path)
        assert main(["check", spec]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for name in ("det_decay_recomputed", "cross_validation", "a_recursion"):
            assert name in out
        xval_line = next(l for l in out.splitlines() if l.startswith("cross_validation"))
        assert "pass" in xval_line and "vacuous" not in xval_line

    def test_injected_corruption_detected(self, tmp_path, capsys):
        spec = coupled_spec(tmp_path)
        assert main(["check", spec, "--inject-error"]) == cli.EXIT_RESIDUAL
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("det_decay_recomputed"))
        assert "FAIL" in line

    def test_kernel_direction_is_vacuous_pass(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "spec.json",
            {"matrix": [[0, 0, 0], [0, 1, 0], [0, 0, 2]], "u": [1, 0, 0]},
        )
        assert main(["check", spec]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "vacuous" in out
        xval_line = next(l for l in out.splitlines() if l.startswith("cross_validation"))
        assert "vacuous" in xval_line


class TestSweep:
    def sweep_spec(self, tmp_path, **extra):
        payload = {
            "dims": [3, 4],
            "tau_targets": [0.5],
            "seeds": 3,
            "ensemble": "coupled-block",
            "max_iter": 800,
        }
        payload.update(extra)
        return write_json(tmp_path / "sweep.json", payload)

    def test_grid_outputs_sorted_csv_and_artifacts(self, tmp_path):
        spec = self.sweep_spec(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["sweep", spec, "--out", str(out_dir), "--workers", "1"]) == 0
        with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == list(cli._SWEEP_COLUMNS)
        assert len(rows) == 6
        keys = [(int(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)
        assert {int(r[1]) for r in rows} == {3, 4}
        for row in rows:
            assert int(row[2]) in (1, 2)
            assert 0.0 < float(row[3]) < 1.0
            assert int(row[4]) >= 0
            assert float(row[5]) < 1e-7
        hist = json.loads((out_dir / "histogram.json").read_text())
        assert hist["total_runs"] == 6
        assert sum(
            count
            for by_rank in hist["limit_rank_by_active_dim"].values()
            for count in by_rank.values()
        ) == 6
        res = json.loads((out_dir / "residual_max.json").read_text())
        assert res["breakdowns"] == 0
        assert res["overall_max_residual"] < 1e-7

    def test_parallel_run_matches_serial_except_wall_time(self, tmp_path):
        spec = self.sweep_spec(tmp_path)
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        assert main(["sweep", spec, "--out", str(serial_dir), "--workers", "1"]) == 0
        assert main(["sweep", spec, "--out", str(parallel_dir), "--workers", "2"]) == 0

        def strip_wall_time(path):
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader)
                drop = header.index("wall_time")
                return [[c for i, c in enumerate(row) if i != drop] for row in reader]

        assert strip_wall_time(serial_dir / "sweep.csv") == strip_wall_time(
            parallel_dir / "sweep.csv"
        )

    def test_wishart_ensemble_and_seed_range_form(self, tmp_path):
        spec = self.sweep_spec(
            tmp_path, ensemble="wishart", dims=[2], seeds=[5, 7], tau_targets=[0.3]
        )
        out_dir = tmp_path / "wout"
        assert main(["sweep", spec, "--out", str(out_dir)]) == 0
        with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["seed"]) for r in rows] == [5, 6]
        for r in rows:
            assert int(r["limit_rank"]) >= 0
            assert int(r["steps"]) > 0

    def test_collect_flags_disable_artifacts(self, tmp_path):
        spec = self.sweep_spec(
            tmp_path,
            dims=[3],
            seeds=1,
            collect={"limit_rank_histogram": False, "residual_max": False},
        )
        out_dir = tmp_path / "bare"
        assert main(["sweep", spec, "--out", str(out_dir)]) == 0
        assert (out_dir / "sweep.csv").exists()
        assert not (out_dir / "histogram.json").exists()
        assert not (out_dir / "residual_max.json").exists()

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"dims": [1], "seeds": 2}, "dims"),
            ({"dims": [3], "tau_targets": [1.5], "seeds": 2}, "tau_targets"),
            ({"dims": [3], "seeds": "many"}, "seeds"),
            ({"dims": [3], "seeds": 2, "ensemble": "cauchy"}, "ensemble"),
        ],
    )
    def test_invalid_sweep_specs_exit_1(self, tmp_path, capsys, payload, fragment):
        spec = write_json(tmp_path / "sweep.json", payload)
        assert main(["sweep", spec, "--out", str(tmp_path / "x")]) == cli.EXIT_SPEC_ERROR
        assert fragment in capsys.readouterr().err


class TestLoggingAndEntryPoint:
    def test_log_level_from_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WRDYN_LOG", "debug")
        spec = write_json(
            tmp_path / "spec.json", {"matrix": [[1, 0], [0, 2]], "u": [1, 0]}
        )
        assert main(["run", spec]) == 0

    def test_unknown_log_level_warns_and_continues(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WRDYN_LOG", "shout")
        spec = write_json(
            tmp_path / "spec.json", {"matrix": [[1, 0], [0, 2]], "u": [1, 0]}
        )
        assert main(["run", spec]) == 0
        assert "WRDYN_LOG" in capsys.readouterr().err

    def test_python_m_invocation(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "wrdyn", "run", str(bad)],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == cli.EXIT_SPEC_ERROR
        assert "spec error" in proc.stderr
