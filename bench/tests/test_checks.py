"""Each benchmark check passes on real program output and fires on corrupted output.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json

import numpy as np
import pytest

import checks
from wrdyn import cli, dynamics, ensembles, oracle

# [[1, 1], [1, 2]] = coupled_block(xi=0.5, zeta=0.5, d=2)
CANONICAL = (0.5, 0.5, 2.0)


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def canonical_run():
    T = ensembles.coupled_block(*CANONICAL)
    return dynamics.iterate_weighted(T, np.array([np.sqrt(0.5), 0.0]), compute_residuals=False)


def test_canonical_block_is_the_readme_block():
    assert np.array_equal(ensembles.coupled_block(*CANONICAL), [[1.0, 1.0], [1.0, 2.0]])


def test_trace_identity_fires_on_one_corrupted_gap(canonical_run):
    traces = [r.trace for r in canonical_run.records]
    gaps = [r.gap for r in canonical_run.records]
    v = checks.Verdict()
    checks.check_trace_identity(v, "canonical", traces, gaps)
    assert v.passed, v.failures
    gaps[100] *= 1.0 + 1e-9
    v = checks.Verdict()
    checks.check_trace_identity(v, "canonical", traces, gaps)
    assert not v.passed


def test_lambda_max_route_fires_on_the_wrong_weight(canonical_run):
    v = checks.Verdict()
    checks.check_coupled_run(v, "canonical", oracle, *CANONICAL, 0.5, canonical_run)
    assert v.passed, v.failures
    assert v.worst["lambda_max_vs_scalar_route"] < checks.LAMBDA_MAX_ROUTE_TOL / 10
    wrong = dynamics.iterate_weighted(
        ensembles.coupled_block(*CANONICAL), np.array([np.sqrt(0.45), 0.0]), compute_residuals=False
    )
    v = checks.Verdict()
    checks.check_coupled_run(v, "canonical", oracle, *CANONICAL, 0.5, wrong)
    assert not v.passed
    assert v.worst["lambda_max_vs_scalar_route"] > 10.0


def test_coupled_check_fires_on_an_unconverged_run():
    short = dynamics.iterate_weighted(
        ensembles.coupled_block(*CANONICAL), np.array([np.sqrt(0.5), 0.0]),
        max_iter=200, compute_residuals=False,
    )
    v = checks.Verdict()
    checks.check_coupled_run(v, "short", oracle, *CANONICAL, 0.5, short)
    assert any("did not converge" in f for f in v.failures)
    assert any("coupled_final_lambda_max" in f for f in v.failures)


def test_decoupled_check_fires_on_a_moved_transverse_entry_and_a_wrong_limit():
    d0 = 0.75
    run = dynamics.iterate_weighted(
        np.diag([1.3, d0]).astype(np.complex128), np.sqrt(0.5) * np.array([1.0, 0.0]),
        keep_iterates=True, compute_residuals=False,
    )
    v = checks.Verdict()
    checks.check_decoupled_run(v, "decoupled", d0, run)
    assert v.passed, v.failures

    run.iterates[5] = run.iterates[5].copy()
    run.iterates[5][2, 2] = np.nextafter(d0, 1.0)
    v = checks.Verdict()
    checks.check_decoupled_run(v, "decoupled", d0, run)
    assert any("transverse entry changed at step 5" in f for f in v.failures)

    v = checks.Verdict()
    checks.check_decoupled_run(v, "decoupled", d0 + 1e-8, run)
    assert any("decoupled_limit_error" in f for f in v.failures)


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    spec = tmp / "sweep.json"
    spec.write_text(json.dumps({"dims": [3, 4], "seeds": [0, 1], "max_iter": 60}))
    assert _cli(["sweep", str(spec), "--out", str(tmp / "out"), "--workers", "1"]) == 0
    with open(tmp / "out" / "sweep.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _sweep_verdict(rows, grid=((0, 3), (0, 4)), breakdowns=0):
    v = checks.Verdict()
    checks.check_sweep_rows(
        v, rows, grid, lambda s, d: ensembles.sweep_instance("wishart", d, 0.5, s), breakdowns
    )
    return v


def test_sweep_checks_pass_on_real_rows(sweep_rows):
    v = _sweep_verdict(sweep_rows)
    assert v.passed, v.failures
    assert v.worst["tau_vs_closed_form"] < 1e-13


def test_sweep_check_fires_on_a_tau_off_by_1e_6(sweep_rows):
    rows = [dict(r) for r in sweep_rows]
    rows[1]["tau"] = repr(float(rows[1]["tau"]) + 1e-6)
    assert any("tau_vs_closed_form" in f for f in _sweep_verdict(rows).failures)


@pytest.mark.parametrize(
    "corrupt, expect",
    [
        (lambda rows: rows[:1], "grid points"),
        (lambda rows: rows + rows[:1], "grid points"),
        (lambda rows: [dict(rows[0], active_dim="3"), rows[1]], "active_dim"),
        (lambda rows: [dict(rows[0], limit_rank="-1"), rows[1]], "breakdown row"),
        (lambda rows: [dict(rows[0], max_residual="2e-07"), rows[1]], "sweep_max_residual"),
    ],
)
def test_sweep_checks_fire_on_corrupted_rows(sweep_rows, corrupt, expect):
    v = _sweep_verdict(corrupt([dict(r) for r in sweep_rows]))
    assert any(expect in f for f in v.failures), v.failures


def test_sweep_check_fires_on_reported_breakdowns(sweep_rows):
    assert not _sweep_verdict(sweep_rows, breakdowns=1).passed


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    inst = ensembles.planted_split_instance(np.random.default_rng(3), 2, ensembles.KIND_COLLAPSE)
    outputs = {}
    for fmt in ("json", "csv"):
        spec = tmp / f"{fmt}.json"
        report, trace = tmp / f"{fmt}-report.json", tmp / f"{fmt}-trace.{fmt}"
        spec.write_text(json.dumps({
            "matrix": cli.matrix_to_json(inst.matrix), "u": cli.vector_to_json(inst.direction),
            "outputs": {"report_path": str(report), "trace_path": str(trace), "format": fmt},
        }))
        assert _cli(["run", str(spec)]) == 0
        outputs[fmt] = (json.loads(report.read_text()), str(trace))
    return inst, outputs


def test_report_check_passes_and_trace_files_satisfy_the_identity(planted_run):
    inst, outputs = planted_run
    for fmt, (report, trace_path) in outputs.items():
        v = checks.Verdict()
        checks.check_report(v, fmt, report, inst.expected_kind, inst.expected_limit, inst.matrix)
        traces, gaps = checks.trace_columns(trace_path, fmt)
        assert len(traces) == report["steps"] + 1
        checks.check_trace_identity(v, fmt, traces, gaps)
        assert v.passed, v.failures


def test_report_check_fires_on_a_limit_perturbed_by_1e_4(planted_run):
    inst, outputs = planted_run
    report = json.loads(json.dumps(outputs["json"][0]))
    report["limit_estimate"][0][0][0] += 1e-4
    v = checks.Verdict()
    checks.check_report(
        v, "perturbed", report, inst.expected_kind, inst.expected_limit, inst.matrix
    )
    assert any("planted_limit_error" in f for f in v.failures)


def test_report_check_fires_on_the_wrong_kind(planted_run):
    inst, outputs = planted_run
    v = checks.Verdict()
    checks.check_report(
        v, "kind", outputs["json"][0], "ActiveDim2", inst.expected_limit, inst.matrix
    )
    assert any("kind" in f for f in v.failures)


def test_tau_closed_form_matches_the_engine_on_a_wishart_start():
    R, u = ensembles.sweep_instance("wishart", 4, 0.5, 11)
    cfg = dynamics.WRConfig(matrix=R, direction=u, max_iter=5, compute_residuals=False)
    trace = dynamics.iterate(cfg)
    assert abs(trace.active.tau - checks.tau_closed_form(R, u)) < 1e-13
