"""Tests for the scalar shadow recursions and the matrix cross-validator."""

import math

import numpy as np
import pytest

from wrdyn import dynamics, oracle
from wrdyn.errors import IncompatibleTraces, InvalidStart, NumericalBreakdown

# Reference starting data: coupling ratio 1/2, root-determinant ratio 1/2,
# transverse diagonal 2 — the block [[1, 1], [1, 2]] seen through the
# balanced weight.
REF_START = (0.5, 0.5, 2.0)
REF_BLOCK = np.array([[1.0, 1.0], [1.0, 2.0]])
REF_WEIGHT = np.array([1.0, 0.0]) / math.sqrt(2.0)


def _reference_matrix_trace(max_iter=60):
    return dynamics.iterate_weighted(REF_BLOCK, REF_WEIGHT, max_iter=max_iter)


class TestHalfWeightRecursion:
    def test_first_step_exact(self):
        tr = oracle.half_weight_recursion(*REF_START, steps=1)
        assert tr.coupling_ratio[1] == pytest.approx(8.0 / 19.0, abs=1e-15)
        assert tr.root_det_ratio[1] == pytest.approx(5.0 * math.sqrt(2.0) / 19.0, abs=1e-15)
        assert tr.transverse_diag[1] == pytest.approx(1.9, abs=1e-15)

    def test_trace_shape_and_params(self):
        tr = oracle.half_weight_recursion(*REF_START, steps=7)
        assert tr.kind == oracle.KIND_HALF_WEIGHT
        assert tr.steps == 7
        assert all(len(tr.sequences[k]) == 8 for k in tr.sequences)
        assert tr.params == {"tau": 0.5, "rho": 0.5}
        assert tr.coupling_ratio[0] == 0.5
        assert tr.transverse_diag[0] == 2.0

    def test_long_run_limit_and_late_ratios(self):
        tr = oracle.half_weight_recursion(*REF_START, steps=300)
        y, z, d = tr.coupling_ratio, tr.root_det_ratio, tr.transverse_diag
        # The coupling ratio settles at a strictly positive limit.
        assert y[300] == pytest.approx(0.23541890297886842, abs=1e-9)
        assert abs(y[300] - y[150]) <= 1e-12
        # Late one-step ratios match the closed forms evaluated at the limit.
        y_inf_sq = y[300] ** 2
        assert z[120] / z[119] == pytest.approx(
            math.sqrt(2.0) * (y_inf_sq + 1.0) / (y_inf_sq + 2.0), abs=1e-9
        )
        assert d[120] / d[119] == pytest.approx(
            (y_inf_sq + 2.0) / (2.0 * (y_inf_sq + 1.0)), abs=1e-9
        )

    def test_monotone_decay(self):
        tr = oracle.half_weight_recursion(*REF_START, steps=200)
        y, z, d = tr.coupling_ratio, tr.root_det_ratio, tr.transverse_diag
        assert all(z[n + 1] < z[n] for n in range(200))
        assert all(d[n + 1] < d[n] for n in range(200))
        assert all(y[n + 1] <= y[n] for n in range(200))
        # Strict decrease of the coupling ratio holds as long as the
        # root-determinant ratio is resolvable in double precision.
        assert all(y[n + 1] < y[n] for n in range(200) if z[n] > 1e-8)
        # The root-determinant ratio is geometrically summable.
        assert sum(z[100:]) <= 1e-12

    def test_contraction_bound_on_reference_run(self):
        tr = oracle.half_weight_recursion(*REF_START, steps=200)
        y, z = tr.coupling_ratio, tr.root_det_ratio
        bound = 5.0 * math.sqrt(2.0) / 9.0
        ratios = [
            z[n + 1] / z[n]
            for n in range(200)
            if 0.0 < y[n] <= 0.5 and 0.0 < z[n] <= 0.5
        ]
        assert ratios, "reference run should start inside the contraction region"
        assert max(ratios) <= bound + 1e-12
        # The very first step realises the largest ratio: 10 sqrt(2) / 19.
        assert max(ratios) == pytest.approx(10.0 * math.sqrt(2.0) / 19.0, abs=1e-12)

    def test_zero_root_det_start_is_invariant(self):
        tr = oracle.half_weight_recursion(0.5, 0.0, 2.0, steps=100)
        assert all(v == 0.0 for v in tr.root_det_ratio)
        assert all(v == 0.5 for v in tr.coupling_ratio)
        # The transverse diagonal still decays: d' = d (y^2+2) / (2 (y^2+1)).
        assert tr.transverse_diag[1] == pytest.approx(1.8, abs=1e-15)
        ratio = (0.5**2 + 2.0) / (2.0 * (0.5**2 + 1.0))
        for n in range(30):
            assert tr.transverse_diag[n + 1] / tr.transverse_diag[n] == pytest.approx(
                ratio, abs=1e-14
            )

    def test_zero_coupling_start_freezes_transverse(self):
        tr = oracle.half_weight_recursion(0.0, 0.4, 1.5, steps=100)
        assert all(v == 0.0 for v in tr.coupling_ratio)
        assert max(abs(v - 1.5) for v in tr.transverse_diag) <= 1e-13
        # Root-determinant ratio contracts by exactly 1/sqrt(2) each step.
        for n in range(30):
            assert tr.root_det_ratio[n + 1] / tr.root_det_ratio[n] == pytest.approx(
                1.0 / math.sqrt(2.0), abs=1e-14
            )

    def test_invalid_starts(self):
        with pytest.raises(InvalidStart):
            oracle.half_weight_recursion(-0.1, 0.5, 2.0, 5)
        with pytest.raises(InvalidStart):
            oracle.half_weight_recursion(0.5, -1e-12, 2.0, 5)
        with pytest.raises(InvalidStart):
            oracle.half_weight_recursion(0.5, 0.5, 0.0, 5)
        with pytest.raises(InvalidStart):
            oracle.half_weight_recursion(0.5, 0.5, -2.0, 5)
        with pytest.raises(InvalidStart):
            oracle.half_weight_recursion(0.5, 0.5, 2.0, -1)
        with pytest.raises(InvalidStart):
            oracle.half_weight_recursion(math.nan, 0.5, 2.0, 5)

    def test_overflow_raises_breakdown(self):
        with pytest.raises(NumericalBreakdown):
            oracle.half_weight_recursion(1e200, 0.5, 2.0, 1)


class TestGeneralWeightRecursion:
    def test_matches_half_weight_at_balanced_point(self):
        hw = oracle.half_weight_recursion(*REF_START, steps=50)
        gw = oracle.general_weight_recursion(*REF_START, rho=0.5, steps=50)
        for name in (oracle.SEQ_COUPLING, oracle.SEQ_ROOT_DET, oracle.SEQ_TRANSVERSE):
            a = np.asarray(hw.sequences[name])
            b = np.asarray(gw.sequences[name])
            assert np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300)) <= 1e-13

    def test_params_record_weight(self):
        gw = oracle.general_weight_recursion(0.5, 0.5, 2.0, rho=0.7, steps=3)
        assert gw.kind == oracle.KIND_GENERAL_WEIGHT
        assert gw.params["rho"] == 0.7
        assert gw.params["tau"] == pytest.approx(0.3, abs=1e-15)

    def test_zero_coupling_start_is_exact_fixed_transverse(self):
        tr = oracle.general_weight_recursion(0.0, 0.4, 1.5, rho=0.3, steps=100)
        assert all(v == 1.5 for v in tr.transverse_diag)
        assert all(v == 0.0 for v in tr.coupling_ratio)
        for n in range(101):
            assert tr.root_det_ratio[n] == pytest.approx(0.3 ** (n / 2.0) * 0.4, abs=1e-15)

    def test_zero_root_det_start_matches_half_weight_decay(self):
        hw = oracle.half_weight_recursion(0.5, 0.0, 2.0, steps=100)
        gw = oracle.general_weight_recursion(0.5, 0.0, 2.0, rho=0.5, steps=100)
        assert gw.transverse_diag[1] == pytest.approx(1.8, abs=1e-15)
        diffs = np.abs(np.asarray(hw.transverse_diag) - np.asarray(gw.transverse_diag))
        assert np.max(diffs) <= 1e-13

    def test_update_forms_agree(self):
        # The survival-factor update written as a defect from 1 equals the
        # single-fraction product form.
        for xi in (0.05, 0.3, 1.0, 2.5):
            for zeta in (0.0, 0.1, 0.7, 1.5):
                for rho in (0.1, 0.5, 0.9):
                    tau = 1.0 - rho
                    shifted = zeta + 1.0
                    denom = rho * xi * xi + shifted * shifted
                    defect_form = xi * (1.0 - tau * zeta * shifted / denom)
                    product_form = (
                        xi
                        * (rho * xi * xi + rho * zeta * zeta + rho * zeta + zeta + 1.0)
                        / denom
                    )
                    assert defect_form == pytest.approx(product_form, abs=1e-14)

    def test_invalid_weights_and_starts(self):
        for rho in (0.0, 1.0, -0.2, 1.3, math.nan):
            with pytest.raises(InvalidStart):
                oracle.general_weight_recursion(0.5, 0.5, 2.0, rho=rho, steps=3)
        with pytest.raises(InvalidStart):
            oracle.general_weight_recursion(-0.5, 0.5, 2.0, rho=0.5, steps=3)
        with pytest.raises(InvalidStart):
            oracle.general_weight_recursion(0.5, 0.5, 2.0, rho=0.5, steps=-2)


class TestCrossValidate:
    def test_reference_run_agrees_with_both_engines(self):
        trace = _reference_matrix_trace()
        hw = oracle.half_weight_recursion(*REF_START, steps=50)
        gw = oracle.general_weight_recursion(*REF_START, rho=0.5, steps=50)
        for scalar in (hw, gw):
            report = oracle.cross_validate(trace, scalar, tol=1e-10)
            assert report.passed
            assert bool(report)
            assert report.first_failure is None
            assert report.steps_compared == 51
            # The determinant trust window covers the first ~22 steps.
            assert 20 <= report.det_steps_compared <= 24
            assert all(err <= 1e-10 for err in report.max_errors.values())
            # Coupling and transverse comparisons really span all 51 steps:
            # their observed errors are nonzero.
            assert report.max_errors[oracle.SEQ_COUPLING] > 0.0
            assert report.max_errors[oracle.SEQ_TRANSVERSE] > 0.0

    def test_short_scalar_limits_comparison(self):
        trace = _reference_matrix_trace()
        hw = oracle.half_weight_recursion(*REF_START, steps=10)
        report = oracle.cross_validate(trace, hw, tol=1e-10)
        assert report.passed
        assert report.steps_compared == 11
        assert report.det_steps_compared == 11

    def test_detects_perturbed_start(self):
        trace = _reference_matrix_trace()
        cases = [
            ((0.5 + 1e-6, 0.5, 2.0), oracle.SEQ_COUPLING),
            ((0.5, 0.5 + 1e-6, 2.0), oracle.SEQ_ROOT_DET),
            ((0.5, 0.5, 2.0 + 1e-6), oracle.SEQ_TRANSVERSE),
        ]
        for start, quantity in cases:
            bad = oracle.half_weight_recursion(*start, steps=50)
            report = oracle.cross_validate(trace, bad, tol=1e-10)
            assert not report.passed
            assert not bool(report)
            assert report.first_failure == (0, quantity)
            assert report.max_errors[quantity] > 1e-10

    def test_requires_stabilized_two_dim_block(self):
        # No stabilized block: a full-rank start whose range holds u, cut
        # before its first step.
        short = dynamics.iterate(
            dynamics.WRConfig(REF_BLOCK, np.array([1.0, 0.0]), max_iter=0)
        )
        assert short.active is None
        hw = oracle.half_weight_recursion(*REF_START, steps=5)
        with pytest.raises(IncompatibleTraces):
            oracle.cross_validate(short, hw)
        # Three-dimensional active block.
        block3 = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]])
        w3 = np.array([0.5, 0.3, 0.2])
        trace3 = dynamics.iterate_weighted(block3, w3, max_iter=40)
        assert trace3.active is not None
        with pytest.raises(IncompatibleTraces):
            oracle.cross_validate(trace3, hw)

    def test_rejects_weight_mismatch(self):
        trace = _reference_matrix_trace()
        gw = oracle.general_weight_recursion(*REF_START, rho=0.7, steps=20)
        with pytest.raises(IncompatibleTraces):
            oracle.cross_validate(trace, gw)
        unlabeled = oracle.ScalarTrace(kind=oracle.KIND_HALF_WEIGHT, sequences={}, params={})
        with pytest.raises(IncompatibleTraces):
            oracle.cross_validate(trace, unlabeled)

    def test_rejects_nonpositive_tolerance(self):
        trace = _reference_matrix_trace()
        hw = oracle.half_weight_recursion(*REF_START, steps=5)
        with pytest.raises(ValueError):
            oracle.cross_validate(trace, hw, tol=0.0)

    def test_rank_one_block_matches_scalar_shadow_directly(self):
        # A singular 2x2 block has one-dimensional support, so the
        # stabilized active block is not two-dimensional and the
        # cross-validator refuses it ...
        block = np.array([[0.25, 0.5], [0.5, 1.0]])
        w = np.array([1.0, 0.0]) / math.sqrt(2.0)
        trace = dynamics.iterate_weighted(block, w, max_iter=40, keep_iterates=True)
        assert trace.active is not None
        assert trace.active.basis.shape[1] == 1
        scalar = oracle.half_weight_recursion(0.5, 0.0, 1.0, steps=30)
        with pytest.raises(IncompatibleTraces):
            oracle.cross_validate(trace, scalar)
        # ... but the zero-root-determinant scalar shadow still tracks the
        # matrix entries: the iterates live on a fixed ray, the coupling
        # ratio stays at its starting value and the transverse entry decays
        # exactly as the scalar transverse diagonal.
        for n in range(31):
            T = trace.iterates[n][1:, 1:]
            assert abs(T[1, 1] - scalar.transverse_diag[n]) <= 1e-12
            assert abs(abs(T[0, 1]) / T[1, 1] - 0.5) <= 1e-12
            assert abs(np.linalg.det(T)) <= 1e-14
