"""Structural analysis tests: splits, classifiers, limit prediction, stationarity."""

from __future__ import annotations

import numpy as np
import pytest

from wrdyn import dynamics, matcore, structure
from wrdyn.errors import (
    DimensionMismatch,
    IndefiniteInput,
    InvalidDirection,
    NonFiniteInput,
    NotStrictlyPositive,
    WeightOutOfRange,
)

from wrdyn_helpers import canonical_block, canonical_instance, random_psd, random_unit

E0_2 = np.array([1.0, 0.0], dtype=np.complex128)
E0_3 = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
# Norm below 1, coupling under coupling_tol * max(1, |T|): decoupled, although
# the coupling exceeds coupling_tol * |T|.
SMALL_DECOUPLED = np.array([[0.01, 5e-12], [5e-12, 0.005]])


def _planted_4x4():
    frozen = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=np.complex128)
    R = np.zeros((4, 4), dtype=np.complex128)
    R[:2, :2] = frozen
    R[2:, 2:] = canonical_block()
    u = np.array([0.0, 0.0, 1.0, 0.0], dtype=np.complex128)
    return R, u, frozen


def _planted_5x5():
    frozen = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=np.complex128)
    R = np.zeros((5, 5), dtype=np.complex128)
    R[:2, :2] = frozen
    R[3:, 3:] = canonical_block()
    u = np.zeros(5, dtype=np.complex128)
    u[2] = u[3] = 1.0 / np.sqrt(2.0)
    return R, u, frozen


def test_split_eigenvector_seed():
    R = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
    sp = structure.maximal_reducing_in_uperp(R, E0_3)
    assert sp.seed_dim == 1 and sp.frozen_dim == 2
    assert np.allclose(sp.active_seed, [[1.0]])
    assert sorted(np.linalg.eigvalsh(sp.frozen).round(12)) == [2.0, 3.0]
    # columns orthogonal to the direction, invariance, completeness
    assert np.abs(sp.frozen_basis.conj().T @ E0_3).max() <= 1e-10
    resid = R @ sp.frozen_basis - sp.frozen_basis @ sp.frozen
    assert matcore.opnorm(resid) <= 1e-8 * matcore.opnorm(R)
    full = np.hstack([sp.frozen_basis, sp.seed_basis])
    assert np.allclose(full.conj().T @ full, np.eye(3), atol=1e-12)


def test_split_canonical_has_no_frozen_part():
    R, u = canonical_instance()
    sp = structure.maximal_reducing_in_uperp(R, u)
    assert sp.frozen_dim == 0 and sp.seed_dim == 3
    assert sp.frozen.shape == (0, 0)


def test_split_generic_direction_fills_space(rng):
    R = random_psd(4, rng, cond_floor=1e-3)
    u = random_unit(4, rng)
    sp = structure.maximal_reducing_in_uperp(R, u)
    assert sp.frozen_dim == 0


def test_classify_dim2_fullspace_cases():
    res = structure.classify_dim2_fullspace(np.diag([2.0, 1.0]), E0_2)
    assert res.kind == structure.KIND_COMMUTING_COMPRESSION
    assert np.allclose(res.predicted_limit, np.diag([0.0, 1.0]), atol=1e-14)

    res = structure.classify_dim2_fullspace(canonical_block(), E0_2)
    assert res.kind == structure.KIND_DIM2_COLLAPSE
    assert not res.predicted_limit.any()
    assert abs(res.certificate["commutator"] - 1.0) <= 1e-12
    assert abs(res.certificate["coupling"] - 1.0) <= 1e-12
    assert res.certificate["commutator"] == res.certificate["coupling"]

    res = structure.classify_dim2_fullspace(SMALL_DECOUPLED, E0_2)
    assert res.kind == structure.KIND_COMMUTING_COMPRESSION
    assert np.array_equal(res.predicted_limit.real, np.diag([0.0, 0.005]))

    v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    res = structure.classify_dim2_fullspace(3.0 * np.eye(2), v)
    expected = 3.0 * (np.eye(2) - np.outer(v, v.conj()))
    assert res.kind == structure.KIND_COMMUTING_COMPRESSION
    assert np.linalg.norm(res.predicted_limit - expected) <= 1e-12

    with pytest.raises(DimensionMismatch):
        structure.classify_dim2_fullspace(np.eye(3), E0_3)
    with pytest.raises(InvalidDirection):
        structure.classify_dim2_fullspace(np.eye(2), np.array([1.0, 1.0]))
    with pytest.raises(IndefiniteInput):
        structure.classify_dim2_fullspace(np.diag([1.0, -1.0]), E0_2)


def test_classify_active_dim2_decoupled_keeps_transverse_entry():
    res = structure.classify_active_dim2(np.diag([1.0, 0.7]), np.array([0.6, 0.0]))
    assert res.kind == structure.KIND_TRANSVERSE_PERSISTENCE
    assert np.array_equal(res.predicted_limit.real, np.diag([0.0, 0.7]))
    assert res.certificate["coupling"] == 0.0
    assert abs(res.certificate["tau"] - 0.36) <= 1e-14

    res = structure.classify_active_dim2(np.eye(2), np.array([0.6, 0.0]))
    assert res.kind == structure.KIND_TRANSVERSE_PERSISTENCE
    assert np.allclose(res.predicted_limit, np.diag([0.0, 1.0]), atol=1e-14)

    # the classifier and the run's certificate tracker agree: decoupled
    w = np.array([np.sqrt(0.5), 0.0])
    res = structure.classify_active_dim2(SMALL_DECOUPLED, w)
    assert res.kind == structure.KIND_TRANSVERSE_PERSISTENCE
    assert np.array_equal(res.predicted_limit.real, np.diag([0.0, 0.005]))
    trace = dynamics.iterate_weighted(SMALL_DECOUPLED, w)
    assert all("transverse_persistence" in r.residuals for r in trace.records)
    assert trace.run_residuals["transverse_persistence"] <= 1e-9


def test_classify_active_dim2_coupled_collapses():
    w = np.array([1.0, 0.0]) / np.sqrt(2.0)
    res = structure.classify_active_dim2(canonical_block(), w)
    assert res.kind == structure.KIND_ACTIVE_DIM2
    assert not res.predicted_limit.any()
    assert abs(res.certificate["coupling"] - 1.0) <= 1e-12
    assert abs(res.certificate["tau"] - 0.5) <= 1e-12
    assert abs(res.certificate["defect_diag"] - 1.0) <= 1e-12
    assert abs(res.certificate["transverse_diag"] - 2.0) <= 1e-12


def test_classify_active_dim2_complex_coupling_phase():
    T = np.array([[1.0, 1.0j], [-1.0j, 2.0]])
    res = structure.classify_active_dim2(T, np.array([0.5, 0.0]))
    assert res.kind == structure.KIND_ACTIVE_DIM2
    assert abs(res.certificate["coupling"] - 1.0) <= 1e-12
    assert abs(res.certificate["transverse_diag"] - 2.0) <= 1e-12


def test_classify_active_dim2_rejects_bad_inputs():
    with pytest.raises(WeightOutOfRange):
        structure.classify_active_dim2(np.eye(2), np.array([1.0, 0.0]))
    with pytest.raises(WeightOutOfRange):
        structure.classify_active_dim2(np.eye(2), np.zeros(2))
    with pytest.raises(NotStrictlyPositive):
        structure.classify_active_dim2(
            np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([0.5, 0.0])
        )
    with pytest.raises(DimensionMismatch):
        structure.classify_active_dim2(np.eye(3), np.array([0.5, 0.0, 0.0]))


def test_predict_limit_eigenvector_direction():
    res = structure.predict_limit(np.diag([1.0, 2.0, 3.0]), E0_3)
    assert res.kind == structure.KIND_COMMUTING_COMPRESSION
    assert np.linalg.norm(res.predicted_limit - np.diag([0.0, 2.0, 3.0])) <= 1e-12
    assert np.linalg.norm(res.numerical_limit - np.diag([0.0, 2.0, 3.0])) <= 1e-9


def test_predict_limit_canonical_collapses_to_zero():
    R, u = canonical_instance()
    res = structure.predict_limit(R, u)
    assert res.kind == structure.KIND_ACTIVE_DIM2
    assert not res.predicted_limit.any()
    assert matcore.opnorm(res.numerical_limit) <= 1e-8
    assert abs(res.certificate["tau"] - 0.5) <= 1e-12
    assert abs(res.certificate["coupling"] - 1.0) <= 1e-9


def test_predict_limit_planted_fullweight_collapse():
    R, u, frozen = _planted_4x4()
    res = structure.predict_limit(R, u)
    expected = np.zeros((4, 4), dtype=np.complex128)
    expected[:2, :2] = frozen
    assert res.kind == structure.KIND_DIM2_COLLAPSE
    assert np.linalg.norm(res.predicted_limit - expected) <= 1e-12
    assert matcore.opnorm(res.predicted_limit - res.numerical_limit) <= 1e-7


def test_predict_limit_planted_subunit_weight():
    R, u, frozen = _planted_5x5()
    res = structure.predict_limit(R, u)
    expected = np.zeros((5, 5), dtype=np.complex128)
    expected[:2, :2] = frozen
    assert res.kind == structure.KIND_ACTIVE_DIM2
    assert np.linalg.norm(res.predicted_limit - expected) <= 1e-12
    assert matcore.opnorm(res.predicted_limit - res.numerical_limit) <= 1e-7
    assert abs(res.certificate["tau"] - 0.5) <= 1e-12
    assert res.certificate["frozen_dim"] == 2.0
    # predicted limit annihilates the direction and stays PSD
    assert np.linalg.norm(res.predicted_limit @ u) <= 1e-12
    assert np.linalg.eigvalsh(res.predicted_limit).min() >= -1e-12


def test_predict_limit_higher_dim_reports_unknown(rng):
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    W = G @ G.conj().T + 1e-6 * np.eye(4)
    W /= matcore.opnorm(W)
    u = random_unit(4, rng)
    res = structure.predict_limit(W, u, max_iter=300)
    assert res.kind == structure.KIND_UNKNOWN
    assert res.predicted_limit is None
    assert res.numerical_limit is not None
    assert "limit_rank" in res.certificate and "limit_norm" in res.certificate
    assert res.certificate["active_dim"] >= 3.0


def test_is_stationary_supported_on_complement():
    rep = structure.is_stationary(np.diag([0.0, 1.0, 2.0]), E0_3)
    assert rep.passed
    assert rep.max_residual == 0.0


def test_is_stationary_rejects_identity():
    rep = structure.is_stationary(np.eye(2), np.array([0.8, 0.0]))
    assert not rep.passed
    assert abs(rep.residuals["fixed_point"] - 0.64) <= 1e-12
    assert abs(rep.residuals["root_defect"] - 1.0) <= 1e-12
    assert abs(rep.residuals["defect"] - 1.0) <= 1e-12
    assert abs(rep.residuals["range"] - 1.0) <= 1e-12


def test_is_stationary_zero_weight_is_vacuous():
    rep = structure.is_stationary(np.eye(3), np.zeros(3))
    assert rep.passed and rep.max_residual == 0.0


def test_converged_limits_are_stationary():
    R, u = canonical_instance()
    rep = structure.analyze_instance(R, u)
    assert rep.trace.converged
    assert rep.stationarity.passed
    # the limit annihilates the direction
    assert np.linalg.norm(rep.classification.numerical_limit @ u) <= 1e-7


def test_stationarity_residuals_move_together(rng):
    for _ in range(20):
        S = random_psd(3, rng)
        u_E = 0.9 * random_unit(3, rng)
        rep = structure.is_stationary(S, u_E)
        r = rep.residuals
        assert r["fixed_point"] <= r["root_defect"] * (1.0 + 1e-9) + 1e-15
        assert r["defect"] <= r["root_defect"] * (1.0 + 1e-9) + 1e-15
        assert r["defect"] >= r["root_defect"] ** 2 * (1.0 - 1e-9) - 1e-15
        assert abs(r["range"] - r["defect"]) <= 1e-12 * max(1.0, r["defect"])


def test_frozen_part_persists_along_the_run():
    R, u, _ = _planted_5x5()
    sp = structure.maximal_reducing_in_uperp(R, u)
    assert sp.frozen_dim == 2
    tr = dynamics.iterate(dynamics.WRConfig(R, u, max_iter=80, keep_iterates=True))
    first = matcore.compress(tr.iterates[0], sp.frozen_basis)
    scale = matcore.opnorm(R)
    for A in tr.iterates[1:]:
        drift = matcore.opnorm(matcore.compress(A, sp.frozen_basis) - first)
        assert drift <= 1e-9 * scale


def test_analyze_instance_shares_one_run():
    R, u = canonical_instance()
    rep = structure.analyze_instance(R, u)
    assert rep.classification.kind == structure.KIND_ACTIVE_DIM2
    assert rep.split.seed_dim == 3
    assert rep.trace.stabilized_at == 0
    assert rep.classification.certificate["converged"] == 1.0
    with pytest.raises(NonFiniteInput):
        structure.analyze_instance(np.where(R == 2.0, np.nan, R), u)
