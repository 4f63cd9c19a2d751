"""Engine tests: step operators, traces, stabilization detection."""

from __future__ import annotations

import numpy as np
import pytest

from wrdyn import dynamics, ensembles, identities, matcore
from wrdyn.errors import (
    DimensionMismatch,
    EmptySupport,
    InvalidDirection,
    NonFiniteInput,
    NumericalBreakdown,
    WeightTooLarge,
)

from wrdyn_helpers import canonical_block, canonical_instance, random_psd, random_unit

E1_2 = np.array([1.0, 0.0], dtype=np.complex128)


def test_wr_step_identity_gives_complement_projection(rng):
    u = random_unit(4, rng)
    out = dynamics.wr_step(np.eye(4), u)
    expected = np.eye(4) - np.outer(u, u.conj())
    assert np.linalg.norm(out - expected) <= 1e-14


def test_wr_step_commuting_annihilates_line():
    out = dynamics.wr_step(np.diag([2.0, 1.0]), E1_2)
    assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-15)


def test_weighted_step_canonical_frozen_value():
    w = np.array([1.0, 0.0]) / np.sqrt(2.0)
    out = dynamics.weighted_step(canonical_block(), w)
    assert np.linalg.norm(out - np.array([[0.6, 0.8], [0.8, 1.9]])) <= 1e-14
    assert abs(np.linalg.det(out).real - 0.5) <= 1e-14


def test_weighted_step_zero_direction_is_identity_map():
    T = canonical_block()
    out = dynamics.weighted_step(T, np.zeros(2))
    assert np.array_equal(out, T)


def test_weighted_step_rejects_overweight():
    with pytest.raises(WeightTooLarge):
        dynamics.weighted_step(np.eye(2), np.array([1.0, 0.5]))


def test_step_gap_values():
    assert dynamics.step_gap(np.eye(3), np.array([1, 0, 0])) == 1.0
    assert dynamics.step_gap(canonical_block(), E1_2) == 1.0
    assert dynamics.step_gap(np.diag([0.0, 1.0]), E1_2) == 0.0


def test_iterate_zero_matrix_converges_immediately():
    tr = dynamics.iterate(dynamics.WRConfig(np.zeros((2, 2)), E1_2))
    assert tr.converged and tr.converged_at == 0
    assert len(tr.records) == 2
    assert not tr.limit_estimate.any()


def test_iterate_commuting_pair_converges_in_one_step():
    tr = dynamics.iterate(dynamics.WRConfig(np.diag([2.0, 1.0]), E1_2))
    assert tr.converged and tr.converged_at == 1
    assert np.allclose(tr.limit_estimate, np.diag([0.0, 1.0]), atol=1e-14)
    # last two records witness the convergence criterion
    assert tr.records[-1].gap <= dynamics.CONV_TOL_DEFAULT


def test_iterate_direction_in_kernel_is_fixed_point():
    tr = dynamics.iterate(
        dynamics.WRConfig(np.diag([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 0.0]))
    )
    assert tr.converged and tr.converged_at == 0
    assert np.array_equal(tr.limit_estimate, np.diag([0.0, 1.0, 2.0]).astype(complex))


def test_iterate_records_monotone_quantities(rng):
    R = random_psd(5, rng)
    u = random_unit(5, rng)
    tr = dynamics.iterate(
        dynamics.WRConfig(R, u, max_iter=40, keep_iterates=True)
    )
    traces = [rec.trace for rec in tr.records]
    ranks = [rec.rank for rec in tr.records]
    assert all(t0 >= t1 - 1e-12 for t0, t1 in zip(traces, traces[1:]))
    assert all(r0 >= r1 for r0, r1 in zip(ranks, ranks[1:]))
    # the decrement is the gap, exactly rank one
    for rec, nxt, A, B in zip(tr.records, tr.records[1:], tr.iterates, tr.iterates[1:]):
        assert abs((rec.trace - nxt.trace) - rec.gap) <= 1e-12 * max(1.0, rec.trace)
        assert matcore.opnorm(B - A) <= rec.gap + 1e-12
        assert matcore.loewner_leq(B, A, tol=1e-10)
    assert all(rec.gap >= -1e-12 for rec in tr.records)


def test_stabilization_on_canonical_instance():
    R, u = canonical_instance()
    tr = dynamics.iterate(dynamics.WRConfig(R, u, max_iter=30))
    assert tr.stabilized_at == 0
    assert tr.active is not None
    assert abs(tr.active.tau - 0.5) <= 1e-12
    span = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    assert matcore.subspace_sine(tr.active.basis, span) <= 1e-6
    # block is the canonical one up to the basis rotation
    assert abs(tr.active.block.trace().real - 3.0) <= 1e-12
    assert abs(np.linalg.det(tr.active.block).real - 1.0) <= 1e-12


def test_stabilization_residuals_certify_canonical_run():
    R, u = canonical_instance()
    tr = dynamics.iterate(dynamics.WRConfig(R, u, max_iter=60))
    assert tr.run_residuals["a_recursion"] <= 1e-12
    assert tr.run_residuals["B_decrement"] <= 1e-12
    assert tr.run_residuals["summability"] <= 1e-10
    assert tr.run_residuals["det_decay"] <= 1e-8
    assert tr.run_residuals["inv_update"] <= 1e-8
    assert tr.run_residuals["beta_bound"] == 0.0
    assert tr.run_residuals["s_bound"] <= 1e-9
    assert tr.run_residuals["lambda_min_bound"] <= 1e-9
    assert tr.run_residuals["offdiag_cs"] == 0.0
    # conditioning guard kicks in once the block degenerates
    assert tr.inverse_checks_stopped_at is not None
    assert 15 <= tr.inverse_checks_stopped_at <= 40


W_HALF = np.array([np.sqrt(0.5), 0.0])


@pytest.mark.parametrize(
    "run, min_records, offline",
    [
        # the canonical block at tau = 0.5
        pytest.param(
            lambda: dynamics.iterate(dynamics.WRConfig(*canonical_instance(), max_iter=1000)),
            100,
            None,
            id="canonical",
        ),
        pytest.param(
            lambda: dynamics.iterate(
                dynamics.WRConfig(*ensembles.sweep_instance("wishart", 4, 0.5, 0), max_iter=1000)
            ),
            100,
            None,
            id="wishart-4",
        ),
        pytest.param(
            lambda: dynamics.iterate_weighted(
                ensembles.coupled_block(0.5, 0.5, 2.0), W_HALF, conv_tol=1e-15
            ),
            100,
            "summability",
            id="coupled-0.5-0.5-2",
        ),
        pytest.param(
            lambda: dynamics.iterate_weighted(
                ensembles.coupled_block(2.0, 0.3, 1.0), W_HALF, conv_tol=1e-15
            ),
            100,
            "summability",
            id="coupled-2-0.3-1",
        ),
        pytest.param(
            lambda: dynamics.iterate_weighted(
                ensembles.decoupled_block(0.7, 1.3), W_HALF, keep_iterates=True
            ),
            30,
            "transverse_persistence",
            id="decoupled-0.7-1.3",
        ),
    ],
)
def test_tracker_residuals_equal_the_offline_checks(run, min_records, offline):
    # The tracker folds the identities over the run: applied to the stored
    # block coordinates (or kept blocks), the offline checkers give each
    # record's residual. Summability needs a converged tail (final |y| <=
    # 1e-6), hence conv_tol 1e-15; transverse persistence a decoupled start.
    tr = run()
    active = tr.active
    norm_t0 = matcore.opnorm(active.block)
    recs = tr.records[active.start :]
    assert len(recs) > min_records
    assert "a_recursion" not in recs[0].residuals
    assert recs[0].residuals["offdiag_cs"] == identities.check_offdiag_collapse(
        [recs[0].block_coords], norm_t0
    )
    for prev, rec in zip(recs, recs[1:]):
        p, c = prev.block_coords, rec.block_coords
        res = rec.residuals
        assert res["a_recursion"] == identities.check_a_recursion(p, c, active.tau)
        assert res["B_decrement"] == identities.check_B_decrement(p, c, active.tau)
        assert res["offdiag_cs"] == identities.check_offdiag_collapse([c], norm_t0)
    if offline == "summability":
        assert tr.converged
        coords = [r.block_coords for r in recs]
        assert recs[-1].residuals["summability"] == identities.check_summability(
            coords, active.tau
        )
    if offline == "transverse_persistence":
        blocks = [matcore.compress(A, active.basis) for A in tr.iterates[active.start :]]
        value = identities.check_transverse_persistence(
            blocks, active.defect_direction, active.tau
        )
        assert abs(tr.run_residuals["transverse_persistence"] - value) <= 1e-15


def test_tracker_splits_each_iterate_once(monkeypatch):
    # The tracker's start coordinates are those of its first iterate: one
    # coordinate split per certified record, none extra per run.
    calls = []
    split = identities.block_coordinates

    def counted(*args, **kwargs):
        calls.append(None)
        return split(*args, **kwargs)

    monkeypatch.setattr(identities, "block_coordinates", counted)
    R, u = canonical_instance()
    tr = dynamics.iterate(dynamics.WRConfig(R, u, max_iter=60))
    assert len(calls) == sum(rec.block_coords is not None for rec in tr.records) == 61


def test_block_sequence_matches_frozen_second_step():
    R, u = canonical_instance()
    tr = dynamics.iterate(dynamics.WRConfig(R, u, max_iter=5))
    rec1 = tr.records[1]
    assert abs(rec1.block_det - 0.5) <= 1e-13
    c1 = rec1.block_coords
    assert abs(c1.transverse_trace - 1.9) <= 1e-12
    assert abs(c1.coupling_norm / c1.transverse_trace - 8.0 / 19.0) <= 1e-12


def test_iterate_weighted_embeds_block():
    w = np.array([1.0, 0.0]) / np.sqrt(2.0)
    tr = dynamics.iterate_weighted(canonical_block(), w, max_iter=10)
    assert tr.stabilized_at == 0
    assert abs(tr.active.tau - 0.5) <= 1e-12
    assert abs(tr.records[1].block_coords.transverse_trace - 1.9) <= 1e-12


def test_iterate_weighted_decoupled_diagonal_is_bit_exact():
    T = np.diag([1.0, 0.7])
    w = np.array([np.sqrt(0.5), 0.0])
    tr = dynamics.iterate_weighted(T, w, max_iter=50, keep_iterates=True)
    for A in tr.iterates:
        assert A[2, 2] == 0.7  # transverse entry never touched
        off = A.copy()
        np.fill_diagonal(off, 0.0)
        assert not off.any()  # exactly diagonal forever
    assert tr.run_residuals.get("transverse_persistence", 0.0) <= 1e-12


def test_max_iter_flags_partial_trace():
    R, u = canonical_instance()
    tr = dynamics.iterate(dynamics.WRConfig(R, u, max_iter=1))
    assert tr.max_iter_exceeded and not tr.converged
    assert [rec.n for rec in tr.records] == [0, 1]
    assert tr.limit_estimate is not None


def test_extract_active_block_canonical_and_empty():
    R, u = canonical_instance()
    ab = dynamics.extract_active_block(R, u)
    assert abs(ab.tau - 0.5) <= 1e-12
    assert ab.basis.shape == (3, 2)
    assert abs(np.linalg.norm(ab.weight_vector) ** 2 - 0.5) <= 1e-12
    with pytest.raises(EmptySupport):
        dynamics.extract_active_block(np.zeros((2, 2)), E1_2)


def test_config_validation_errors():
    with pytest.raises(InvalidDirection):
        dynamics.WRConfig(np.eye(2), np.array([1.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        dynamics.WRConfig(np.eye(2), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        dynamics.WRConfig(np.eye(2), E1_2, conv_tol=0.0)
    with pytest.raises(NonFiniteInput):
        dynamics.WRConfig(np.diag([1.0, np.inf]), E1_2)


def test_linalg_failure_is_a_breakdown_with_partial_trace(monkeypatch):
    R, u = canonical_instance()
    eigh = matcore.eigh
    calls = []

    def failing_eigh(H):
        calls.append(None)
        if len(calls) > 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(H)

    monkeypatch.setattr(matcore, "eigh", failing_eigh)
    with pytest.raises(NumericalBreakdown) as info:
        dynamics.iterate(dynamics.WRConfig(R, u))
    assert [rec.n for rec in info.value.trace.records] == [0, 1]


def test_runs_are_deterministic(rng):
    R = random_psd(4, rng)
    u = random_unit(4, rng)
    t1 = dynamics.iterate(dynamics.WRConfig(R, u, max_iter=50))
    t2 = dynamics.iterate(dynamics.WRConfig(R, u, max_iter=50))
    assert [r.gap for r in t1.records] == [r.gap for r in t2.records]
    assert [r.det for r in t1.records] == [r.det for r in t2.records]
    assert np.array_equal(t1.limit_estimate, t2.limit_estimate)


def test_high_dimension_drops_eigenvalue_lists():
    dim = dynamics.EIGENVALUE_STORE_LIMIT + 1
    u = np.zeros(dim)
    u[0] = 1.0
    tr = dynamics.iterate(dynamics.WRConfig(np.eye(dim), u, max_iter=3))
    assert tr.records[0].eigenvalues is None
    assert tr.records[0].rank == dim
