"""Identity-checker tests against hand-computed frozen values.

The canonical block T0 = [[1,1],[1,2]] with defect direction e1 and weight 1/2
has closed-form data:

    T0^{1/2} = [[2,1],[1,3]]/sqrt(5)        (squares back exactly)
    T1       = [[0.6,0.8],[0.8,1.9]]        (det 0.5 = half of det T0)
    T0^{-1}  = [[2,-1],[-1,1]]              beta_0 = 2, s_0 = 3
    T1^{-1}  = [[3.8,-1.6],[-1.6,1.2]]      beta_1 = 3.8, s_1 = 5
    y_0      = (0,1)/sqrt(5)
"""

from __future__ import annotations

import numpy as np
import pytest

from wrdyn import identities, matcore
from wrdyn.errors import (
    NonHermitianInput,
    NotConverged,
    NotDecoupled,
    NotStrictlyPositive,
    WeightOutOfRange,
)

from wrdyn_helpers import canonical_block

E1 = np.array([1.0, 0.0], dtype=np.complex128)
TAU = 0.5


def _canonical_step(T: np.ndarray) -> np.ndarray:
    # independent route: closed-form 2x2 square root, rank-one subtraction
    v = matcore.sqrt2x2(T) @ E1
    return T - TAU * np.outer(v, v.conj())


def test_block_coordinates_trivial_cases():
    c = identities.block_coordinates(np.eye(2), E1)
    assert c.defect_diag == 1.0
    assert np.linalg.norm(c.coupling) == 0.0
    assert np.linalg.norm(c.root_coupling) == 0.0
    assert np.allclose(c.transverse, np.diag([0.0, 1.0]))

    proj = np.outer(E1, E1.conj())
    c = identities.block_coordinates(proj, E1)
    assert c.defect_diag == 1.0
    assert np.linalg.norm(c.coupling) == 0.0
    assert matcore.opnorm(c.transverse) <= 1e-15
    assert np.linalg.norm(c.root_coupling) <= 1e-15


def test_block_coordinates_canonical_values():
    c = identities.block_coordinates(canonical_block(), E1)
    assert abs(c.defect_diag - 1.0) <= 1e-15
    assert abs(c.coupling_norm - 1.0) <= 1e-15
    assert abs(c.transverse_trace - 2.0) <= 1e-15
    assert abs(np.linalg.norm(c.root_coupling) - 1.0 / np.sqrt(5.0)) <= 1e-14


def test_reassembly_reproduces_block(rng):
    from wrdyn_helpers import random_psd, random_unit

    for dim in (2, 4, 6):
        T = random_psd(dim, rng)
        e = random_unit(dim, rng)
        c = identities.block_coordinates(T, e)
        assert np.linalg.norm(identities.reassemble(c, e) - T) <= 1e-13


def test_a_recursion_on_canonical_step():
    T0 = canonical_block()
    T1 = _canonical_step(T0)
    assert np.linalg.norm(T1 - np.array([[0.6, 0.8], [0.8, 1.9]])) <= 1e-14
    c0 = identities.block_coordinates(T0, E1)
    c1 = identities.block_coordinates(T1, E1)
    assert identities.check_a_recursion(c0, c1, TAU) <= 1e-13
    # 0.6 = 0.5 * 1 + 0.5 * (1/5)
    assert abs(c1.defect_diag - 0.6) <= 1e-14


def test_B_decrement_on_canonical_step():
    T0 = canonical_block()
    c0 = identities.block_coordinates(T0, E1)
    c1 = identities.block_coordinates(_canonical_step(T0), E1)
    assert identities.check_B_decrement(c0, c1, TAU) <= 1e-13
    assert abs(c1.transverse_trace - 1.9) <= 1e-14


def test_det_decay_exact_halving():
    assert identities.check_det_decay(1.0, 0.5, TAU) == 0.0
    assert identities.check_det_decay(1.0, 0.4, TAU) == pytest.approx(0.2)


def test_weight_validation():
    c = identities.block_coordinates(np.eye(2), E1)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(WeightOutOfRange):
            identities.check_a_recursion(c, c, bad)


def test_inverse_stats_canonical_values():
    s0 = identities.inverse_stats(canonical_block(), E1)
    assert abs(s0.inv_defect - 2.0) <= 1e-13
    assert abs(s0.inv_trace - 3.0) <= 1e-13
    assert abs(s0.lambda_min - (3.0 - np.sqrt(5.0)) / 2.0) <= 1e-14

    s1 = identities.inverse_stats(_canonical_step(canonical_block()), E1)
    assert abs(s1.inv_defect - 3.8) <= 1e-12
    assert abs(s1.inv_trace - 5.0) <= 1e-12
    # increments: beta grows by (tau/rho) <e, T^{-1/2} e>^2 = (3/sqrt5)^2 = 9/5,
    # trace grows by (tau/rho) beta_0 = 2
    assert abs((s1.inv_defect - s0.inv_defect) - 1.8) <= 1e-12
    assert abs((s1.inv_trace - s0.inv_trace) - 2.0) <= 1e-12


def test_inverse_update_residual_canonical():
    T0 = canonical_block()
    T1 = _canonical_step(T0)
    assert identities.check_inverse_update(T0, T1, E1, TAU) <= 1e-12


def test_inverse_ops_reject_singular_blocks():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotStrictlyPositive):
        identities.inverse_stats(singular, E1)
    with pytest.raises(NotStrictlyPositive):
        identities.check_inverse_update(singular, np.eye(2), E1, TAU)


def test_growth_bounds_on_decoupled_run():
    # diag(2^-n, 1): beta_n = 2^n, s_n = 2^n + 1, all bounds hold, with
    # equality in the trace bound at n = 1, 2.
    blocks = [np.diag([0.5**n, 1.0]) for n in range(6)]
    stats = [identities.inverse_stats(T, E1) for T in blocks]
    norm_t0 = 1.0
    report = identities.check_growth_bounds(stats, TAU, norm_t0, dim_e=2)
    assert report.passed(slack=1e-9)
    assert report.beta_bound == 0.0
    assert report.s_bound <= 1e-12
    assert report.lambda_min_bound <= 1e-12
    # n^2 * 2 / (2^n + 1) peaks at n = 3: 18/9 = 2
    assert abs(report.tightest_constant - 2.0) <= 1e-12
    assert report.steps_checked == 6


def test_growth_bound_floors_frozen_values():
    s0 = identities.inverse_stats(canonical_block(), E1)
    norm_t0 = (3.0 + np.sqrt(5.0)) / 2.0
    # one step of the linear floor adds tau/(rho ||T0||) = 2/(3+sqrt5)
    floor1 = identities.defect_inverse_floor(s0, TAU, norm_t0, 1)
    assert abs((floor1 - s0.inv_defect) - 2.0 / (3.0 + np.sqrt(5.0))) <= 1e-15
    # actual increment 1.8 comfortably beats the floor 0.3819...
    assert 1.8 >= floor1 - s0.inv_defect


def test_transverse_persistence_exact_decoupled():
    blocks = [np.diag([0.5**n, 1.0]) for n in range(10)]
    assert identities.check_transverse_persistence(blocks, E1, TAU) <= 1e-15
    with pytest.raises(NotDecoupled):
        identities.check_transverse_persistence([canonical_block()], E1, TAU)
    # the deviation is a Hermitian norm, so a block off the Hermitian
    # matrices is rejected instead of measured on its lower triangle only
    skewed = np.diag([0.25, 1.0]).astype(complex)
    skewed[0, 1] = 1e-3
    with pytest.raises(NonHermitianInput):
        identities.check_transverse_persistence(blocks[:2] + [skewed], E1, TAU)


def test_summability_requires_converged_tail():
    T = canonical_block()
    coords = []
    for _ in range(4):
        coords.append(identities.block_coordinates(T, E1))
        T = _canonical_step(T)
    with pytest.raises(NotConverged):
        identities.check_summability(coords, TAU)


def test_summability_on_decoupled_run():
    coords = [
        identities.block_coordinates(np.diag([0.5**n, 1.0]), E1) for n in range(5)
    ]
    assert identities.check_summability(coords, TAU) <= 1e-15


def test_offdiag_collapse_detects_fabricated_violation():
    good = identities.block_coordinates(canonical_block(), E1)
    assert identities.check_offdiag_collapse([good], norm_t0=(3 + np.sqrt(5)) / 2) == 0.0
    bad = identities.BlockCoordinates(
        defect_diag=0.01,
        coupling=np.array([0.0, 1.0], dtype=np.complex128),
        transverse=np.zeros((2, 2), dtype=np.complex128),
        root_coupling=np.zeros(2, dtype=np.complex128),
    )
    assert identities.check_offdiag_collapse([bad], norm_t0=1.0) > 0.5
