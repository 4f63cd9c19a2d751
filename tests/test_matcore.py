"""Kernel-layer tests against hand-computed values."""

from __future__ import annotations

import numpy as np
import pytest

from wrdyn import matcore
from wrdyn.errors import (
    DimensionMismatch,
    IndefiniteInput,
    NonHermitianInput,
    ZeroVector,
)

from wrdyn_helpers import canonical_block, random_psd, random_unit

EXACT = 0.0
EIG_TOL = 1e-14
RECON_TOL = 1e-12


def test_eigh_canonical_block_spectrum():
    # Characteristic polynomial x^2 - 3x + 1: roots (3 -+ sqrt(5))/2.
    dec = matcore.eigh(canonical_block())
    lo = (3.0 - np.sqrt(5.0)) / 2.0
    hi = (3.0 + np.sqrt(5.0)) / 2.0
    assert abs(dec.eigenvalues[0] - lo) <= EIG_TOL
    assert abs(dec.eigenvalues[1] - hi) <= EIG_TOL
    assert np.linalg.norm(dec.reconstruct() - canonical_block()) <= RECON_TOL


def test_eigh_phase_gauge_first_nonzero_real_positive(rng):
    S = random_psd(5, rng)
    dec = matcore.eigh(S)
    for i in range(5):
        col = dec.vectors[:, i]
        idx = int(np.argmax(np.abs(col) > 1e-12 * np.abs(col).max()))
        pivot = col[idx]
        assert abs(pivot.imag) <= 1e-14 * abs(pivot)
        assert pivot.real > 0.0


def test_eigh_of_diagonal_is_exact():
    dec = matcore.eigh(np.diag([2.0, 1.0]).astype(np.complex128))
    assert dec.eigenvalues.tolist() == [1.0, 2.0]
    assert np.array_equal(dec.vectors, np.array([[0, 1], [1, 0]], dtype=np.complex128))


def _fix_phases_by_column(V):
    """Reference: the per-column loop that the vectorized gauge replaced."""
    V = V.copy()
    for i in range(V.shape[1]):
        col = V[:, i]
        mags = np.abs(col)
        peak = mags.max()
        if peak == 0.0:
            continue
        idx = int(np.argmax(mags > 1e-12 * peak))
        pivot = col[idx]
        if pivot != 0:
            V[:, i] = col * (pivot.conjugate() / abs(pivot))
    return V


def test_fix_phases_matches_the_column_loop_bit_for_bit():
    rng = np.random.default_rng(20)
    cases = [np.zeros((0, 0), dtype=np.complex128)]
    for k in range(1, 7):
        for _ in range(40):
            G = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            zero_col = G.copy()
            zero_col[:, rng.integers(k)] = 0.0
            zero_col[0] *= 1e-13  # first entries fall below the pivot threshold
            cases += [
                G,
                G.real.astype(np.complex128),
                zero_col,
                np.diag(np.diagonal(G)),
                np.diag(np.diagonal(G).real).astype(np.complex128),
                np.linalg.eigh(G + G.conj().T)[1],
            ]
    for V in cases:
        # tobytes also tells signed zeros apart
        assert matcore._fix_phases(V).tobytes() == _fix_phases_by_column(V).tobytes()


def test_hermitian_norm_matches_opnorm(rng):
    # Both routes are backward stable; over 72,000 random Hermitian matrices
    # (k = 1-6) they differed by at most 6.8 eps relative.
    tol = 8 * np.finfo(np.float64).eps
    assert matcore.hermitian_norm(np.zeros((0, 0))) == 0.0
    assert abs(matcore.hermitian_norm(canonical_block()) - (3 + np.sqrt(5)) / 2) <= tol * 3
    for k in range(1, 7):
        assert matcore.hermitian_norm(np.zeros((k, k))) == 0.0
        for _ in range(20):
            G = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            P = matcore.hermitian_part(G @ G.conj().T)
            # indefinite, PSD, negative semidefinite, negative definite
            for H in (G + G.conj().T, P, -P, -P - np.eye(k)):
                want = matcore.opnorm(H)
                assert abs(matcore.hermitian_norm(H) - want) <= tol * want


def test_psd_sqrt_matches_closed_form_on_canonical_block():
    # ([[2,1],[1,3]]/sqrt(5))^2 == [[1,1],[1,2]] exactly, so both routes must hit it.
    expected = np.array([[2.0, 1.0], [1.0, 3.0]]) / np.sqrt(5.0)
    via_spectrum = matcore.psd_sqrt(canonical_block())
    via_formula = matcore.sqrt2x2(canonical_block())
    assert np.linalg.norm(via_spectrum - expected) <= 1e-12
    assert np.linalg.norm(via_formula - expected) <= 1e-15
    assert np.linalg.norm(via_spectrum - via_formula) <= 1e-12


def test_psd_sqrt_diagonal_fast_path_is_exact():
    S = np.diag([4.0, 9.0]).astype(np.complex128)
    root = matcore.psd_sqrt(S)
    assert np.array_equal(root, np.diag([2.0, 3.0]).astype(np.complex128))


def test_psd_sqrt_zero_and_indefinite():
    assert np.array_equal(matcore.psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))
    with pytest.raises(IndefiniteInput):
        matcore.psd_sqrt(np.diag([1.0, -1.0]))


def test_sqrt2x2_degenerate_cases():
    assert np.array_equal(matcore.sqrt2x2(np.zeros((2, 2))), np.zeros((2, 2)))
    root = matcore.sqrt2x2(np.diag([9.0, 0.0]))
    assert np.allclose(root, np.diag([3.0, 0.0]), atol=1e-15)
    assert np.array_equal(matcore.sqrt2x2(np.eye(2)), np.eye(2, dtype=np.complex128))
    with pytest.raises(DimensionMismatch):
        matcore.sqrt2x2(np.eye(3))


def test_sqrt2x2_agrees_with_psd_sqrt_near_singular(rng):
    for _ in range(20):
        v = random_unit(2, rng)
        w = random_unit(2, rng)
        S = np.outer(v, v.conj()) + 1e-8 * np.outer(w, w.conj())
        S = matcore.hermitian_part(S)
        assert np.linalg.norm(matcore.sqrt2x2(S) - matcore.psd_sqrt(S)) <= 1e-10


def test_numerical_rank_cases():
    assert matcore.numerical_rank(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1
    assert matcore.numerical_rank(np.eye(3)) == 3
    assert matcore.numerical_rank(np.diag([1.0, 1e-16])) == 1
    assert matcore.numerical_rank(np.zeros((2, 2))) == 0


def test_range_basis_rank_one():
    B = matcore.range_basis(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert B.shape == (2, 1)
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.linalg.norm(B[:, 0] - expected) <= 1e-14


def test_range_basis_descending_and_phase():
    B = matcore.range_basis(np.diag([0.0, 5.0, 3.0]))
    assert B.shape == (3, 2)
    assert np.array_equal(B[:, 0], np.array([0, 1, 0], dtype=np.complex128))
    assert np.array_equal(B[:, 1], np.array([0, 0, 1], dtype=np.complex128))


def test_compress_diagonal():
    B = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.complex128)
    out = matcore.compress(np.diag([1.0, 2.0, 3.0]), B)
    assert np.array_equal(out, np.diag([2.0, 3.0]).astype(np.complex128))
    with pytest.raises(DimensionMismatch):
        matcore.compress(np.eye(3), np.eye(2))


def test_loewner_order():
    assert matcore.loewner_leq(np.eye(2), 2 * np.eye(2))
    assert not matcore.loewner_leq(2 * np.eye(2), np.eye(2))
    assert matcore.loewner_leq(np.eye(2), np.eye(2))


def test_krylov_span_invariant_line():
    B = matcore.krylov_span(np.diag([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0]))
    assert B.shape == (3, 1)
    assert np.linalg.norm(B[:, 0] - np.array([1, 0, 0])) <= 1e-14


def test_krylov_span_two_dim():
    u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    B = matcore.krylov_span(np.diag([1.0, 2.0, 3.0]), u)
    assert B.shape == (3, 2)
    # span{e1, e2}: third row identically zero, basis orthonormal
    assert np.abs(B[2]).max() <= 1e-14
    assert np.linalg.norm(B.conj().T @ B - np.eye(2)) <= 1e-13


def test_krylov_span_generic_is_full(rng):
    S = random_psd(4, rng)
    B = matcore.krylov_span(S, random_unit(4, rng))
    assert B.shape == (4, 4)


def test_krylov_span_zero_vector():
    with pytest.raises(ZeroVector):
        matcore.krylov_span(np.eye(2), np.zeros(2))


def test_orth_complement():
    B = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    C = matcore.orth_complement(B)
    assert C.shape == (2, 1)
    assert abs(np.vdot(B[:, 0], C[:, 0])) <= 1e-14
    full = matcore.orth_complement(np.zeros((3, 0)))
    assert np.array_equal(full, np.eye(3, dtype=np.complex128))


def test_subspace_sine():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    rot = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    assert matcore.subspace_sine(e1, e1) <= 1e-14
    assert abs(matcore.subspace_sine(e1, e2) - 1.0) <= 1e-14
    assert abs(matcore.subspace_sine(e1, rot) - np.sqrt(0.5)) <= 1e-14
    assert matcore.subspace_sine(e1, np.eye(2)) == 1.0


def test_require_hermitian():
    with pytest.raises(NonHermitianInput):
        matcore.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    H = matcore.require_hermitian(canonical_block())
    assert np.array_equal(H, canonical_block())


def test_as_psd_clamps_roundoff_but_rejects_indefinite():
    S = matcore.as_psd(np.diag([1.0, -1e-14]))
    assert np.linalg.eigvalsh(S)[0] >= 0.0
    with pytest.raises(IndefiniteInput):
        matcore.as_psd(np.diag([1.0, -1.0]))
