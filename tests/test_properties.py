"""Property-based tests: randomized invariants of the kernel and the iteration.

Random inputs are generated from drawn integer seeds so that shrinking acts on
the seed/dimension, while the matrices themselves stay well scaled.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from wrdyn import dynamics, identities, matcore

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def planted_psd(dim: int, rank: int, scale: float, rng) -> np.ndarray:
    """PSD matrix with exactly `rank` eigenvalues in [0.2, 2] * scale, rest zero."""
    vals = np.zeros(dim)
    vals[:rank] = scale * rng.uniform(0.2, 2.0, size=rank)
    U = haar_unitary(dim, rng)
    return matcore.hermitian_part((U * vals) @ U.conj().T)


def random_hermitian(dim: int, rng) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return matcore.hermitian_part(G)


def unit_vector(dim: int, rng) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestSquareRoot:
    @given(seed=seeds, dim=st.integers(1, 16), log_scale=st.integers(-4, 4))
    @settings(deadline=None)
    def test_sqrt_squares_back_to_input(self, seed, dim, log_scale):
        rng = rng_for(seed)
        rank = int(rng.integers(0, dim + 1))
        S = planted_psd(dim, rank, 10.0**log_scale, rng)
        root = matcore.psd_sqrt(S)
        err = matcore.opnorm(root @ root - S)
        assert err <= 1e-9 * max(1.0, matcore.opnorm(S))
        assert np.linalg.eigvalsh(root).min() >= -1e-12 * max(1.0, matcore.opnorm(S))

    @given(seed=seeds, log_scale=st.integers(-3, 3))
    @settings(deadline=None)
    def test_closed_form_2x2_root_matches_spectral_root(self, seed, log_scale):
        rng = rng_for(seed)
        M = planted_psd(2, 2, 10.0**log_scale, rng)
        assert matcore.opnorm(matcore.sqrt2x2(M) - matcore.psd_sqrt(M)) <= 1e-10

    @given(seed=seeds, log_scale=st.integers(-3, 3))
    @settings(deadline=None)
    def test_closed_form_2x2_root_squares_back_on_degenerate_input(
        self, seed, log_scale
    ):
        # Exactly rank-one input: the two routes individually amplify
        # eigenvalue roundoff like sqrt(eps), so cross-agreement is only
        # meaningful to ~1e-7 here, but each root must still square back.
        rng = rng_for(seed)
        scale = 10.0**log_scale
        M = planted_psd(2, 1, scale, rng)
        root = matcore.sqrt2x2(M)
        assert matcore.opnorm(root @ root - M) <= 1e-9 * max(1.0, matcore.opnorm(M))
        gap = matcore.opnorm(root - matcore.psd_sqrt(M))
        assert gap <= 1e-7 * max(1.0, np.sqrt(scale))

    @given(seed=seeds, dim=st.integers(1, 8))
    @settings(deadline=None)
    def test_sqrt_preserves_numerical_rank(self, seed, dim):
        # An eigenvalue of the input clears the rank threshold exactly when
        # its square root clears the square-rooted threshold, so the rank
        # comparison transports the tolerance through the root:
        # sqrt(tol * max(1, w)) = sqrt(tol) * max(1, sqrt(w)).
        rng = rng_for(seed)
        rank = int(rng.integers(0, dim + 1))
        S = planted_psd(dim, rank, float(rng.uniform(0.5, 50.0)), rng)
        tol = matcore.RANK_TOL_DEFAULT
        assert matcore.numerical_rank(S, tol) == rank
        assert matcore.numerical_rank(matcore.psd_sqrt(S), np.sqrt(tol)) == rank


class TestSubspaces:
    @given(seed=seeds, dim=st.integers(2, 8), eigen_seed=st.booleans())
    @settings(deadline=None)
    def test_krylov_span_and_complement_are_invariant(self, seed, dim, eigen_seed):
        rng = rng_for(seed)
        S = random_hermitian(dim, rng)
        if eigen_seed:
            v = np.linalg.eigh(S)[1][:, int(rng.integers(0, dim))]
        else:
            v = unit_vector(dim, rng)
        B = matcore.krylov_span(S, v)
        tol = 1e-8 * max(1.0, matcore.opnorm(S))
        assert matcore.opnorm(B.conj().T @ B - np.eye(B.shape[1])) <= 1e-10
        assert matcore.opnorm(S @ B - B @ (B.conj().T @ S @ B)) <= tol
        C = matcore.orth_complement(B)
        assert B.shape[1] + C.shape[1] == dim
        if C.shape[1]:
            assert matcore.opnorm(S @ C - C @ (C.conj().T @ S @ C)) <= tol

    @given(seed=seeds, dim=st.integers(1, 8))
    @settings(deadline=None)
    def test_compression_of_psd_stays_psd(self, seed, dim):
        rng = rng_for(seed)
        rank = int(rng.integers(0, dim + 1))
        S = planted_psd(dim, rank, float(rng.uniform(0.1, 10.0)), rng)
        k = int(rng.integers(1, dim + 1))
        basis = np.linalg.qr(
            rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        )[0]
        T = matcore.compress(S, basis)
        assert np.array_equal(T, matcore.hermitian_part(T))
        floor = -1e-10 * max(1.0, matcore.opnorm(S))
        assert np.linalg.eigvalsh(T).min() >= floor


class TestStepInvariants:
    @given(seed=seeds, dim=st.integers(2, 6))
    @settings(deadline=None)
    def test_single_step_order_trace_and_rank(self, seed, dim):
        rng = rng_for(seed)
        rank = int(rng.integers(1, dim + 1))
        R = planted_psd(dim, rank, float(rng.uniform(0.2, 5.0)), rng)
        u = unit_vector(dim, rng)
        nxt = dynamics.wr_step(R, u)
        gap = dynamics.step_gap(R, u)
        assert gap >= -1e-12
        assert matcore.loewner_leq(nxt, R, 1e-9)
        assert abs(np.trace(R).real - np.trace(nxt).real - gap) <= 1e-10 * max(
            1.0, np.trace(R).real
        )
        assert matcore.numerical_rank(nxt) <= matcore.numerical_rank(R)
        assert np.linalg.eigvalsh(nxt).min() >= -1e-10 * max(1.0, matcore.opnorm(R))

    @given(seed=seeds, dim=st.integers(2, 5))
    @settings(deadline=None, max_examples=25)
    def test_short_run_is_monotone_with_bounded_stabilization(self, seed, dim):
        rng = rng_for(seed)
        rank = int(rng.integers(1, dim + 1))
        R = planted_psd(dim, rank, 1.0, rng)
        u = unit_vector(dim, rng)
        cfg = dynamics.WRConfig(
            matrix=R,
            direction=u,
            max_iter=25,
            keep_iterates=True,
            compute_residuals=False,
        )
        trace = dynamics.iterate(cfg)
        ranks = [rec.rank for rec in trace.records]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))
        assert all(rec.gap >= -1e-12 for rec in trace.records)
        traces = [rec.trace for rec in trace.records]
        assert all(a >= b - 1e-10 for a, b in zip(traces, traces[1:]))
        for prev, cur in zip(trace.iterates, trace.iterates[1:]):
            assert matcore.loewner_leq(cur, prev, 1e-9)
        # exact rule: the support is fixed from the first iterate whose range
        # does not hold u, which comes after at most rank(R_0) steps
        outside = [
            1.0 - np.linalg.norm(matcore.range_basis(A).conj().T @ cfg.direction) ** 2
            > cfg.rank_tol
            for A in trace.iterates
        ]
        if trace.stabilized_at is not None:
            assert trace.stabilized_at <= dim
            assert trace.stabilized_at == outside.index(True)
            assert trace.stabilized_at <= rank

    @given(seed=seeds, dim=st.integers(1, 5))
    @settings(deadline=None)
    def test_zero_weight_step_is_the_identity_map(self, seed, dim):
        rng = rng_for(seed)
        T = planted_psd(dim, dim, 1.0, rng)
        out = dynamics.weighted_step(T, np.zeros(dim, dtype=np.complex128))
        assert np.array_equal(out, T)

    @given(
        seed=seeds,
        dim=st.integers(2, 5),
        tau=st.floats(0.05, 0.9),
    )
    @settings(deadline=None)
    def test_weighted_step_multiplies_det_by_residual_weight(self, seed, dim, tau):
        rng = rng_for(seed)
        T = planted_psd(dim, dim, 1.0, rng) + 0.1 * np.eye(dim)
        w = np.sqrt(tau) * unit_vector(dim, rng)
        nxt = dynamics.weighted_step(T, w)
        sign_t, logdet_t = np.linalg.slogdet(T)
        sign_n, logdet_n = np.linalg.slogdet(nxt)
        assert sign_t > 0 and sign_n > 0
        ratio = np.exp(logdet_n - logdet_t)
        assert abs(ratio / (1.0 - tau) - 1.0) <= 1e-9


class TestBlockRecursions:
    @given(seed=seeds, dim=st.integers(2, 5), tau=st.floats(0.05, 0.95))
    @settings(deadline=None)
    def test_one_step_block_coordinate_updates(self, seed, dim, tau):
        rng = rng_for(seed)
        T = planted_psd(dim, dim, 1.0, rng) + 0.05 * np.eye(dim)
        e = unit_vector(dim, rng)
        nxt = dynamics.weighted_step(T, np.sqrt(tau) * e)
        cur_coords = identities.block_coordinates(T, e)
        nxt_coords = identities.block_coordinates(nxt, e)
        assert identities.check_a_recursion(cur_coords, nxt_coords, tau) <= 1e-10
        assert identities.check_B_decrement(cur_coords, nxt_coords, tau) <= 1e-10
        det_cur = float(np.linalg.det(T).real)
        det_nxt = float(np.linalg.det(nxt).real)
        assert identities.check_det_decay(det_cur, det_nxt, tau) <= 1e-8
