"""Iteration engine: R -> R^{1/2} (I - uu*) R^{1/2} with certified traces.

The engine records one :class:`StepRecord` per visited iterate. Since
``range(R_{n+1}) = R_n^{1/2}(u^perp)``, the support (numerical range) is fixed
from the first iterate whose range does not contain ``u``; the engine extracts
the active block on that support and from then on certifies every step
against the identity checkers. A run ends by convergence (the step decrement
is the gap ``<u, R_n u>`` exactly, since the decrement is rank one), by
reaching ``max_iter``, or by numerical breakdown.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import identities, matcore
from .errors import (
    DimensionMismatch,
    EmptySupport,
    InvalidDirection,
    NumericalBreakdown,
    WeightTooLarge,
)

logger = logging.getLogger("wrdyn.dynamics")

EPS = float(np.finfo(np.float64).eps)

RANK_TOL_DEFAULT = matcore.RANK_TOL_DEFAULT
CONV_TOL_DEFAULT = 1e-11
COUPLING_TOL_DEFAULT = 1e-10
MAX_ITER_DEFAULT = 10_000

#: traces store full eigenvalue lists only up to this dimension
EIGENVALUE_STORE_LIMIT = 32

#: conditioning guard for inverse/determinant certificates: checks run only
#: while lambda_min(T) >= max(1e3 * eps * ||T_start||, INV_COND_GUARD * ||T||)
INV_COND_GUARD = 1e-7


def _unit_direction(u) -> np.ndarray:
    x = np.asarray(u, dtype=np.complex128)
    if x.ndim != 1:
        raise DimensionMismatch(f"direction must be a vector, got shape {x.shape}")
    nrm = np.linalg.norm(x)
    if abs(nrm - 1.0) > 1e-12:
        raise InvalidDirection(f"direction norm {nrm!r} is not 1 within 1e-12")
    return x / nrm


def wr_step(R, u, rank_tol: float = RANK_TOL_DEFAULT) -> np.ndarray:
    """One application of the map: R - vv* with v = R^{1/2} u."""
    A = matcore.hermitian_part(R)
    x = _unit_direction(u)
    if A.shape[0] != x.shape[0]:
        raise DimensionMismatch("matrix and direction dimensions differ")
    v = matcore.psd_sqrt(A, rank_tol) @ x
    return matcore.hermitian_part(A - np.outer(v, v.conj()))


def weighted_step(T, w, rank_tol: float = RANK_TOL_DEFAULT) -> np.ndarray:
    """Stabilized step on a block: T - vv* with v = T^{1/2} w, |w| <= 1.

    An exactly zero ``w`` returns ``T`` unchanged (the map is the identity).
    """
    A = matcore.hermitian_part(T)
    x = np.asarray(w, dtype=np.complex128)
    if A.shape[0] != x.shape[0]:
        raise DimensionMismatch("block and direction dimensions differ")
    weight = float(np.vdot(x, x).real)
    if weight > 1.0 + 1e-12:
        raise WeightTooLarge(f"squared weight {weight} exceeds 1")
    if not x.any():
        return A.copy()
    v = matcore.psd_sqrt(A, rank_tol) @ x
    return matcore.hermitian_part(A - np.outer(v, v.conj()))


def step_gap(R, u) -> float:
    """The step decrement <u, R u> (trace loss, and exact decrement norm)."""
    A = np.asarray(R, dtype=np.complex128)
    x = np.asarray(u, dtype=np.complex128)
    return float(np.vdot(x, A @ x).real)


@dataclass
class WRConfig:
    """Validated input of a run."""

    matrix: np.ndarray
    direction: np.ndarray
    rank_tol: float = RANK_TOL_DEFAULT
    conv_tol: float = CONV_TOL_DEFAULT
    coupling_tol: float = COUPLING_TOL_DEFAULT
    max_iter: int = MAX_ITER_DEFAULT
    keep_iterates: bool = False
    compute_residuals: bool = True

    def __post_init__(self):
        for name in ("rank_tol", "conv_tol", "coupling_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        matcore.require_finite(self.matrix, self.direction)
        A = matcore.require_hermitian(np.asarray(self.matrix, dtype=np.complex128))
        self.matrix = matcore.as_psd(A, self.rank_tol)
        self.direction = _unit_direction(self.direction)
        if self.matrix.shape[0] != self.direction.shape[0]:
            raise DimensionMismatch("matrix and direction dimensions differ")


@dataclass
class StepRecord:
    """Scalars recorded for one iterate (eigenvalue list only in low dimension)."""

    n: int
    eigenvalues: Optional[np.ndarray]
    lambda_min: float
    lambda_max: float
    det: float
    rank: int
    trace: float
    gap: float
    block_coords: Optional[identities.BlockCoordinates] = None
    block_det: Optional[float] = None
    residuals: dict = field(default_factory=dict)


@dataclass
class ActiveBlock:
    """The dynamics compressed onto the stabilized support.

    ``basis`` has orthonormal columns spanning the support, ``start`` is the
    first step index whose support persisted, ``block`` the compressed iterate
    there, ``weight_vector`` the compressed direction, ``tau`` its squared
    norm, and ``defect_direction`` its normalization (None for tau ~ 0).
    """

    basis: np.ndarray
    start: int
    block: np.ndarray
    weight_vector: np.ndarray
    tau: float
    rho: float
    defect_direction: Optional[np.ndarray]


@dataclass
class WRTrace:
    """Everything a run produced."""

    records: list[StepRecord]
    limit_estimate: Optional[np.ndarray]
    converged: bool
    converged_at: Optional[int]
    stabilized_at: Optional[int]
    active: Optional[ActiveBlock]
    max_iter_exceeded: bool
    run_residuals: dict[str, float]
    inverse_checks_stopped_at: Optional[int]
    iterates: Optional[list[np.ndarray]] = None

    @property
    def steps(self) -> int:
        return self.records[-1].n if self.records else 0


class _ResidualTracker:
    """Per-step certification of the stabilized block dynamics."""

    def __init__(
        self,
        active: ActiveBlock,
        coupling_tol: float,
        rank_tol: float = RANK_TOL_DEFAULT,
    ):
        self.e = active.defect_direction
        self.tau = active.tau
        self.rho = active.rho
        self.start = active.start
        self.dim_e = active.basis.shape[1]
        self.rank_tol = rank_tol
        self.norm_start = matcore.opnorm(active.block)
        self.det_floor = 1e3 * EPS * max(self.norm_start, EPS)
        coords0 = identities.block_coordinates(active.block, self.e)
        self.trB_start = coords0.transverse_trace
        self.a_start = coords0.defect_diag
        self.B_start = coords0.transverse
        self.decoupled = coords0.coupling_norm <= coupling_tol * max(
            1.0, self.norm_start
        )
        self.stats_start: Optional[identities.InverseStats] = None
        self.sum_y2 = 0.0
        self.store_coords = self.dim_e <= EIGENVALUE_STORE_LIMIT
        self.inverse_stopped: Optional[int] = None
        self._prev = None  # (coords, det, block, trusted)

    def _trusted(self, lam_min: float, lam_max: float) -> bool:
        # The second clause keeps the predicate at least as strict as the
        # positivity gate inside the inverse-based checks, so a block that
        # collapses to zero stops being checked instead of failing hard.
        return lam_min >= max(
            self.det_floor, INV_COND_GUARD * lam_max
        ) and lam_min > self.rank_tol * max(1.0, lam_max)

    def process(
        self, record: StepRecord, T: np.ndarray, w: np.ndarray, root: np.ndarray
    ):
        """Certify iterate ``T`` given its ascending eigenvalues and its root."""
        n = record.n
        coords = identities.block_coordinates(T, self.e, root=root)
        det = float(np.prod(w))
        trusted = self._trusted(w[0], abs(w[-1]))
        res: dict[str, float] = {}

        res["offdiag_cs"] = identities.check_offdiag_collapse([coords], self.norm_start)
        if self._prev is not None:
            prev_coords, prev_det, prev_T, prev_trusted = self._prev
            self.sum_y2 += prev_coords.root_coupling_sq
            res["a_recursion"] = identities.check_a_recursion(
                prev_coords, coords, self.tau
            )
            res["B_decrement"] = identities.check_B_decrement(
                prev_coords, coords, self.tau
            )
            res["summability"] = abs(
                self.tau * self.sum_y2 - (self.trB_start - coords.transverse_trace)
            ) / max(1.0, abs(self.trB_start))
            if trusted and prev_trusted:
                res["det_decay"] = identities.check_det_decay(prev_det, det, self.tau)
                res["inv_update"] = identities.check_inverse_update(
                    prev_T, T, self.e, self.tau, rank_tol=self.rank_tol
                )
        if trusted:
            stats = identities.inverse_stats(T, self.e, rank_tol=self.rank_tol)
            if self.stats_start is None:
                self.stats_start = stats
            res["beta_bound"] = max(
                0.0,
                identities.defect_inverse_floor(
                    self.stats_start, self.tau, self.norm_start, n - self.start
                )
                - stats.inv_defect,
            )
            res["s_bound"] = max(
                0.0,
                identities.trace_inverse_floor(
                    self.stats_start, self.tau, self.norm_start, n - self.start
                )
                - stats.inv_trace,
            )
            res["lambda_min_bound"] = max(
                0.0, stats.lambda_min - self.dim_e / stats.inv_trace
            )
        elif self.inverse_stopped is None:
            self.inverse_stopped = n
            logger.info("inverse-side checks stopped at step %d (conditioning)", n)
        if self.decoupled:
            ev = self.e
            predicted = (self.rho ** (n - self.start)) * self.a_start * np.outer(
                ev, ev.conj()
            ) + self.B_start
            res["transverse_persistence"] = matcore.hermitian_norm(
                T - predicted
            ) / max(1.0, self.norm_start)

        record.block_coords = coords if self.store_coords else None
        record.block_det = det
        record.residuals = res
        self._prev = (coords, det, T, trusted)


def _build_active(
    R: np.ndarray,
    u: np.ndarray,
    basis: np.ndarray,
    start: int,
    rank_tol: float,
) -> ActiveBlock:
    block = matcore.compress(R, basis)
    u_e = basis.conj().T @ u
    tau = float(np.vdot(u_e, u_e).real)
    stepped_block = weighted_step(block, u_e, rank_tol)
    compressed_step = matcore.compress(wr_step(R, u, rank_tol), basis)
    dev = matcore.opnorm(stepped_block - compressed_step)
    if dev > 1e-9 * max(1.0, matcore.opnorm(block)):
        raise NumericalBreakdown(
            f"compressed step deviates by {dev:.3e}: support not stabilized"
        )
    direction = u_e / np.sqrt(tau) if tau > rank_tol else None
    return ActiveBlock(
        basis=basis,
        start=start,
        block=block,
        weight_vector=u_e,
        tau=tau,
        rho=1.0 - tau,
        defect_direction=direction,
    )


def extract_active_block(R, u, rank_tol: float = RANK_TOL_DEFAULT) -> ActiveBlock:
    """Compress a stabilized iterate onto its support.

    Validates the extraction by checking that one weighted step on the block
    matches the compressed ambient step. Raises :class:`EmptySupport` for the
    zero iterate.
    """
    A = matcore.hermitian_part(R)
    x = _unit_direction(u)
    basis = matcore.range_basis(A, rank_tol)
    if basis.shape[1] == 0:
        raise EmptySupport("iterate has numerical rank 0")
    return _build_active(A, x, basis, start=0, rank_tol=rank_tol)


def detect_stabilization(
    iterates: Sequence[np.ndarray],
    rank_tol: float = RANK_TOL_DEFAULT,
    stab_window: int = 3,
) -> Optional[int]:
    """Smallest index N from which rank and range persist to the end.

    Persistence means: every later iterate has the rank of iterate N and its
    range stays within principal-angle sine ``sqrt(rank_tol)`` of range(R_N).
    The persistent tail must be at least ``stab_window`` iterates long.
    """
    mats = [matcore.hermitian_part(M) for M in iterates]
    if not mats:
        return None
    ranks = [matcore.numerical_rank(M, rank_tol) for M in mats]
    bases = [matcore.range_basis(M, rank_tol) for M in mats]
    sine_tol = float(np.sqrt(rank_tol))
    for start in range(len(mats)):
        if len(mats) - start < stab_window:
            break
        if any(r != ranks[start] for r in ranks[start + 1 :]):
            continue
        if all(
            matcore.subspace_sine(bases[start], bases[n]) <= sine_tol
            for n in range(start + 1, len(mats))
        ):
            return start
    return None


def iterate(cfg: WRConfig) -> WRTrace:
    """Run the dynamics to convergence, ``max_iter``, or breakdown.

    One loop carries a state ``S`` and a direction ``x``.  They start as the
    ambient iterate and ``u``.  At the first step ``n`` whose range does not
    hold ``u`` (``1 - |P_range u|^2 > rank_tol``) the support is fixed for
    good, since ``range(R_{n+1}) = R_n^{1/2}(u^perp)``; so the ambient phase
    lasts at most ``rank(R_0)`` steps.  From then on ``S`` is the compressed
    block and ``x`` the compressed direction: restriction commutes with the
    step (validated at extraction), directions outside the support stay
    exactly inert instead of reinjecting square-root roundoff, and each step
    costs a block-sized eigendecomposition instead of an ambient one.
    Records keep ambient semantics throughout (eigenvalues are padded with
    the exact zeros of the shed directions).
    """
    S = cfg.matrix.copy()
    x = cfg.direction
    dim = S.shape[0]
    store_eigs = dim <= EIGENVALUE_STORE_LIMIT

    records: list[StepRecord] = []
    iterates_list: Optional[list[np.ndarray]] = [] if cfg.keep_iterates else None

    stabilized_at: Optional[int] = None
    active: Optional[ActiveBlock] = None
    tracker: Optional[_ResidualTracker] = None
    pad = 0

    converged = False
    converged_at: Optional[int] = None
    max_iter_exceeded = False
    limit: Optional[np.ndarray] = None
    norm_r0: Optional[float] = None

    def embed(M: np.ndarray) -> np.ndarray:
        if active is None:
            return M.copy()
        return matcore.hermitian_part(active.basis @ M @ active.basis.conj().T)

    def finalize() -> WRTrace:
        run_res: dict[str, float] = {}
        for rec in records:
            for key, val in rec.residuals.items():
                run_res[key] = max(run_res.get(key, 0.0), val)
        return WRTrace(
            records=records,
            limit_estimate=limit,
            converged=converged,
            converged_at=converged_at,
            stabilized_at=stabilized_at,
            active=active,
            max_iter_exceeded=max_iter_exceeded,
            run_residuals=run_res,
            inverse_checks_stopped_at=(
                tracker.inverse_stopped if tracker is not None else None
            ),
            iterates=iterates_list,
        )

    logger.info(
        "iterate: dim=%d rank_tol=%g conv_tol=%g max_iter=%d",
        dim,
        cfg.rank_tol,
        cfg.conv_tol,
        cfg.max_iter,
    )

    n = 0
    try:
        while True:
            dec = matcore.eigh(S)
            w = dec.eigenvalues
            if norm_r0 is None:
                norm_r0 = float(np.abs(w).max()) if w.size else 0.0
            if w[0] < -cfg.rank_tol * max(1.0, w[-1]):
                raise NumericalBreakdown(
                    f"iterate {n} has eigenvalue {w[0]:.3e} below the clamp band",
                    trace=finalize(),
                )

            w_amb = np.sort(np.concatenate([np.zeros(pad), w])) if pad else w
            thresh = cfg.rank_tol * max(1.0, w_amb[-1])
            rec = StepRecord(
                n=n,
                eigenvalues=w_amb.copy() if store_eigs else None,
                lambda_min=float(w_amb[0]),
                lambda_max=float(w_amb[-1]),
                det=float(w_amb.clip(0.0, None).prod()),
                rank=int(np.count_nonzero(w_amb > thresh)),
                trace=float(w_amb.sum()),
                gap=step_gap(S, x),
            )
            records.append(rec)
            if iterates_list is not None:
                iterates_list.append(embed(S))
            logger.debug("step %d: rank=%d gap=%.3e", n, rec.rank, rec.gap)

            if active is None and not converged and rec.rank > 0:
                keep = np.flatnonzero(w > thresh)
                basis = dec.vectors[:, keep[::-1]]
                u_b = basis.conj().T @ x
                if 1.0 - float(np.vdot(u_b, u_b).real) > cfg.rank_tol:
                    active = _build_active(S, x, basis, n, cfg.rank_tol)
                    stabilized_at = n
                    logger.info(
                        "support stabilized at N=%d: dim=%d tau=%.6g",
                        n,
                        basis.shape[1],
                        active.tau,
                    )
                    if cfg.compute_residuals and active.tau > cfg.rank_tol:
                        tracker = _ResidualTracker(
                            active, cfg.coupling_tol, rank_tol=cfg.rank_tol
                        )
                    S, x = active.block.copy(), active.weight_vector
                    pad = dim - basis.shape[1]
                    dec = matcore.eigh(S)
                    w = dec.eigenvalues

            if matcore._is_entrywise_diagonal(S):
                root = matcore.psd_sqrt(S, cfg.rank_tol)
            else:
                V = dec.vectors
                root = matcore.hermitian_part(
                    (V * np.sqrt(w.clip(0.0, None))) @ V.conj().T
                )
            if tracker is not None:
                tracker.process(rec, S, w, root)
            if converged or n == cfg.max_iter:
                if not converged:
                    max_iter_exceeded = True
                    logger.info(
                        "max_iter=%d reached without convergence", cfg.max_iter
                    )
                limit = embed(S)
                break

            v = root @ x
            decrement = float(np.vdot(v, v).real)
            small_step = decrement <= cfg.conv_tol * max(1.0, norm_r0)
            if rec.gap <= cfg.conv_tol and small_step:
                converged = True
                converged_at = n
                logger.info("converged at n=%d (gap %.3e)", n, rec.gap)
            S = matcore.hermitian_part(S - np.outer(v, v.conj()))
            n += 1
    except np.linalg.LinAlgError as err:
        raise NumericalBreakdown(f"iterate {n}: {err}", trace=finalize()) from err

    return finalize()


def iterate_weighted(T0, w, **config_kwargs) -> WRTrace:
    """Run a stabilized block directly by embedding it over a one-dim kernel.

    The ambient instance is ``0 (+) T0`` with direction
    ``sqrt(1 - |w|^2) e_0 (+) w``, whose support is the block from step 0, so
    the trace's active block is ``T0`` itself with weight ``|w|^2``.
    """
    T = matcore.hermitian_part(T0)
    x = np.asarray(w, dtype=np.complex128)
    k = T.shape[0]
    if x.shape != (k,):
        raise DimensionMismatch("block and direction dimensions differ")
    tau = float(np.vdot(x, x).real)
    if tau > 1.0 + 1e-12:
        raise WeightTooLarge(f"squared weight {tau} exceeds 1")
    R0 = np.zeros((k + 1, k + 1), dtype=np.complex128)
    R0[1:, 1:] = T
    u = np.zeros(k + 1, dtype=np.complex128)
    u[0] = np.sqrt(max(0.0, 1.0 - tau))
    u[1:] = x
    u = u / np.linalg.norm(u)
    cfg = WRConfig(matrix=R0, direction=u, **config_kwargs)
    return iterate(cfg)
