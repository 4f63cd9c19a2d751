"""Exact identities satisfied by the weighted block recursion, as checkers.

The stabilized dynamics acts on a strictly positive block T with a fixed unit
defect direction e of weight tau = |u_E|^2 in (0, 1). Splitting along e and
its orthocomplement (Q = I - ee*) gives the coordinates

    defect_diag    a = <e, T e>
    coupling       b = Q T e
    transverse     B = Q T Q
    root_coupling  y = Q T^{1/2} e

and every checker below measures a relation these quantities must satisfy
exactly in exact arithmetic, returned as a residual relative to
``max(1, natural scale)``.

Coordinates are kept in ambient form: ``coupling``/``root_coupling`` are full-
length vectors orthogonal to e, ``transverse`` a full-size matrix annihilating
e, so ``reassemble`` rebuilds T without choosing a basis of the complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import matcore
from .errors import (
    NotConverged,
    NotDecoupled,
    NotStrictlyPositive,
    WeightOutOfRange,
    ZeroVector,
)

_TINY = 1e-300


@dataclass
class BlockCoordinates:
    """Split of a Hermitian block along the defect direction.

    The scalars the checks read (``coupling_norm``, ``root_coupling_sq`` and
    ``transverse_trace``) are computed once, at construction.
    """

    defect_diag: float
    coupling: np.ndarray
    transverse: np.ndarray
    root_coupling: np.ndarray
    coupling_norm: float = field(init=False)
    root_coupling_sq: float = field(init=False)
    transverse_trace: float = field(init=False)

    def __post_init__(self):
        y = self.root_coupling
        self.coupling_norm = float(np.linalg.norm(self.coupling))
        self.root_coupling_sq = float(np.vdot(y, y).real)
        self.transverse_trace = float(self.transverse.trace().real)


@dataclass
class InverseStats:
    """Scalars of the inverse block: <e, T^{-1} e>, tr T^{-1}, and lambda_min(T)."""

    inv_defect: float
    inv_trace: float
    lambda_min: float


def _unit(e) -> np.ndarray:
    x = np.asarray(e, dtype=np.complex128)
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ZeroVector("defect direction must be nonzero")
    return x / nrm


def block_coordinates(T, e, root: Optional[np.ndarray] = None) -> BlockCoordinates:
    """Compute the split of ``T`` along ``e``.

    ``root`` may supply a precomputed square root of ``T``; otherwise
    :func:`matcore.psd_sqrt` is used.
    """
    Tm = np.asarray(T, dtype=np.complex128)
    ev = _unit(e)
    t_e = Tm @ ev
    ip = np.vdot(ev, t_e)
    a = float(ip.real)
    b = t_e - ip * ev
    B = (
        Tm
        - np.outer(ev, t_e.conj())
        - np.outer(t_e, ev.conj())
        + ip * np.outer(ev, ev.conj())
    )
    if root is None:
        root = matcore.psd_sqrt(Tm)
    r_e = np.asarray(root, dtype=np.complex128) @ ev
    y = r_e - np.vdot(ev, r_e) * ev
    return BlockCoordinates(
        defect_diag=a,
        coupling=b,
        transverse=matcore.hermitian_part(B),
        root_coupling=y,
    )


def reassemble(coords: BlockCoordinates, e) -> np.ndarray:
    """Rebuild the block from its split: a ee* + b e* + e b* + B."""
    ev = _unit(e)
    return (
        coords.defect_diag * np.outer(ev, ev.conj())
        + np.outer(coords.coupling, ev.conj())
        + np.outer(ev, coords.coupling.conj())
        + coords.transverse
    )


def _check_weight(tau: float) -> float:
    if not 0.0 < tau < 1.0:
        raise WeightOutOfRange(f"weight {tau} outside (0, 1)")
    return 1.0 - tau


def check_a_recursion(cur: BlockCoordinates, nxt: BlockCoordinates, tau: float) -> float:
    """Defect diagonal update: a' = (1-tau) a + tau |y|^2."""
    rho = _check_weight(tau)
    predicted = rho * cur.defect_diag + tau * cur.root_coupling_sq
    return abs(nxt.defect_diag - predicted) / max(1.0, abs(cur.defect_diag))


def check_B_decrement(cur: BlockCoordinates, nxt: BlockCoordinates, tau: float) -> float:
    """Transverse update: B' = B - tau y y*; also checked in trace form."""
    _check_weight(tau)
    y = cur.root_coupling
    D = nxt.transverse - cur.transverse + tau * np.outer(y, y.conj())
    op = matcore.hermitian_norm(D) / max(1.0, matcore.hermitian_norm(cur.transverse))
    tr = abs(
        nxt.transverse_trace - cur.transverse_trace + tau * cur.root_coupling_sq
    ) / max(1.0, abs(cur.transverse_trace))
    return max(op, tr)


def check_det_decay(prev_det: float, next_det: float, tau: float) -> float:
    """Determinant ratio: det T' = (1-tau) det T."""
    rho = _check_weight(tau)
    return abs(next_det / (rho * prev_det) - 1.0)


def check_summability(coords_seq: Sequence[BlockCoordinates], tau: float) -> float:
    """Telescoped energy balance: tau * sum |y_n|^2 = tr B_first - tr B_last.

    Requires a converged tail: raises :class:`NotConverged` when the last
    root-coupling norm is still above 1e-6.
    """
    _check_weight(tau)
    if len(coords_seq) < 2:
        return 0.0
    if np.linalg.norm(coords_seq[-1].root_coupling) > 1e-6:
        raise NotConverged("sequence truncated: final root coupling above 1e-6")
    total = sum(c.root_coupling_sq for c in coords_seq[:-1])
    return summability_residual(tau, total, coords_seq[0], coords_seq[-1])


def summability_residual(
    tau: float, sum_y2: float, first: BlockCoordinates, last: BlockCoordinates
) -> float:
    """Energy balance over a stretch: tau * sum |y|^2 against tr B_first - tr B_last."""
    tr_first, tr_last = first.transverse_trace, last.transverse_trace
    return abs(tau * sum_y2 - (tr_first - tr_last)) / max(1.0, abs(tr_first))


def check_offdiag_collapse(
    coords_seq: Sequence[BlockCoordinates], norm_t0: float
) -> float:
    """Coupling domination: |b_n|^2 <= ||T_first|| a_n at every step.

    Returns the largest (clamped) violation relative to max(1, ||T_first||^2).
    """
    worst = 0.0
    for c in coords_seq:
        excess = c.coupling_norm**2 - norm_t0 * c.defect_diag
        if excess > worst:
            worst = excess
    return max(0.0, worst) / max(1.0, norm_t0**2)


def strictly_positive(lam_min: float, lam_max: float, rank_tol: float) -> bool:
    """The strict-positivity gate: lambda_min > rank_tol * max(1, lambda_max)."""
    return lam_min > rank_tol * max(1.0, lam_max)


def _strict_spectrum(T, rank_tol: float):
    """Eigenpairs ``(w, V)`` of a block that must be strictly positive."""
    w, V = np.linalg.eigh(matcore.hermitian_part(np.asarray(T, dtype=np.complex128)))
    if not strictly_positive(w[0], w[-1], rank_tol):
        raise NotStrictlyPositive(
            f"block has lambda_min {w[0]:.3e}, not strictly positive"
        )
    return w, V


def check_inverse_update(
    T_cur, T_next, e, tau: float, rank_tol: float = matcore.RANK_TOL_DEFAULT
) -> float:
    """Inverse recursion: T'^{-1} = T^{-1} + (tau/rho) vv*, v = T^{-1/2} e.

    The residual also covers the rank-one shape of the increment (second
    singular value of the inverse difference relative to its first; the
    difference is Hermitian, so its singular values are its |eigenvalues|).
    """
    rho = _check_weight(tau)
    ev = _unit(e)
    w, V = _strict_spectrum(T_cur, rank_tol)
    w_next, V_next = _strict_spectrum(T_next, rank_tol)
    inv_cur = (V / w) @ V.conj().T
    v = ((V / np.sqrt(w)) @ V.conj().T) @ ev
    D = (V_next / w_next) @ V_next.conj().T - inv_cur
    formula = matcore.hermitian_norm(D - (tau / rho) * np.outer(v, v.conj())) / max(
        1.0, matcore.hermitian_norm(inv_cur)
    )
    s = np.sort(np.abs(np.linalg.eigvalsh(D)))
    rank_one = float(s[-2] / max(s[-1], _TINY)) if s.size >= 2 else 0.0
    return max(formula, rank_one)


def inverse_stats(
    T, e, rank_tol: float = matcore.RANK_TOL_DEFAULT
) -> InverseStats:
    """Inverse scalars of a strictly positive block."""
    ev = _unit(e)
    w, V = _strict_spectrum(T, rank_tol)
    proj = V.conj().T @ ev
    beta = float(np.sum(np.abs(proj) ** 2 / w))
    return InverseStats(
        inv_defect=beta,
        inv_trace=float(np.sum(1.0 / w)),
        lambda_min=float(w[0]),
    )


def defect_inverse_floor(
    start: InverseStats, tau: float, norm_t0: float, steps: int
) -> float:
    """Linear lower bound for <e, T_n^{-1} e> after ``steps`` updates."""
    rho = _check_weight(tau)
    return start.inv_defect + steps * tau / (rho * norm_t0)


def trace_inverse_floor(
    start: InverseStats, tau: float, norm_t0: float, steps: int
) -> float:
    """Quadratic lower bound for tr T_n^{-1} after ``steps`` updates."""
    rho = _check_weight(tau)
    return (
        start.inv_trace
        + (tau / rho) * steps * start.inv_defect
        + (tau**2 / (2.0 * rho**2 * norm_t0)) * steps * (steps - 1)
    )


def growth_violations(
    start: InverseStats,
    stats: InverseStats,
    tau: float,
    norm_t0: float,
    steps: int,
    dim_e: int,
) -> tuple[float, float, float]:
    """Signed violations of the beta, trace and lambda_min bounds ``steps`` in."""
    return (
        defect_inverse_floor(start, tau, norm_t0, steps) - stats.inv_defect,
        trace_inverse_floor(start, tau, norm_t0, steps) - stats.inv_trace,
        stats.lambda_min - dim_e / stats.inv_trace,
    )


@dataclass
class GrowthBounds:
    """Aggregated violations of the inverse growth bounds over a run.

    Each field is the largest clamped violation (0.0 when the bound held at
    every step); ``tightest_constant`` is the empirical best constant C with
    lambda_min(T_n) <= C / n^2 over the checked steps.
    """

    beta_bound: float
    s_bound: float
    lambda_min_bound: float
    tightest_constant: float
    steps_checked: int

    def passed(self, slack: float = 1e-9) -> bool:
        return max(self.beta_bound, self.s_bound, self.lambda_min_bound) <= slack


def check_growth_bounds(
    stats_seq: Sequence[InverseStats], tau: float, norm_t0: float, dim_e: int
) -> GrowthBounds:
    """Check the inverse growth bounds along a run starting at ``stats_seq[0]``."""
    _check_weight(tau)
    start = stats_seq[0]
    violations = [
        growth_violations(start, st, tau, norm_t0, n, dim_e)
        for n, st in enumerate(stats_seq)
    ]
    beta_v, s_v, lam_v = (max([0.0, *col]) for col in zip(*violations))
    constants = [n * n * dim_e / st.inv_trace for n, st in enumerate(stats_seq) if n]
    return GrowthBounds(
        beta_bound=beta_v,
        s_bound=s_v,
        lambda_min_bound=lam_v,
        tightest_constant=max([0.0, *constants]),
        steps_checked=len(stats_seq),
    )


def is_decoupled(start: BlockCoordinates, norm_t0: float, coupling_tol: float) -> bool:
    """Decoupling predicate: |b_0| <= coupling_tol * max(1, ||T_0||)."""
    return start.coupling_norm <= coupling_tol * max(1.0, norm_t0)


def transverse_deviation(
    start: BlockCoordinates, T, e, rho: float, steps: int, norm_t0: float
) -> float:
    """Distance of T_n from the decoupled evolution (1-tau)^n a_0 ee* + B_0."""
    ee = np.outer(e, e.conj())
    predicted = (rho**steps) * start.defect_diag * ee + start.transverse
    return matcore.hermitian_norm(np.asarray(T) - predicted) / max(1.0, norm_t0)


def check_transverse_persistence(
    blocks: Sequence[np.ndarray],
    e,
    tau: float,
    coupling_tol: float = 1e-10,
) -> float:
    """Decoupled evolution: T_n = (1-tau)^n a_0 ee* + B_0 when b_0 = 0.

    The blocks must be Hermitian (:class:`NonHermitianInput` otherwise, since
    the deviation is a Hermitian norm) and ``blocks[0]`` PSD: the start split
    is :func:`block_coordinates`, which takes its root. Raises
    :class:`NotDecoupled` when the starting block actually couples the defect
    direction to its complement.
    """
    rho = _check_weight(tau)
    ev = _unit(e)
    blocks = [matcore.require_hermitian(Tn) for Tn in blocks]
    start = block_coordinates(blocks[0], ev)
    norm0 = matcore.opnorm(blocks[0])
    if not is_decoupled(start, norm0, coupling_tol):
        raise NotDecoupled(
            f"starting coupling norm {start.coupling_norm:.3e} beyond tolerance"
        )
    return max(
        transverse_deviation(start, Tn, ev, rho, n, norm0)
        for n, Tn in enumerate(blocks)
    )
