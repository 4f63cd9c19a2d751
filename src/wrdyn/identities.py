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


def check_summability(
    coords_seq: Sequence[BlockCoordinates],
    tau: float,
    final_transverse_trace: Optional[float] = None,
) -> float:
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
    tr_first = coords_seq[0].transverse_trace
    tr_last = (
        final_transverse_trace
        if final_transverse_trace is not None
        else coords_seq[-1].transverse_trace
    )
    return abs(tau * total - (tr_first - tr_last)) / max(1.0, abs(tr_first))


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


def _strict_inverse(T, rank_tol: float):
    w, V = np.linalg.eigh(matcore.hermitian_part(np.asarray(T, dtype=np.complex128)))
    if w[0] <= rank_tol * max(1.0, w[-1]):
        raise NotStrictlyPositive(
            f"block has lambda_min {w[0]:.3e}, not strictly positive"
        )
    inv = (V / w) @ V.conj().T
    invroot = (V / np.sqrt(w)) @ V.conj().T
    return w, inv, invroot


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
    _, inv_cur, invroot_cur = _strict_inverse(T_cur, rank_tol)
    _, inv_next, _ = _strict_inverse(T_next, rank_tol)
    v = invroot_cur @ ev
    D = inv_next - inv_cur
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
    Tm = matcore.hermitian_part(np.asarray(T, dtype=np.complex128))
    w, V = np.linalg.eigh(Tm)
    if w[0] <= rank_tol * max(1.0, w[-1]):
        raise NotStrictlyPositive(
            f"block has lambda_min {w[0]:.3e}, not strictly positive"
        )
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
    beta_v = 0.0
    s_v = 0.0
    lam_v = 0.0
    c_best = 0.0
    for n, st in enumerate(stats_seq):
        beta_v = max(beta_v, defect_inverse_floor(start, tau, norm_t0, n) - st.inv_defect)
        s_v = max(s_v, trace_inverse_floor(start, tau, norm_t0, n) - st.inv_trace)
        lam_v = max(lam_v, st.lambda_min - dim_e / st.inv_trace)
        if n >= 1:
            c_best = max(c_best, n * n * dim_e / st.inv_trace)
    return GrowthBounds(
        beta_bound=max(0.0, beta_v),
        s_bound=max(0.0, s_v),
        lambda_min_bound=max(0.0, lam_v),
        tightest_constant=c_best,
        steps_checked=len(stats_seq),
    )


def check_transverse_persistence(
    blocks: Sequence[np.ndarray],
    e,
    tau: float,
    coupling_tol: float = 1e-10,
) -> float:
    """Decoupled evolution: T_n = (1-tau)^n a_0 ee* + B_0 when b_0 = 0.

    Raises :class:`NotDecoupled` when the starting block actually couples the
    defect direction to its complement.
    """
    rho = _check_weight(tau)
    ev = _unit(e)
    T0 = np.asarray(blocks[0], dtype=np.complex128)
    norm0 = matcore.opnorm(T0)
    t_e = T0 @ ev
    ip = np.vdot(ev, t_e)
    b0 = t_e - ip * ev
    if np.linalg.norm(b0) > coupling_tol * max(1.0, norm0):
        raise NotDecoupled(
            f"starting coupling norm {np.linalg.norm(b0):.3e} beyond tolerance"
        )
    a0 = float(ip.real)
    ee = np.outer(ev, ev.conj())
    B0 = T0 - np.outer(ev, t_e.conj()) - np.outer(t_e, ev.conj()) + ip * ee
    worst = 0.0
    for n, Tn in enumerate(blocks):
        predicted = (rho**n) * a0 * ee + B0
        worst = max(worst, matcore.opnorm(np.asarray(Tn) - predicted))
    return worst / max(1.0, norm0)
