"""Structural analysis: invariant splits, collapse classification, limit prediction.

The tools here answer "where does the iteration end up?" without running it to
exhaustion: split off the part of the space the dynamics never touches, detect
the two-dimensional collapse patterns that admit exact limits, and certify
stationary points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from . import dynamics, identities, matcore
from .errors import (
    DimensionMismatch,
    InvalidDirection,
    NotStrictlyPositive,
    WeightOutOfRange,
)

KIND_COMMUTING_COMPRESSION = "CommutingCompression"
KIND_DIM2_COLLAPSE = "Dim2Collapse"
KIND_TRANSVERSE_PERSISTENCE = "TransversePersistence"
KIND_ACTIVE_DIM2 = "ActiveDim2"
KIND_UNKNOWN = "Unknown"

ALL_KINDS = (
    KIND_COMMUTING_COMPRESSION,
    KIND_DIM2_COLLAPSE,
    KIND_TRANSVERSE_PERSISTENCE,
    KIND_ACTIVE_DIM2,
    KIND_UNKNOWN,
)

# Weight-squared above this is treated as full weight on the active block.
_FULL_WEIGHT_CUT = 1.0 - 1e-9

# Outcome of the dimension-2 dichotomy, by (full weight, decoupled).
_DIM2_OUTCOMES = {
    (True, True): (KIND_COMMUTING_COMPRESSION, "commuting-compression"),
    (True, False): (KIND_DIM2_COLLAPSE, "noncommuting-two-dim-collapse"),
    (False, True): (KIND_TRANSVERSE_PERSISTENCE, "decoupled-active-block"),
    (False, False): (KIND_ACTIVE_DIM2, "coupled-active-two-dim"),
}


@dataclass(frozen=True)
class ReducingSplit:
    """Orthogonal split into a frozen invariant part and the seed of the dynamics.

    ``frozen_basis`` spans the largest invariant subspace orthogonal to the
    direction vector; the compression of the matrix to it never changes under
    the iteration.  ``seed_basis`` spans the orthogonal complement (the orbit
    closure of the direction), which contains the direction itself.
    """

    frozen_basis: np.ndarray
    seed_basis: np.ndarray
    frozen: np.ndarray
    active_seed: np.ndarray

    @property
    def frozen_dim(self) -> int:
        return self.frozen_basis.shape[1]

    @property
    def seed_dim(self) -> int:
        return self.seed_basis.shape[1]


@dataclass
class ClassificationResult:
    """Outcome of limit prediction.

    ``predicted_limit`` is present exactly when ``kind`` is not ``Unknown``.
    ``rule`` names the mechanism that produced the prediction; ``certificate``
    carries the named scalars the decision was based on; ``numerical_limit``
    is the iterated estimate when an iteration was run.
    """

    kind: str
    predicted_limit: Optional[np.ndarray]
    rule: str
    certificate: Dict[str, float]
    numerical_limit: Optional[np.ndarray] = None


@dataclass
class StationarityReport:
    """Four equivalent fixed-point residuals, each scaled to the matrix size."""

    passed: bool
    residuals: Dict[str, float]
    tol: float

    def __bool__(self) -> bool:
        return self.passed

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


@dataclass
class InstanceReport:
    """Everything analyze_instance learns from a single run."""

    split: ReducingSplit
    classification: ClassificationResult
    trace: dynamics.WRTrace
    stationarity: StationarityReport


def maximal_reducing_in_uperp(
    R: np.ndarray, u: np.ndarray, rank_tol: float = matcore.RANK_TOL_DEFAULT
) -> ReducingSplit:
    """Split off the largest invariant subspace orthogonal to ``u``.

    The seed part is the smallest invariant subspace containing ``u``; the
    frozen part is its orthogonal complement, which the iteration never
    modifies.
    """
    R = matcore._as_matrix(R)
    u = matcore._as_vector(u)
    if u.shape[0] != R.shape[0]:
        raise DimensionMismatch(
            f"direction has length {u.shape[0]}, expected {R.shape[0]}"
        )
    seed_basis = matcore.krylov_span(R, u, rank_tol=rank_tol)
    frozen_basis = matcore.orth_complement(seed_basis)
    return ReducingSplit(
        frozen_basis=frozen_basis,
        seed_basis=seed_basis,
        frozen=matcore.compress(R, frozen_basis),
        active_seed=matcore.compress(R, seed_basis),
    )


def _unit_or_raise(u: np.ndarray, dim: int) -> np.ndarray:
    u = matcore._as_vector(u)
    if u.shape[0] != dim:
        raise DimensionMismatch(f"direction has length {u.shape[0]}, expected {dim}")
    nrm = np.linalg.norm(u)
    if abs(nrm - 1.0) > 1e-12:
        raise InvalidDirection(f"direction must be a unit vector, got norm {nrm!r}")
    return u


def _dichotomy(
    T: np.ndarray, w: np.ndarray, full_weight: bool, tol: float
) -> Tuple[identities.BlockCoordinates, str, str, np.ndarray]:
    """Decide the active-dimension-2 dichotomy for block ``T`` under weight ``w``.

    The split along ``e = w/|w|`` and the decoupling test are those of the
    certificates (:func:`identities.block_coordinates`,
    :func:`identities.is_decoupled`), so the classifiers, the tracker and the
    offline checks cannot disagree.  A decoupled block keeps its transverse
    part ``Q T Q``; any coupling drags the whole block to zero.  Returns the
    split, the kind, the rule and the predicted limit.
    """
    coords = identities.block_coordinates(T, w)
    decoupled = identities.is_decoupled(coords, matcore.opnorm(T), tol)
    kind, rule = _DIM2_OUTCOMES[full_weight, decoupled]
    limit = coords.transverse if decoupled else np.zeros((2, 2), dtype=np.complex128)
    return coords, kind, rule, limit


def classify_dim2_fullspace(R: np.ndarray, u: np.ndarray) -> ClassificationResult:
    """Classify the full-weight two-dimensional case.

    If the rank-one projection onto ``u`` commutes with ``R``, the limit is the
    compression of ``R`` to the complement of ``u``; otherwise the iteration
    collapses to zero.  ``R`` must be PSD (:class:`IndefiniteInput`
    otherwise), since the split along ``u`` takes its root.
    """
    R = matcore._as_matrix(R)
    if R.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got {R.shape}")
    u = _unit_or_raise(u, 2)
    coords, kind, rule, limit = _dichotomy(R, u, True, dynamics.COUPLING_TOL_DEFAULT)
    # For a unit u, [uu*, R] = u b* - b u*, whose norm is |b|.
    coupling = coords.coupling_norm
    return ClassificationResult(
        kind=kind,
        predicted_limit=limit,
        rule=rule,
        certificate={
            "tau": 1.0,
            "coupling": coupling,
            "commutator": coupling,
            "active_dim": 2.0,
        },
    )


def classify_active_dim2(
    T0: np.ndarray,
    u_E: np.ndarray,
    rank_tol: float = matcore.RANK_TOL_DEFAULT,
    coupling_tol: float = dynamics.COUPLING_TOL_DEFAULT,
) -> ClassificationResult:
    """Classify a strictly positive 2x2 block under a strict sub-unit weight.

    With ``e`` the normalized weight vector: a decoupled block keeps its
    transverse part forever while the weighted entry dies geometrically; any
    genuine coupling drags the whole block to zero.
    """
    T0 = matcore._as_matrix(T0)
    if T0.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 block, got {T0.shape}")
    u_E = matcore._as_vector(u_E)
    if u_E.shape[0] != 2:
        raise DimensionMismatch(f"weight vector has length {u_E.shape[0]}, expected 2")
    tau = float(np.linalg.norm(u_E) ** 2)
    if not (0.0 < tau < 1.0 - 1e-12):
        raise WeightOutOfRange(
            f"weight-squared must lie strictly between 0 and 1, got {tau!r}"
        )
    w = np.linalg.eigvalsh(matcore.hermitian_part(T0))
    if not identities.strictly_positive(w[0], w[-1], rank_tol):
        raise NotStrictlyPositive(
            f"block must be strictly positive, smallest eigenvalue {w[0]!r}"
        )
    coords, kind, rule, limit = _dichotomy(T0, u_E, False, coupling_tol)
    return ClassificationResult(
        kind=kind,
        predicted_limit=limit,
        rule=rule,
        certificate={
            "tau": tau,
            "coupling": coords.coupling_norm,
            "active_dim": 2.0,
            "defect_diag": coords.defect_diag,
            "transverse_diag": coords.transverse_trace,
        },
    )


def is_stationary(
    S: np.ndarray, u_E: np.ndarray, tol: float = 10.0 * dynamics.CONV_TOL_DEFAULT
) -> StationarityReport:
    """Evaluate the four equivalent fixed-point conditions for ``S``.

    All residuals are energy-normalized (quadratic in the matrix) and divided
    by ``max(1, opnorm(S))``, so a converged run's limit passes at a tolerance
    of ten times the convergence threshold regardless of the weight size.
    """
    S = matcore.hermitian_part(matcore._as_matrix(S))
    dim = S.shape[0]
    u_E = matcore._as_vector(u_E)
    if u_E.shape[0] != dim:
        raise DimensionMismatch(f"weight vector has length {u_E.shape[0]}, expected {dim}")
    scale = max(1.0, matcore.opnorm(S))
    wnorm = float(np.linalg.norm(u_E))
    if wnorm == 0.0:
        residuals = {"fixed_point": 0.0, "root_defect": 0.0, "defect": 0.0, "range": 0.0}
        return StationarityReport(passed=True, residuals=residuals, tol=tol)
    e = u_E / wnorm
    root = matcore.psd_sqrt(matcore.as_psd(S))
    v = root @ u_E
    Se = S @ e
    fixed_point = float(np.linalg.norm(v) ** 2) / scale
    root_defect = float(np.linalg.norm(root @ e) ** 2) / scale
    defect = float(np.linalg.norm(Se) ** 2) / scale**2
    # Rank-one complement projector: identical in value to the defect form,
    # kept as its own named condition.
    range_resid = float(matcore.opnorm(np.outer(e, e.conj()) @ S) ** 2) / scale**2
    residuals = {
        "fixed_point": fixed_point,
        "root_defect": root_defect,
        "defect": defect,
        "range": range_resid,
    }
    passed = all(val <= tol for val in residuals.values())
    return StationarityReport(passed=passed, residuals=residuals, tol=tol)


def _embed(split: ReducingSplit, seed_op: np.ndarray) -> np.ndarray:
    """Assemble an ambient matrix from the frozen part and a seed-space block."""
    M = split.frozen_basis
    K = split.seed_basis
    out = K @ seed_op @ K.conj().T
    if split.frozen_dim:
        out = out + M @ split.frozen @ M.conj().T
    return matcore.hermitian_part(out)


def analyze_instance(
    R: np.ndarray,
    u: np.ndarray,
    rank_tol: float = dynamics.RANK_TOL_DEFAULT,
    *,
    conv_tol: float = dynamics.CONV_TOL_DEFAULT,
    coupling_tol: float = dynamics.COUPLING_TOL_DEFAULT,
    max_iter: int = dynamics.MAX_ITER_DEFAULT,
    compute_residuals: bool = True,
) -> InstanceReport:
    """Run one iteration on the seed part and classify the eventual limit.

    Shares a single run between the limit prediction, the numerical limit
    estimate, and the stationarity certificate.
    """
    matcore.require_finite(R, u)
    R = matcore.as_psd(matcore._as_matrix(R), rank_tol=rank_tol)
    u = _unit_or_raise(u, R.shape[0])
    split = maximal_reducing_in_uperp(R, u, rank_tol=rank_tol)

    u_seed = split.seed_basis.conj().T @ u
    u_seed = u_seed / np.linalg.norm(u_seed)
    cfg = dynamics.WRConfig(
        split.active_seed,
        u_seed,
        rank_tol=rank_tol,
        conv_tol=conv_tol,
        coupling_tol=coupling_tol,
        max_iter=max_iter,
        compute_residuals=compute_residuals,
    )
    trace = dynamics.iterate(cfg)

    ambient_num = _embed(split, trace.limit_estimate)
    classification = _classify_seed(split, trace, u_seed, rank_tol, coupling_tol)
    classification.certificate = {
        "seed_dim": float(split.seed_dim),
        "frozen_dim": float(split.frozen_dim),
        "converged": 1.0 if trace.converged else 0.0,
        **classification.certificate,
    }
    classification.numerical_limit = ambient_num
    if classification.kind == KIND_UNKNOWN:
        classification.certificate.setdefault(
            "limit_rank", float(matcore.numerical_rank(ambient_num, rank_tol))
        )
        classification.certificate.setdefault(
            "limit_norm", float(matcore.opnorm(ambient_num))
        )

    stationarity = is_stationary(ambient_num, u, tol=10.0 * conv_tol)
    return InstanceReport(
        split=split,
        classification=classification,
        trace=trace,
        stationarity=stationarity,
    )


def _classify_seed(
    split: ReducingSplit,
    trace: dynamics.WRTrace,
    u_seed: np.ndarray,
    rank_tol: float,
    coupling_tol: float,
) -> ClassificationResult:
    """Apply the dimension-appropriate classifier to the stabilized block.

    A seed of dimension at most 2 is its own active block under full weight;
    a larger seed is classified through the block its run stabilized on.
    """
    kdim = split.seed_dim
    if kdim <= 2:
        block, w, tau = split.active_seed, u_seed, 1.0
        lift = lambda op: op  # noqa: E731
    else:
        active = trace.active
        if active is None:
            return ClassificationResult(
                kind=KIND_UNKNOWN,
                predicted_limit=None,
                rule="no-stabilization-detected",
                certificate={},
            )
        block, w, tau = active.block, active.weight_vector, float(active.tau)
        lift = lambda op: active.basis @ op @ active.basis.conj().T  # noqa: E731
    edim = block.shape[0]

    if tau <= rank_tol:
        # The weight has no overlap with the surviving support; the block is
        # already stationary and persists unchanged.
        cert = {"tau": tau, "coupling": 0.0, "active_dim": float(edim)}
        return ClassificationResult(
            kind=KIND_COMMUTING_COMPRESSION,
            predicted_limit=_embed(split, lift(block)),
            rule="vanishing-weight-stationary",
            certificate=cert,
        )

    if edim == 1:
        # Scalar block under nonzero weight dies geometrically.
        cert = {"tau": tau, "coupling": 0.0, "active_dim": 1.0}
        return ClassificationResult(
            kind=KIND_COMMUTING_COMPRESSION,
            predicted_limit=_embed(split, np.zeros((kdim, kdim), dtype=np.complex128)),
            rule="commuting-compression",
            certificate=cert,
        )

    if edim == 2:
        if tau >= _FULL_WEIGHT_CUT:
            sub = classify_dim2_fullspace(block, w / np.linalg.norm(w))
        else:
            sub = classify_active_dim2(
                block, w, rank_tol=rank_tol, coupling_tol=coupling_tol
            )
        sub.predicted_limit = _embed(split, lift(sub.predicted_limit))
        return sub

    cert = {"tau": tau, "active_dim": float(edim)}
    return ClassificationResult(
        kind=KIND_UNKNOWN,
        predicted_limit=None,
        rule="higher-dim-selection-open",
        certificate=cert,
    )


def predict_limit(
    R: np.ndarray,
    u: np.ndarray,
    rank_tol: float = dynamics.RANK_TOL_DEFAULT,
    *,
    conv_tol: float = dynamics.CONV_TOL_DEFAULT,
    coupling_tol: float = dynamics.COUPLING_TOL_DEFAULT,
    max_iter: int = dynamics.MAX_ITER_DEFAULT,
) -> ClassificationResult:
    """Predict the limit of the iteration started at ``(R, u)``.

    Splits off the frozen invariant part, stabilizes the active support by
    iterating, and applies the classifier matching the active dimension.
    Coupled active dimension three or more is reported as ``Unknown`` with the
    numerical estimate attached.
    """
    report = analyze_instance(
        R,
        u,
        rank_tol,
        conv_tol=conv_tol,
        coupling_tol=coupling_tol,
        max_iter=max_iter,
    )
    return report.classification
