"""Scalar shadow recursions for two-dimensional active blocks.

When the active block of a weighted-residual run is 2x2, three scale-free
quantities close on themselves and can be iterated without any linear
algebra: the coupling ratio ``|b| / d`` (off-diagonal over transverse
diagonal), the root-determinant ratio ``sqrt(det) / d``, and the transverse
diagonal ``d`` itself.  This module provides two independent scalar
engines — one specialised to the balanced half weight, one for a general
weight — plus a cross-validator that checks a matrix-engine trace against a
scalar trace step by step.

The two engines deliberately do not share code: their agreement at the
balanced weight is itself a consistency check exercised by the test suite.

Determinant caveat: the matrix engine computes the block determinant from
eigenvalues of the running 2x2 block, so its relative error grows like
``eps * trace(T)^2 / det(T)``.  Once the determinant-to-trace-squared ratio
falls below :data:`DET_TRUST_RATIO`, the matrix determinant no longer
resolves the true value to the comparison tolerance and root-determinant
comparisons are skipped (reported via ``det_steps_compared``).  The
coupling ratio and transverse diagonal stay well conditioned throughout and
are compared at every aligned step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import IncompatibleTraces, InvalidStart, NumericalBreakdown

__all__ = [
    "SEQ_COUPLING",
    "SEQ_ROOT_DET",
    "SEQ_TRANSVERSE",
    "KIND_HALF_WEIGHT",
    "KIND_GENERAL_WEIGHT",
    "DET_TRUST_RATIO",
    "WEIGHT_MATCH_TOL",
    "ScalarTrace",
    "ValidationReport",
    "half_weight_recursion",
    "general_weight_recursion",
    "cross_validate",
    "det_trusted",
]

SEQ_COUPLING = "coupling_ratio"
SEQ_ROOT_DET = "root_det_ratio"
SEQ_TRANSVERSE = "transverse_diag"

KIND_HALF_WEIGHT = "half-weight"
KIND_GENERAL_WEIGHT = "general-weight"

# Below this determinant-to-trace-squared ratio the matrix-side block
# determinant carries more than ~1e-11 relative rounding error in double
# precision (measured on the balanced-weight reference run: the ratio decays
# geometrically while the error grows like eps / ratio), so determinant
# comparisons at a 1e-10 tolerance stop being meaningful.
DET_TRUST_RATIO = 2.5e-7

# Two traces describe the same dynamics only if their weights agree to
# well below any tolerance used for value comparison.
WEIGHT_MATCH_TOL = 1e-12

_SEQ_ORDER = (SEQ_COUPLING, SEQ_ROOT_DET, SEQ_TRANSVERSE)


@dataclass(frozen=True)
class ScalarTrace:
    """Output of a scalar recursion: one list per tracked quantity.

    ``sequences`` maps each of :data:`SEQ_COUPLING`, :data:`SEQ_ROOT_DET`
    and :data:`SEQ_TRANSVERSE` to a list of ``steps + 1`` floats (index 0 is
    the starting value).  ``params`` records the weight data the recursion
    was run with (``tau`` and ``rho = 1 - tau``).
    """

    kind: str
    sequences: Dict[str, List[float]] = field(default_factory=dict)
    params: Dict[str, float] = field(default_factory=dict)

    @property
    def coupling_ratio(self) -> List[float]:
        return self.sequences[SEQ_COUPLING]

    @property
    def root_det_ratio(self) -> List[float]:
        return self.sequences[SEQ_ROOT_DET]

    @property
    def transverse_diag(self) -> List[float]:
        return self.sequences[SEQ_TRANSVERSE]

    @property
    def steps(self) -> int:
        return len(self.sequences[SEQ_TRANSVERSE]) - 1


@dataclass(frozen=True)
class ValidationReport:
    """Result of comparing a matrix trace against a scalar trace.

    ``max_errors`` holds the largest relative discrepancy seen per quantity
    (0.0 when nothing was compared for that quantity).  ``first_failure``
    is ``(scalar_step, quantity)`` for the earliest comparison exceeding
    ``tol``, or ``None`` when everything passed.  ``det_steps_compared``
    counts how many root-determinant comparisons fell inside the
    determinant trust window.
    """

    passed: bool
    max_errors: Dict[str, float]
    first_failure: Optional[Tuple[int, str]]
    steps_compared: int
    det_steps_compared: int
    tol: float

    def __bool__(self) -> bool:
        return self.passed


def _validate_start(coupling0: float, root_det0: float, transverse0: float) -> None:
    for name, value in (
        (SEQ_COUPLING, coupling0),
        (SEQ_ROOT_DET, root_det0),
        (SEQ_TRANSVERSE, transverse0),
    ):
        if not math.isfinite(value):
            raise InvalidStart(f"{name} start must be finite, got {value!r}")
    if coupling0 < 0.0:
        raise InvalidStart(f"coupling ratio start must be >= 0, got {coupling0}")
    if root_det0 < 0.0:
        raise InvalidStart(f"root-determinant ratio start must be >= 0, got {root_det0}")
    if transverse0 <= 0.0:
        raise InvalidStart(f"transverse diagonal start must be > 0, got {transverse0}")


def _validate_steps(steps: int) -> None:
    if steps < 0:
        raise InvalidStart(f"step count must be >= 0, got {steps}")


def _guard_finite(kind: str, n: int, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise NumericalBreakdown(f"{kind} recursion produced a non-finite value at step {n}")


def half_weight_recursion(
    coupling_ratio0: float,
    root_det_ratio0: float,
    transverse0: float,
    steps: int,
) -> ScalarTrace:
    """Iterate the balanced-weight (tau = 1/2) scalar recursion.

    With ``y`` the coupling ratio, ``z`` the root-determinant ratio and
    ``d`` the transverse diagonal, one step maps::

        D  = y^2 + 2 z^2 + 4 z + 2
        y' = y (y^2 + z^2 + 3 z + 2) / D
        z' = sqrt(2) z (y^2 + z^2 + 2 z + 1) / D
        d' = d D / (2 (y^2 + z^2 + 2 z + 1))

    Starting data must satisfy ``y >= 0``, ``z >= 0``, ``d > 0``.
    """
    _validate_start(coupling_ratio0, root_det_ratio0, transverse0)
    _validate_steps(steps)
    y, z, d = float(coupling_ratio0), float(root_det_ratio0), float(transverse0)
    ys, zs, ds = [y], [z], [d]
    root2 = math.sqrt(2.0)
    for n in range(steps):
        y2, z2 = y * y, z * z
        denom = y2 + 2.0 * z2 + 4.0 * z + 2.0
        mixed = y2 + z2 + 2.0 * z + 1.0
        y, z, d = (
            y * (y2 + z2 + 3.0 * z + 2.0) / denom,
            root2 * z * mixed / denom,
            d * denom / (2.0 * mixed),
        )
        _guard_finite(KIND_HALF_WEIGHT, n + 1, y, z, d)
        ys.append(y)
        zs.append(z)
        ds.append(d)
    return ScalarTrace(
        kind=KIND_HALF_WEIGHT,
        sequences={SEQ_COUPLING: ys, SEQ_ROOT_DET: zs, SEQ_TRANSVERSE: ds},
        params={"tau": 0.5, "rho": 0.5},
    )


def general_weight_recursion(
    coupling_ratio0: float,
    root_det_ratio0: float,
    transverse0: float,
    rho: float,
    steps: int,
) -> ScalarTrace:
    """Iterate the general-weight scalar recursion with survival factor rho.

    With ``xi`` the coupling ratio, ``zeta`` the root-determinant ratio,
    ``d`` the transverse diagonal and ``tau = 1 - rho``, one step maps::

        xi' = xi (1 - tau zeta (zeta + 1) / (rho xi^2 + (zeta + 1)^2))
        d'  = d (rho xi^2 + (zeta + 1)^2) / (xi^2 + (zeta + 1)^2)

    while the root-determinant ratio follows the closed form
    ``zeta_n = rho^(n/2) zeta_0 d_0 / d_n`` (the determinant itself shrinks
    by exactly ``rho`` per step, so only ``d`` needs iterating).

    ``rho`` must lie strictly inside (0, 1); starting data must satisfy
    ``xi >= 0``, ``zeta >= 0``, ``d > 0``.
    """
    if not (0.0 < rho < 1.0):
        raise InvalidStart(f"survival factor must lie in (0, 1), got {rho}")
    _validate_start(coupling_ratio0, root_det_ratio0, transverse0)
    _validate_steps(steps)
    tau = 1.0 - rho
    xi, d = float(coupling_ratio0), float(transverse0)
    zeta0, d0 = float(root_det_ratio0), float(transverse0)
    xis, zetas, ds = [xi], [zeta0], [d]
    zeta = zeta0
    for n in range(steps):
        shifted = zeta + 1.0
        denom = rho * xi * xi + shifted * shifted
        xi_next = xi * (1.0 - tau * zeta * shifted / denom)
        d = d * denom / (xi * xi + shifted * shifted)
        xi = xi_next
        zeta = math.pow(rho, 0.5 * (n + 1)) * zeta0 * d0 / d
        _guard_finite(KIND_GENERAL_WEIGHT, n + 1, xi, zeta, d)
        xis.append(xi)
        zetas.append(zeta)
        ds.append(d)
    return ScalarTrace(
        kind=KIND_GENERAL_WEIGHT,
        sequences={SEQ_COUPLING: xis, SEQ_ROOT_DET: zetas, SEQ_TRANSVERSE: ds},
        params={"tau": tau, "rho": rho},
    )


def _relative_error(matrix_value: float, scalar_value: float) -> float:
    if scalar_value != 0.0:
        return abs(matrix_value - scalar_value) / abs(scalar_value)
    return abs(matrix_value)


def det_trusted(record) -> bool:
    """Determinant trust test on a record's block: det / tr^2 >= DET_TRUST_RATIO."""
    coords = record.block_coords
    block_trace = coords.defect_diag + coords.transverse_trace
    det = record.block_det if record.block_det is not None else 0.0
    return block_trace > 0.0 and det / (block_trace * block_trace) >= DET_TRUST_RATIO


def cross_validate(trace, scalar: ScalarTrace, tol: float = 1e-10) -> ValidationReport:
    """Compare a matrix-engine trace against a scalar trace step by step.

    ``trace`` must be a matrix run whose stabilized active block is
    two-dimensional; scalar step ``k`` is aligned with matrix record
    ``trace.active.start + k``.  The coupling ratio and transverse diagonal
    are compared at every aligned step; root-determinant comparisons are
    restricted to the determinant trust window (see module docstring).

    Raises :class:`IncompatibleTraces` when the matrix trace has no
    stabilized active block, the block is not two-dimensional, or the
    weights of the two traces disagree beyond :data:`WEIGHT_MATCH_TOL`.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    active = getattr(trace, "active", None)
    if active is None:
        raise IncompatibleTraces("matrix trace has no stabilized active block")
    block_dim = active.basis.shape[1]
    if block_dim != 2:
        raise IncompatibleTraces(
            f"scalar recursions describe a two-dimensional active block, got dimension {block_dim}"
        )
    scalar_tau = scalar.params.get("tau")
    if scalar_tau is None:
        raise IncompatibleTraces("scalar trace does not record its weight")
    if abs(active.tau - scalar_tau) > WEIGHT_MATCH_TOL:
        raise IncompatibleTraces(
            f"weight mismatch: matrix trace has tau={active.tau!r}, "
            f"scalar trace has tau={scalar_tau!r}"
        )

    matrix_records = [
        r for r in trace.records[active.start :] if r.block_coords is not None
    ]
    n_compare = min(len(matrix_records), scalar.steps + 1)

    max_errors = {name: 0.0 for name in _SEQ_ORDER}
    first_failure: Optional[Tuple[int, str]] = None
    det_steps = 0

    for k in range(n_compare):
        record = matrix_records[k]
        coords = record.block_coords
        d_mat = coords.transverse_trace

        comparisons = [
            (SEQ_COUPLING, coords.coupling_norm / d_mat, scalar.coupling_ratio[k]),
            (SEQ_TRANSVERSE, d_mat, scalar.transverse_diag[k]),
        ]
        if det_trusted(record):
            det_steps += 1
            comparisons.insert(
                1,
                (
                    SEQ_ROOT_DET,
                    math.sqrt(record.block_det) / d_mat,
                    scalar.root_det_ratio[k],
                ),
            )
        for name, matrix_value, scalar_value in comparisons:
            err = _relative_error(matrix_value, scalar_value)
            if err > max_errors[name]:
                max_errors[name] = err
            if err > tol and first_failure is None:
                first_failure = (k, name)

    return ValidationReport(
        passed=first_failure is None,
        max_errors=max_errors,
        first_failure=first_failure,
        steps_compared=n_compare,
        det_steps_compared=det_steps,
        tol=tol,
    )
