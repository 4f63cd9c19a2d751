"""Dense Hermitian/PSD linear-algebra kernels.

Everything here works on plain numpy arrays (complex128). Conventions used
throughout the package:

- eigenvalues are returned in ascending order;
- eigenvectors are phase-fixed so the first nonzero component is real positive;
- rank/range thresholds are relative: an eigenvalue counts as nonzero when it
  exceeds ``rank_tol * max(1, lambda_max)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndefiniteInput,
    NonFiniteInput,
    NonHermitianInput,
    ZeroVector,
)

RANK_TOL_DEFAULT = 1e-10


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def _as_vector(v) -> np.ndarray:
    x = np.asarray(v, dtype=np.complex128)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {x.shape}")
    return x


def require_finite(*arrays) -> None:
    """Reject input holding a NaN or infinite entry."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise NonFiniteInput("input has a NaN or infinite entry")


def hermitian_part(M) -> np.ndarray:
    """Orthogonal projection onto the Hermitian matrices."""
    A = _as_matrix(M)
    return (A + A.conj().T) / 2


def require_hermitian(M, tol: float = 1e-8) -> np.ndarray:
    """Return the hermitized matrix, rejecting inputs that are not close to Hermitian.

    The deviation ``||M - M*|| / max(1, ||M||)`` (Frobenius) must be at most
    ``tol``, otherwise :class:`NonHermitianInput` is raised.
    """
    A = _as_matrix(M)
    dev = np.linalg.norm(A - A.conj().T)
    if dev > tol * max(1.0, np.linalg.norm(A)):
        raise NonHermitianInput(f"Hermitian deviation {dev:.3e} exceeds tolerance")
    return hermitian_part(A)


@dataclass
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` ascend; column ``vectors[:, i]`` belongs to
    ``eigenvalues[i]`` and has its first nonzero component real positive.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.vectors
        return (V * self.eigenvalues) @ V.conj().T


def _fix_phases(V: np.ndarray) -> np.ndarray:
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


def eigh(H) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with a deterministic phase gauge."""
    A = _as_matrix(H)
    w, V = np.linalg.eigh(A)
    return EigenDecomposition(eigenvalues=w, vectors=_fix_phases(V))


def as_psd(H, rank_tol: float = RANK_TOL_DEFAULT) -> np.ndarray:
    """Clamp a Hermitian matrix onto the PSD cone.

    Eigenvalues in ``[-rank_tol * max(1, lambda_max), 0)`` are treated as
    roundoff and clamped to zero; anything below that band raises
    :class:`IndefiniteInput`.
    """
    A = hermitian_part(H)
    w, V = np.linalg.eigh(A)
    lam_max = w[-1] if w.size else 0.0
    floor = -rank_tol * max(1.0, lam_max)
    if w.size and w[0] < floor:
        raise IndefiniteInput(
            f"eigenvalue {w[0]:.3e} below clamp tolerance {floor:.3e}"
        )
    if w.size and w[0] >= 0.0:
        return A
    w = np.clip(w, 0.0, None)
    return hermitian_part((V * w) @ V.conj().T)


def _is_entrywise_diagonal(A: np.ndarray) -> bool:
    off = A.copy()
    np.fill_diagonal(off, 0.0)
    return not off.any()


def psd_sqrt(S, rank_tol: float = RANK_TOL_DEFAULT) -> np.ndarray:
    """Principal square root of a PSD matrix via its spectrum.

    Exactly diagonal input returns ``diag(sqrt(diagonal))`` without an
    eigensolver call, so diagonal matrices evolve reproducibly entry by entry.
    Negative eigenvalues inside the clamp band are squashed to zero; below the
    band the input is rejected as indefinite.
    """
    A = _as_matrix(S)
    if _is_entrywise_diagonal(A):
        d = A.diagonal().real
        lam_max = d.max() if d.size else 0.0
        if d.size and d.min() < -rank_tol * max(1.0, lam_max):
            raise IndefiniteInput(f"diagonal entry {d.min():.3e} is negative")
        return np.diag(np.sqrt(np.clip(d, 0.0, None)).astype(np.complex128))
    w, V = np.linalg.eigh(hermitian_part(A))
    lam_max = w[-1] if w.size else 0.0
    if w.size and w[0] < -rank_tol * max(1.0, lam_max):
        raise IndefiniteInput(f"eigenvalue {w[0]:.3e} is negative beyond tolerance")
    root = np.sqrt(np.clip(w, 0.0, None))
    return hermitian_part((V * root) @ V.conj().T)


def sqrt2x2(M) -> np.ndarray:
    """Closed-form square root of a 2x2 PSD matrix.

    Uses ``(M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M))``. The zero matrix
    is returned unchanged by convention. This is an independent route from
    :func:`psd_sqrt` and is kept formula-only on purpose.
    """
    A = _as_matrix(M)
    if A.shape != (2, 2):
        raise DimensionMismatch(f"sqrt2x2 needs a 2x2 matrix, got {A.shape}")
    if not A.any():
        return np.zeros((2, 2), dtype=np.complex128)
    tr = A.trace().real
    det = np.linalg.det(A).real
    if det < 0.0:
        det = 0.0
    if tr <= 0.0:
        raise IndefiniteInput("2x2 input has nonpositive trace but is nonzero")
    den = np.sqrt(tr + 2.0 * np.sqrt(det))
    return (A + np.sqrt(det) * np.eye(2)) / den


def numerical_rank(S, rank_tol: float = RANK_TOL_DEFAULT) -> int:
    """Number of eigenvalues above the relative threshold."""
    w = np.linalg.eigvalsh(hermitian_part(S))
    if not w.size:
        return 0
    thresh = rank_tol * max(1.0, w[-1])
    return int(np.count_nonzero(w > thresh))


def range_basis(S, rank_tol: float = RANK_TOL_DEFAULT) -> np.ndarray:
    """Orthonormal basis of the numerical range, largest eigenvalue first.

    Returns an ``(n, r)`` array whose columns follow the package phase gauge.
    """
    dec = eigh(hermitian_part(S))
    w = dec.eigenvalues
    lam_max = w[-1] if w.size else 0.0
    thresh = rank_tol * max(1.0, lam_max)
    keep = np.flatnonzero(w > thresh)
    return dec.vectors[:, keep[::-1]]


def compress(S, B) -> np.ndarray:
    """Compression ``B* S B`` of ``S`` to the subspace spanned by the columns of ``B``."""
    A = _as_matrix(S)
    Bm = np.asarray(B, dtype=np.complex128)
    if Bm.ndim != 2 or Bm.shape[0] != A.shape[0]:
        raise DimensionMismatch(
            f"basis shape {Bm.shape} does not match matrix dimension {A.shape[0]}"
        )
    return hermitian_part(Bm.conj().T @ A @ Bm)


def opnorm(M) -> float:
    """Spectral norm (largest singular value); accepts rectangular input."""
    A = np.asarray(M, dtype=np.complex128)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def loewner_leq(A, B, tol: float = RANK_TOL_DEFAULT) -> bool:
    """Whether ``A <= B`` in the PSD order up to ``tol * max(1, ||B||)``."""
    D = hermitian_part(_as_matrix(B) - _as_matrix(A))
    w = np.linalg.eigvalsh(D)
    floor = -tol * max(1.0, opnorm(B))
    return bool(w.size == 0 or w[0] >= floor)


def krylov_span(S, v, rank_tol: float = RANK_TOL_DEFAULT) -> np.ndarray:
    """Orthonormal basis of ``span{v, Sv, S^2 v, ...}``.

    Gram-Schmidt with one re-orthogonalization pass; a new direction is
    deflated (and the expansion stops) once its residual norm falls to
    ``rank_tol * max(1, ||S||)``.
    """
    A = _as_matrix(S)
    x = _as_vector(v)
    if x.shape[0] != A.shape[0]:
        raise DimensionMismatch("vector length does not match matrix dimension")
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ZeroVector("cannot span from the zero vector")
    scale = max(1.0, opnorm(A))
    basis = [x / nrm]
    while len(basis) < A.shape[0]:
        w = A @ basis[-1]
        for _ in range(2):
            for q in basis:
                w = w - q * np.vdot(q, w)
        res = np.linalg.norm(w)
        if res <= rank_tol * scale:
            break
        basis.append(w / res)
    return np.column_stack(basis)


def orth_complement(B) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``span(columns of B)``."""
    Bm = np.asarray(B, dtype=np.complex128)
    if Bm.ndim != 2:
        raise DimensionMismatch("expected a 2-d basis array")
    n, k = Bm.shape
    if k == 0:
        return np.eye(n, dtype=np.complex128)
    U = np.linalg.svd(Bm, full_matrices=True)[0]
    return U[:, k:]


def subspace_sine(B1, B2) -> float:
    """Sine of the largest principal angle between two spanned subspaces.

    Bases must be orthonormal-column arrays. Differing column counts give 1.0
    (maximally misaligned by convention).
    """
    A1 = np.asarray(B1, dtype=np.complex128)
    A2 = np.asarray(B2, dtype=np.complex128)
    if A1.shape[1] != A2.shape[1]:
        return 1.0
    if A1.shape[1] == 0:
        return 0.0
    s = np.linalg.svd(A1.conj().T @ A2, compute_uv=False)
    smin = float(np.clip(s.min(), 0.0, 1.0))
    return float(np.sqrt(max(0.0, 1.0 - smin * smin)))
