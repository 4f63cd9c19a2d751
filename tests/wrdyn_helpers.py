"""Shared generators for the test suite."""

from __future__ import annotations

import numpy as np


def canonical_block() -> np.ndarray:
    """The 2x2 strictly positive coupled block [[1,1],[1,2]] used across the suite."""
    return np.array([[1.0, 1.0], [1.0, 2.0]], dtype=np.complex128)


def canonical_instance() -> tuple[np.ndarray, np.ndarray]:
    """3-dim instance: zero line + canonical block, direction mixing kernel and block.

    The iterate starts with a one-dimensional kernel, the direction splits its
    weight evenly between the kernel and the block's first coordinate, so the
    support is already stabilized with weight 1/2.
    """
    R = np.zeros((3, 3), dtype=np.complex128)
    R[1:, 1:] = canonical_block()
    u = np.zeros(3, dtype=np.complex128)
    u[0] = 1.0 / np.sqrt(2.0)
    u[1] = 1.0 / np.sqrt(2.0)
    return R, u


def random_unit(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_psd(dim: int, rng: np.random.Generator, cond_floor: float = 0.0) -> np.ndarray:
    """Random strictly positive matrix; `cond_floor` adds a multiple of the identity."""
    G = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    S = G @ G.conj().T
    S = S / np.linalg.norm(S, 2)
    if cond_floor > 0.0:
        S = S + cond_floor * np.eye(dim)
        S = S / np.linalg.norm(S, 2)
    return S


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
