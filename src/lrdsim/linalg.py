"""Minimal dense linear algebra on float64 matrices.

`as_matrix`, `svd` and `frobenius_norm` take one matrix, a 2-D float64
array, and check at that boundary that its entries are finite, naming
the offending index on failure. `clip_frobenius` also takes a stack of
matrices, `(..., p, q)`, and clips each on its own.

The SVD is LAPACK's divide-and-conquer gesdd (through numpy) with a
fixed sign convention, so results are bit-identical for identical input
on the same machine and BLAS build. Target sizes are small
(p, q <= 1024); no attempt is made at randomized algorithms.
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(ValueError):
    """Raised when a matrix contains NaN or Inf entries."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {arr.shape}")
    finite = np.isfinite(arr)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise NonFiniteError(f"{name} has non-finite entry {arr[idx]!r} at index {idx}")
    return np.ascontiguousarray(arr)


def svd(a) -> tuple[np.ndarray, np.ndarray]:
    """Thin SVD via LAPACK (gesdd, through numpy): U and the singular values.

    For a (p, q) input with k = min(p, q), U is (p, k) and
    column-orthonormal, also for columns whose singular value is exactly
    zero, and S is (k,), descending and non-negative. Each U column is
    flipped so that its largest-magnitude entry is positive (lowest row
    wins ties). Results are bit-identical for identical input on the same
    machine and BLAS build.
    """
    a = as_matrix(a, "svd input")
    u, s, _vt = np.linalg.svd(a, full_matrices=False)
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return u * np.where(lead < 0.0, -1.0, 1.0), s


def frobenius_norm(a) -> float:
    a = as_matrix(a, "frobenius_norm input")
    return float(np.sqrt(np.sum(a * a)))


def clip_frobenius(g, radius: float, out=None) -> np.ndarray:
    """Scale `g` onto the Frobenius ball of the given radius if it lies outside.

    Each trailing 2-D matrix is clipped on its own; its norm is one
    pairwise sum over its entries' squares, as `np.sum` takes over a
    C-contiguous matrix. The result goes to `out` when given (which may
    be `g` itself).
    """
    if radius <= 0:
        raise ValueError(f"clip radius must be positive, got {radius}")
    g = np.asarray(g, dtype=np.float64)
    lead = g.shape[:-2]
    norm = np.sqrt(np.add.reduce(np.square(g).reshape(lead + (-1,)), axis=-1)).reshape(lead + (1, 1))
    # radius / max(norm, radius) is exactly 1 inside the ball
    return np.multiply(g, radius / np.maximum(norm, radius), out=out)
