"""Truncated projection bases, moment rotation, and subspace diagnostics.

A basis is a column-orthonormal (p, r) array Q mapping full-rank
gradients into a rank-r subspace (g = Q^T G) and back (Q g). New bases
come from the thin SVD of a signal matrix; moments are re-expressed in
the new basis through the rotation R = Q_new^T Q_old, and the subspace
diagnostics (MSSV, sin-theta) of a refresh derive from that same R.
Arguments are not re-checked: `config.validate` owns the run-setting
rules and the engine fixes the shapes.
"""

from __future__ import annotations

import warnings

import numpy as np

from .linalg import frobenius_norm, svd

ORTHO_TOL = 1e-10


class DegenerateSignalError(ValueError):
    """Signal is zero or rank-deficient below the requested rank."""


def _orthonormal(q: np.ndarray) -> np.ndarray:
    """Return `q` after checking ||Q^T Q - I||_F <= ORTHO_TOL."""
    err = np.linalg.norm(q.T @ q - np.eye(q.shape[1]))
    if err > ORTHO_TOL:
        raise ValueError(f"basis is not orthonormal (deviation {err:.2e})")
    return q


def projection_with_spectrum(signal, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """First `rank` left singular vectors of the signal, and its singular values.

    `svd` validates the signal. Raises DegenerateSignalError when the
    signal is zero or its rank is numerically below the requested rank;
    callers keep the previous basis in that case.
    """
    res = svd(signal)
    if res.s[0] == 0.0 or res.s[rank - 1] <= 1e-12 * res.s[0]:
        raise DegenerateSignalError(
            f"degenerate signal: singular value {rank} is {res.s[rank - 1]:.3e} "
            f"against leading {res.s[0]:.3e}"
        )
    return _orthonormal(np.ascontiguousarray(res.u[:, :rank])), res.s


def random_projection(p: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded Gaussian (p, rank) basis orthonormalized by (twice-applied) Gram-Schmidt."""
    raw = rng.standard_normal((p, rank))
    return _orthonormal(_gram_schmidt(raw))


def identity_projection(p: int, rank: int) -> np.ndarray:
    """The first `rank` columns of the p x p identity."""
    return np.eye(p, rank)


def _gram_schmidt(a: np.ndarray) -> np.ndarray:
    q = np.array(a, dtype=np.float64)
    for j in range(q.shape[1]):
        for _ in range(2):
            q[:, j] -= q[:, :j] @ (q[:, :j].T @ q[:, j])
        nrm = np.linalg.norm(q[:, j])
        if nrm < 1e-300:
            raise ValueError("Gram-Schmidt hit a numerically dependent column")
        q[:, j] /= nrm
    return q


def rotation_matrix(q_new: np.ndarray, q_old: np.ndarray) -> np.ndarray:
    """R = Q_new^T Q_old; singular values lie in [0, 1]."""
    return q_new.T @ q_old


def mssv(r_mat) -> float:
    """Mean squared singular value of a rotation matrix: ||R||_F^2 / r."""
    return frobenius_norm(r_mat) ** 2 / np.shape(r_mat)[0]


def stable_rank(s) -> float:
    """||A||_F^2 / sigma_1^2 from A's descending singular values; a zero spectrum reports 0 with a warning."""
    s = np.asarray(s, dtype=np.float64)
    if s[0] == 0.0:
        warnings.warn("stable_rank of a zero matrix is reported as 0", RuntimeWarning, stacklevel=2)
        return 0.0
    return float(np.sum(s * s) / (s[0] * s[0]))


def spectral_gap(s, rank: int) -> float:
    """sigma_r - sigma_{r+1} for a descending singular value array (1-based r)."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("singular values must be a 1-D array")
    if not (1 <= rank < s.size):
        raise ValueError(f"rank {rank} needs at least {rank + 1} singular values, got {s.size}")
    return float(s[rank - 1] - s[rank])


def sin_theta_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """Frobenius sin-theta distance sqrt(r - ||Q1^T Q2||_F^2) in [0, sqrt(r)]."""
    return _sin_theta(q1, q2, rotation_matrix(q1, q2))


def _sin_theta(q1: np.ndarray, q2: np.ndarray, r_mat: np.ndarray) -> float:
    """Sin-theta distance given R = Q1^T Q2.

    Evaluated as ||Q2 - Q1 R||_F = ||(I - Q1 Q1^T) Q2||_F, which equals
    the subtracted form exactly for orthonormal bases but stays accurate
    near zero.
    """
    return min(frobenius_norm(q2 - q1 @ r_mat), float(np.sqrt(q1.shape[1])))


def rotate_first_moment(r_mat, u) -> np.ndarray:
    """R u; `u` may carry leading batch axes."""
    return r_mat @ u


def rotate_second_moment(r_mat, u, v, beta1: float, beta2: float, step: int) -> np.ndarray:
    """Re-express the second moment in a new basis.

    Uses the variance-propagation rule for a linear map under an
    independent-coordinates assumption: with bias-corrected
    uh = u/(1-beta1^t) and vh = v/(1-beta2^t),

        (1 - beta2^t) * | (R o R)(vh - uh o uh) + (R uh) o (R uh) |

    where (R o R) is the entrywise-squared rotation applied by matrix
    multiplication. Output is entrywise non-negative. `u` and `v` may
    carry leading batch axes.
    """
    cu = 1.0 - beta1**step
    cv = 1.0 - beta2**step
    uh = u / cu
    vh = v / cv
    rub = r_mat @ uh
    mixed = (r_mat * r_mat) @ (vh - uh * uh) + rub * rub
    return cv * np.abs(mixed)


def subspace_metrics_from_update(
    q_new: np.ndarray, q_old: np.ndarray, r_mat: np.ndarray, spectrum: np.ndarray
) -> dict:
    """The log's subspace entry for a basis update: mssv, sin_theta, stable_rank, spectral_gap.

    `r_mat` is the update's rotation R = Q_new^T Q_old, from which MSSV
    and sin-theta both derive; the spectrum gives stable rank and gap.
    """
    r = q_new.shape[1]
    return {
        "mssv": mssv(r_mat),
        "stable_rank": stable_rank(spectrum),
        "spectral_gap": spectral_gap(spectrum, r) if r < spectrum.size else 0.0,
        "sin_theta": _sin_theta(q_new, q_old, r_mat),
    }
