"""Per-tensor low-rank Adam kernel with error feedback and QHM branches.

The kernel keeps first/second moments in a rank-r basis, compresses
gradients through the current basis with an error-feedback buffer,
and forms updates in one of three quasi-hyperbolic flavors:

  none      Q (uh / (sqrt(vh) + eps))
  low_rank  Q ((omega uh + (1-omega) g) / (sqrt(vh) + eps))
  full_rank (1-omega) G / mu(sqrt(vh) + eps) + omega Q (uh / (sqrt(vh) + eps))

where hats are bias-corrected moments and mu() averages the denominator
over the r rows, one mean per column.

The kernels take plain arrays; the caller owns the moments and passes the
count t >= 1 of moment updates so far, for the bias correction 1 - beta^t.
Hyperparameters come as a `config.HyperConfig`, with QHM's omega beside
them. Arguments are not re-checked: the config schema and
`config.from_dict` own the run-setting rules, the engine fixes the shapes.
The textbook full-rank Adam step that the exact-degeneracy checks compare
against is a test oracle (`tests/oracles.py`), not part of the simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

# unused here, but kept: the benchmark's tracer rebinds `lrdsim.optimizer.as_matrix`,
# and its self-test and tests/test_bench_tracer.py read that binding
from .linalg import as_matrix  # noqa: F401

if TYPE_CHECKING:  # config imports this module's constants
    from .config import HyperConfig

QHM_NONE = "none"
QHM_LOW_RANK = "low_rank"
QHM_FULL_RANK = "full_rank"
QHM_MODES = (QHM_NONE, QHM_LOW_RANK, QHM_FULL_RANK)


def compress_gradient(
    grad: np.ndarray, error: np.ndarray, basis: np.ndarray, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Project grad + error into `basis` (p x r); return (g, new_error).

    The reconstruction identity grad + error == basis g + new_error holds
    by construction (the residual is computed from the same sum).
    `new_error` is written into `out` when given (which may be `error`).
    """
    carried = np.add(grad, error, out=out)
    g = basis.T @ carried
    carried -= basis @ g
    return g, carried


def update_moments(u: np.ndarray, v: np.ndarray, g: np.ndarray, beta1: float, beta2: float) -> None:
    """EMA update in place, over any leading worker axis: u = beta1 u + (1-beta1) g, v = beta2 v + (1-beta2) g^2."""
    u *= beta1
    u += (1.0 - beta1) * g
    sq = np.square(g)
    sq *= 1.0 - beta2
    v *= beta2
    v += sq


def compute_update(
    u: np.ndarray,
    v: np.ndarray,
    basis: np.ndarray,
    t: int,
    grad: np.ndarray,
    g: np.ndarray,
    mode: str,
    hp: HyperConfig,
    omega: Optional[float] = None,
    out=None,
) -> np.ndarray:
    """Full-rank update direction for the current step (caller applies -lr).

    Stacked (M, r, q) moments and an (M, p, r) basis give M updates at
    once. `omega` weighs the QHM branches and is required unless `mode`
    is 'none'. The update goes to `out` when given (which may be `grad`).
    """
    uh = u / (1.0 - hp.beta1**t)
    vh = v / (1.0 - hp.beta2**t)
    denom = np.sqrt(vh, out=vh)
    denom += hp.eps
    if mode == QHM_LOW_RANK:
        uh *= omega
        uh += (1.0 - omega) * g
    uh /= denom
    if mode in (QHM_NONE, QHM_LOW_RANK):
        return np.matmul(basis, uh, out=out)
    # mu: each column's sum of denom over the r rows, divided by r, as np.mean does
    scale = np.add.reduce(denom, axis=-2, keepdims=True)
    scale /= denom.shape[-2]
    # (1 - omega) G / mu + omega Q (uh / denom), in place on the full-size arrays
    full = np.multiply(grad, 1.0 - omega, out=out)
    full /= scale
    low = basis @ uh
    low *= omega
    full += low
    return full

