"""Per-tensor low-rank Adam kernel with error feedback and QHM branches.

The kernel keeps first/second moments in a rank-r basis, compresses
gradients through the current basis with an error-feedback buffer,
and forms updates in one of three quasi-hyperbolic flavors:

  none      Q (uh / (sqrt(vh) + eps))
  low_rank  Q ((omega uh + (1-omega) g) / (sqrt(vh) + eps))
  full_rank (1-omega) G / mu(sqrt(vh) + eps) + omega Q (uh / (sqrt(vh) + eps))

where hats are bias-corrected moments and mu() averages the denominator
over the r rows (per column by default, or a single scalar).

The kernels take their state duck-typed: any object with the attributes
a kernel's docstring names, such as the engine's stacked `WorkerStack`.
`update_moments` writes `u` and `v` in place, so they must be writable
float64 arrays of g's shape that no other state shares; each keeps its
identity across steps.
Hyperparameters come as a `config.HyperConfig`, with QHM's omega passed
beside them. A textbook full-rank Adam step lives here too, serving as
the oracle for the exact-degeneracy checks. Arguments are not re-checked:
`config.validate` owns the run-setting rules and the engine fixes the shapes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .linalg import as_matrix

if TYPE_CHECKING:  # config imports this module's constants
    from .config import HyperConfig

QHM_NONE = "none"
QHM_LOW_RANK = "low_rank"
QHM_FULL_RANK = "full_rank"
QHM_MODES = (QHM_NONE, QHM_LOW_RANK, QHM_FULL_RANK)

MU_PER_COLUMN = "per_column"
MU_SCALAR = "scalar"


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


def update_moments(state, g: np.ndarray, beta1: float, beta2: float):
    """EMA update of `state.u` and `state.v` (over any leading worker axis); increments `state.step`.

    Both are updated in place and keep their identity: u becomes
    beta1 u + (1-beta1) g and v becomes beta2 v + (1-beta2) g^2.
    """
    state.u *= beta1
    state.u += (1.0 - beta1) * g
    sq = np.square(g)
    sq *= 1.0 - beta2
    state.v *= beta2
    state.v += sq
    state.step += 1
    return state


def compute_update(
    state,
    grad: np.ndarray,
    g: np.ndarray,
    mode: str,
    hp: HyperConfig,
    omega: Optional[float] = None,
    mu_semantics: str = MU_PER_COLUMN,
    out=None,
) -> np.ndarray:
    """Full-rank update direction for the current step (caller applies -lr).

    `state` needs `u`, `v`, `step` and `basis`; a stacked state with
    (M, r, q) moments and an (M, p, r) basis gives M updates at once.
    `omega` weighs the QHM branches and is required unless `mode` is
    'none'. The update goes to `out` when given (which may be `grad`).
    """
    t = state.step
    uh = state.u / (1.0 - hp.beta1**t)
    vh = state.v / (1.0 - hp.beta2**t)
    denom = np.sqrt(vh, out=vh)
    denom += hp.eps
    q_mat = state.basis
    if mode == QHM_LOW_RANK:
        uh *= omega
        uh += (1.0 - omega) * g
    uh /= denom
    if mode in (QHM_NONE, QHM_LOW_RANK):
        return np.matmul(q_mat, uh, out=out)
    # mu: denom's sum over the r rows (per column) or all entries, divided by the count, as np.mean does
    axis = -2 if mu_semantics == MU_PER_COLUMN else (-2, -1)
    scale = np.add.reduce(denom, axis=axis, keepdims=True)
    scale /= denom.size // scale.size
    # (1 - omega) G / mu + omega Q (uh / denom), in place on the full-size arrays
    full = np.multiply(grad, 1.0 - omega, out=out)
    full /= scale
    low = q_mat @ uh
    low *= omega
    full += low
    return full


def adam_reference_step(
    x: np.ndarray,
    grad: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    hp: HyperConfig,
    t: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One textbook full-rank Adam step with bias correction.

    `t` is the step index starting at 0; the returned state has seen
    t+1 moment updates. Serves as the oracle for degeneracy checks.
    """
    grad = as_matrix(grad, "gradient")
    if x.shape != grad.shape or u.shape != grad.shape or v.shape != grad.shape:
        raise ValueError("adam reference requires full-rank shapes throughout")
    u = hp.beta1 * u + (1.0 - hp.beta1) * grad
    v = hp.beta2 * v + (1.0 - hp.beta2) * (grad * grad)
    uh = u / (1.0 - hp.beta1 ** (t + 1))
    vh = v / (1.0 - hp.beta2 ** (t + 1))
    x = x - hp.lr_at(t) * (uh / (np.sqrt(vh) + hp.eps))
    return x, u, v
