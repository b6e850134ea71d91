"""Single-tensor optimizer state for the kernel tests.

The optimizer kernels read their state duck-typed (`u`, `v`, `error`,
`basis`, `step`); the engine's `WorkerStack` is the stacked form.
"""

from types import SimpleNamespace

import numpy as np


def fresh_state(p: int, q: int, basis: np.ndarray) -> SimpleNamespace:
    """Zero moments and error buffer for one (p, q) tensor under a (p, r) basis, at step 0."""
    r = basis.shape[1]
    return SimpleNamespace(u=np.zeros((r, q)), v=np.zeros((r, q)), error=np.zeros((p, q)), basis=basis, step=0)
