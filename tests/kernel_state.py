"""Single-tensor optimizer state for the kernel tests.

The optimizer kernels take plain arrays; this bundles one tensor's `u`,
`v`, `error` and `basis`, which the engine holds stacked over its
workers. The tests count the moment updates themselves.
"""

from types import SimpleNamespace

import numpy as np


def fresh_state(p: int, q: int, basis: np.ndarray) -> SimpleNamespace:
    """Zero moments and error buffer for one (p, q) tensor under a (p, r) basis."""
    r = basis.shape[1]
    return SimpleNamespace(u=np.zeros((r, q)), v=np.zeros((r, q)), error=np.zeros((p, q)), basis=basis)
