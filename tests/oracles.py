"""Independent oracles used by the test suite.

These deliberately take different routes than the library code: the
eigendecomposition below is a classic two-sided cyclic Jacobi on the
symmetric Gram matrix (plain Python loops), whereas the library SVD is
LAPACK's divide-and-conquer gesdd on the data matrix itself.

The two fixtures at the end, the textbook Adam step the exact-degeneracy
checks compare against and the power-law observation oracle behind the
projection-noise scaling checks, live here rather than in `lrdsim`
because no run, sweep or CLI command uses them.
"""

from dataclasses import dataclass, field

import numpy as np

from lrdsim.config import HyperConfig
from lrdsim.linalg import as_matrix


def jacobi_eigh(sym: np.ndarray, tol: float = 1e-14, max_sweeps: int = 100):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) sorted descending.
    """
    a = np.array(sym, dtype=np.float64)
    n = a.shape[0]
    vecs = np.eye(n)
    for _ in range(max_sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                denom = np.sqrt(abs(a[i, i] * a[j, j])) + abs(a[i, j])
                if denom == 0.0 or abs(a[i, j]) <= tol * denom:
                    continue
                off = max(off, abs(a[i, j]))
                theta = 0.5 * np.arctan2(2.0 * a[i, j], a[i, i] - a[j, j])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[i, i] = c
                rot[j, j] = c
                rot[i, j] = -s
                rot[j, i] = s
                a = rot.T @ a @ rot
                vecs = vecs @ rot
        if off <= tol:
            break
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def gram_svd_oracle(a: np.ndarray):
    """Singular values/left vectors of `a` via eigendecomposition of a a^T."""
    gram = a @ a.T
    vals, vecs = jacobi_eigh(gram)
    vals = np.clip(vals, 0.0, None)
    return np.sqrt(vals), vecs


def naive_frobenius(a: np.ndarray) -> float:
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += a[i, j] * a[i, j]
    return float(np.sqrt(total))


def naive_regression_loss(a_rows, y_rows, x) -> float:
    """Double-loop evaluation of (1/2B)||A x - Y||_F^2."""
    b = len(a_rows)
    total = 0.0
    for i in range(b):
        pred = a_rows[i] @ x
        for j in range(pred.shape[0]):
            d = pred[j] - y_rows[i][j]
            total += d * d
    return 0.5 * total / b


def central_difference(f, x: np.ndarray, direction: np.ndarray, h: float = 1e-5) -> float:
    """Directional derivative of scalar f at x along `direction`."""
    return (f(x + h * direction) - f(x - h * direction)) / (2.0 * h)


def subspace_sin_theta(q1: np.ndarray, q2: np.ndarray) -> float:
    """sin-theta distance via principal angles (numpy SVD route).

    The singular values of (I - Q1 Q1^T) Q2 are exactly the sines of the
    principal angles between the column spaces.
    """
    residual = q2 - q1 @ (q1.T @ q2)
    sines = np.linalg.svd(residual, compute_uv=False)
    return float(np.linalg.norm(sines))


def adam_reference_step(x, grad, u, v, hp: HyperConfig, t: int):
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


@dataclass(frozen=True)
class PowerLawOracle:
    """Fixed signal matrix with power-law spectrum plus batch-scaled noise."""

    c: float
    alpha: float
    p: int
    q: int
    kappa: float
    seed: int = 0
    true_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.c <= 0 or self.alpha <= 0:
            raise ValueError("C and alpha must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        object.__setattr__(self, "true_matrix", gen_powerlaw_matrix(self.c, self.alpha, self.p, self.q, self.seed))

    def noisy_observation(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """true_matrix + N with E||N||_F ~= kappa / sqrt(batch_size)."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if self.kappa == 0.0:
            return self.true_matrix.copy()
        entry_std = self.kappa / np.sqrt(batch_size * self.p * self.q)
        return self.true_matrix + entry_std * rng.standard_normal((self.p, self.q))


def _powerlaw_factors(p: int, q: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    k = min(p, q)
    left, lr = np.linalg.qr(rng.standard_normal((p, k)))
    right, rr = np.linalg.qr(rng.standard_normal((q, k)))
    # fix QR sign ambiguity so factors are reproducible across platforms
    left = left * np.sign(np.where(np.diag(lr) == 0, 1.0, np.diag(lr)))
    right = right * np.sign(np.where(np.diag(rr) == 0, 1.0, np.diag(rr)))
    return left, right


def gen_powerlaw_matrix(c: float, alpha: float, p: int, q: int, seed: int) -> np.ndarray:
    """U diag(C k^(-alpha)) V^T with seeded random orthonormal factors."""
    if c <= 0 or alpha <= 0:
        raise ValueError("C and alpha must be positive")
    left, right = _powerlaw_factors(p, q, seed)
    k = min(p, q)
    spectrum = c * np.arange(1, k + 1, dtype=np.float64) ** -alpha
    return (left * spectrum) @ right.T
