"""Independent oracles used by the test suite.

These deliberately take different routes than the library code: the
eigendecomposition below is a classic two-sided cyclic Jacobi on the
symmetric Gram matrix (plain Python loops), whereas the library SVD is
LAPACK's divide-and-conquer gesdd on the data matrix itself.
"""

import numpy as np


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
