import numpy as np
import pytest

from lrdsim import linalg
from lrdsim.linalg import (
    NonFiniteError,
    clip_frobenius,
    frobenius_norm,
    svd,
)

from oracles import gram_svd_oracle, naive_frobenius


def test_svd_diagonal():
    u, s = svd(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(s, [3.0, 2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(u, np.eye(3), atol=1e-12)


def test_svd_identity():
    _u, s = svd(np.eye(4))
    np.testing.assert_allclose(s, np.ones(4), atol=1e-12)


def test_svd_gaussian_vs_gram_oracle():
    # Left singular vectors must match eigenvectors of A A^T up to sign,
    # singular values the square roots of its eigenvalues.
    rng = np.random.default_rng(42)
    a = rng.standard_normal((8, 6))
    u, s = svd(a)
    s_oracle, u_oracle = gram_svd_oracle(a)
    np.testing.assert_allclose(s, s_oracle[:6], atol=1e-8)
    for j in range(6):
        dot = abs(float(u[:, j] @ u_oracle[:, j]))
        assert dot > 1.0 - 1e-8, f"column {j} misaligned (|dot|={dot})"


def test_svd_rejects_non_finite():
    a = np.ones((3, 3))
    a[1, 2] = np.nan
    with pytest.raises(NonFiniteError, match=r"\(1, 2\)"):
        svd(a)


def assert_factorizes(a, u, s, tol):
    """A = U diag(S) V^T for some column-orthonormal V, checked without V.

    U U^T A = A says A's columns lie in U's span; the rows of U^T A
    (= diag(S) V^T) being mutually orthogonal with norms S says the V they
    imply is orthonormal wherever S is non-zero.
    """
    scale = max(np.linalg.norm(a), 1e-300)
    proj = u.T @ a
    assert np.linalg.norm(u @ proj - a) / scale < tol
    assert np.linalg.norm(proj @ proj.T - np.diag(s * s)) / (scale * scale) < tol


def test_svd_reconstruction_and_orthonormality_many_seeds():
    rng = np.random.default_rng(0)
    for seed in range(100):
        local = np.random.default_rng(seed)
        p = int(rng.integers(1, 33))
        q = int(rng.integers(1, 33))
        a = local.standard_normal((p, q))
        u, s = svd(a)
        k = min(p, q)
        assert u.shape == (p, k) and s.shape == (k,)
        assert_factorizes(a, u, s, 1e-8)
        assert np.linalg.norm(u.T @ u - np.eye(k)) < 1e-10
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all(s >= 0.0)


def test_svd_zero_and_rank_deficient():
    u, s = svd(np.zeros((4, 3)))
    np.testing.assert_array_equal(s, np.zeros(3))
    assert np.linalg.norm(u.T @ u - np.eye(3)) < 1e-10
    rng = np.random.default_rng(5)
    lowrank = np.outer(rng.standard_normal(6), rng.standard_normal(5))
    u, s = svd(lowrank)
    assert s[1] < 1e-12 * s[0]
    assert np.linalg.norm(u.T @ u - np.eye(5)) < 1e-10
    assert_factorizes(lowrank, u, s, 1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (9, 9), (5, 9), (9, 5), (64, 64)])
def test_svd_is_numpy_svd_with_u_sign_flipped(seed, shape):
    a = np.random.default_rng(seed).standard_normal(shape)
    u, s = svd(a)
    u_np, s_np, _vt = np.linalg.svd(a, full_matrices=False)
    lead = u_np[np.argmax(np.abs(u_np), axis=0), np.arange(u_np.shape[1])]
    assert u.tobytes() == (u_np * np.where(lead < 0.0, -1.0, 1.0)).tobytes()
    assert s.tobytes() == s_np.tobytes()


def test_svd_bit_deterministic():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((17, 11))
    u1, s1 = svd(a)
    u2, s2 = svd(a)
    assert u1.tobytes() == u2.tobytes()
    assert s1.tobytes() == s2.tobytes()


def test_svd_sign_convention():
    rng = np.random.default_rng(11)
    for shape in [(9, 9), (5, 9), (9, 5)]:
        u, _s = svd(rng.standard_normal(shape))
        for j in range(min(shape)):
            col = u[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0, (shape, j)


def test_spectral_norm_cases():
    assert svd(np.diag([3.0, 2.0, 1.0]))[1][0] == pytest.approx(3.0, abs=1e-12)
    assert svd(np.zeros((3, 4)))[1][0] == 0.0
    a = np.array([1.0, -2.0, 0.5])
    b = np.array([0.3, 4.0])
    outer = np.outer(a, b)
    expect = np.linalg.norm(a) * np.linalg.norm(b)
    assert svd(outer)[1][0] == pytest.approx(expect, rel=1e-12)


def test_frobenius_norm_cases():
    assert frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3.0))
    assert frobenius_norm(np.zeros((2, 5))) == 0.0
    assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 4))
    assert frobenius_norm(a) == pytest.approx(naive_frobenius(a), rel=1e-14)


def test_clip_frobenius():
    g = np.full((2, 2), 0.25)  # norm 0.5
    out = clip_frobenius(g, 1.0)
    np.testing.assert_array_equal(out, g)
    out = clip_frobenius(np.array([[3.0, 4.0]]), 1.0)
    np.testing.assert_allclose(out, [[0.6, 0.8]], atol=1e-15)
    assert frobenius_norm(out) <= 1.0 + 1e-12
    np.testing.assert_array_equal(clip_frobenius(np.zeros((3, 3)), 2.0), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        clip_frobenius(g, 0.0)
    with pytest.raises(ValueError):
        clip_frobenius(g, -1.0)


def test_norm_inequalities_random():
    rng = np.random.default_rng(19)
    for _ in range(50):
        p = int(rng.integers(1, 20))
        q = int(rng.integers(1, 20))
        a = rng.standard_normal((p, q))
        spec = svd(a)[1][0]
        frob = frobenius_norm(a)
        assert spec <= frob + 1e-10
        assert frob <= np.sqrt(min(p, q)) * spec + 1e-10


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        linalg.as_matrix(np.ones((0, 3)))


# (M, p, q) stacks with M = 1 and 4 and one plain matrix; scale 1e-3 lies inside the ball, 10 outside
@pytest.mark.parametrize("shape", [(1, 64, 48), (4, 64, 48), (64, 48)])
@pytest.mark.parametrize("scale", [1e-3, 10.0])
def test_clip_frobenius_bitwise_per_matrix(shape, scale):
    radius = 1.0
    g = scale * np.random.default_rng(23).standard_normal(shape)
    # each matrix scaled by radius / max(||g_m||_F, radius), its norm one np.sum over g_m * g_m
    want = np.stack([g_m * (radius / max(np.sqrt(np.sum(g_m * g_m)), radius)) for g_m in g.reshape(-1, 64, 48)])
    assert clip_frobenius(g, radius).tobytes() == want.tobytes()
    buf = g.copy()
    assert clip_frobenius(buf, radius, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
