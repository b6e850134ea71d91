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
    a = np.diag([3.0, 2.0, 1.0])
    res = svd(a)
    np.testing.assert_allclose(res.s, [3.0, 2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(res.u, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(res.v, np.eye(3), atol=1e-12)


def test_svd_identity():
    res = svd(np.eye(4))
    np.testing.assert_allclose(res.s, np.ones(4), atol=1e-12)


def test_svd_gaussian_vs_gram_oracle():
    # Left singular vectors must match eigenvectors of A A^T up to sign,
    # singular values the square roots of its eigenvalues.
    rng = np.random.default_rng(42)
    a = rng.standard_normal((8, 6))
    res = svd(a)
    s_oracle, u_oracle = gram_svd_oracle(a)
    np.testing.assert_allclose(res.s, s_oracle[:6], atol=1e-8)
    for j in range(6):
        dot = abs(float(res.u[:, j] @ u_oracle[:, j]))
        assert dot > 1.0 - 1e-8, f"column {j} misaligned (|dot|={dot})"


def test_svd_rejects_non_finite():
    a = np.ones((3, 3))
    a[1, 2] = np.nan
    with pytest.raises(NonFiniteError, match=r"\(1, 2\)"):
        svd(a)


def test_svd_reconstruction_and_orthonormality_many_seeds():
    rng = np.random.default_rng(0)
    for seed in range(100):
        local = np.random.default_rng(seed)
        p = int(rng.integers(1, 33))
        q = int(rng.integers(1, 33))
        a = local.standard_normal((p, q))
        res = svd(a)
        k = min(p, q)
        rec = res.u @ np.diag(res.s) @ res.v.T
        denom = max(np.linalg.norm(a), 1e-300)
        assert np.linalg.norm(rec - a) / denom < 1e-8
        assert np.linalg.norm(res.u.T @ res.u - np.eye(k)) < 1e-10
        assert np.linalg.norm(res.v.T @ res.v - np.eye(k)) < 1e-10
        assert np.all(np.diff(res.s) <= 1e-15)
        assert np.all(res.s >= 0.0)


def test_svd_zero_and_rank_deficient():
    res = svd(np.zeros((4, 3)))
    np.testing.assert_array_equal(res.s, np.zeros(3))
    assert np.linalg.norm(res.u.T @ res.u - np.eye(3)) < 1e-10
    rng = np.random.default_rng(5)
    lowrank = np.outer(rng.standard_normal(6), rng.standard_normal(5))
    res = svd(lowrank)
    assert res.s[1] < 1e-12 * res.s[0]
    rec = res.u @ np.diag(res.s) @ res.v.T
    assert np.linalg.norm(rec - lowrank) < 1e-10


def test_svd_bit_deterministic():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((17, 11))
    r1 = svd(a)
    r2 = svd(a)
    assert r1.u.tobytes() == r2.u.tobytes()
    assert r1.s.tobytes() == r2.s.tobytes()
    assert r1.v.tobytes() == r2.v.tobytes()


def test_svd_sign_convention():
    rng = np.random.default_rng(11)
    for shape in [(9, 9), (5, 9), (9, 5)]:
        res = svd(rng.standard_normal(shape))
        for j in range(min(shape)):
            col = res.u[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0, (shape, j)


def test_spectral_norm_cases():
    assert svd(np.diag([3.0, 2.0, 1.0])).s[0] == pytest.approx(3.0, abs=1e-12)
    assert svd(np.zeros((3, 4))).s[0] == 0.0
    a = np.array([1.0, -2.0, 0.5])
    b = np.array([0.3, 4.0])
    outer = np.outer(a, b)
    expect = np.linalg.norm(a) * np.linalg.norm(b)
    assert svd(outer).s[0] == pytest.approx(expect, rel=1e-12)


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
        spec = svd(a).s[0]
        frob = frobenius_norm(a)
        assert spec <= frob + 1e-10
        assert frob <= np.sqrt(min(p, q)) * spec + 1e-10


def test_numerical_rank():
    assert np.linalg.matrix_rank(np.zeros((3, 3)), rtol=1e-10) == 0
    assert np.linalg.matrix_rank(np.eye(5), rtol=1e-10) == 5
    rng = np.random.default_rng(2)
    a = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 10))
    assert np.linalg.matrix_rank(a, rtol=1e-10) == 3


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
