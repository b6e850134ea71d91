import numpy as np
import pytest

from lrdsim.config import QHM_FULL_RANK, QHM_LOW_RANK, QHM_NONE, HyperConfig
from lrdsim.linalg import clip_frobenius
from lrdsim.optimizer import compress_gradient, compute_update, update_moments
from lrdsim.projection import (
    projection_with_spectrum,
    random_projection,
    rotate_first_moment,
    rotate_second_moment,
    rotation_matrix,
)

from kernel_state import fresh_state
from oracles import adam_reference_step


def make_state(p, q, r, seed=0):
    proj = random_projection(p, r, np.random.default_rng(seed))
    return fresh_state(p, q, proj)


def test_compress_lossless_when_square():
    state = make_state(5, 4, 5, seed=1)
    rng = np.random.default_rng(2)
    grad = rng.standard_normal((5, 4))
    state.error = rng.standard_normal((5, 4))
    g, new_e = compress_gradient(grad, state.error, state.basis)
    np.testing.assert_allclose(new_e, np.zeros((5, 4)), atol=1e-12)
    np.testing.assert_allclose(g, state.basis.T @ (grad + state.error), atol=1e-15)


def test_compress_coordinate_projection():
    state = fresh_state(2, 1, np.eye(2, 1))
    g, new_e = compress_gradient(np.array([[1.0], [2.0]]), state.error, state.basis)
    np.testing.assert_array_equal(g, [[1.0]])
    np.testing.assert_array_equal(new_e, [[0.0], [2.0]])


def test_compress_error_persists_on_zero_gradient():
    state = make_state(6, 3, 2, seed=3)
    state.error = np.random.default_rng(4).standard_normal((6, 3))
    g, new_e = compress_gradient(np.zeros((6, 3)), state.error, state.basis)
    np.testing.assert_allclose(g, state.basis.T @ state.error, atol=1e-15)
    # residual re-enters next step
    assert np.linalg.norm(new_e) > 0


def test_update_moments_cases():
    state = make_state(4, 3, 2)
    g = np.random.default_rng(5).standard_normal((2, 3))
    assert update_moments(state.u, state.v, g, beta1=0.9, beta2=0.99) is None
    np.testing.assert_allclose(state.u, 0.1 * g, atol=1e-15)
    np.testing.assert_allclose(state.v, 0.01 * g * g, atol=1e-15)
    u_prev, v_prev = state.u.copy(), state.v.copy()
    update_moments(state.u, state.v, np.zeros((2, 3)), beta1=0.9, beta2=0.99)
    np.testing.assert_allclose(state.u, 0.9 * u_prev, atol=1e-15)
    np.testing.assert_allclose(state.v, 0.99 * v_prev, atol=1e-15)
    update_moments(state.u, state.v, g, beta1=0.0, beta2=0.0)
    np.testing.assert_array_equal(state.u, g)
    np.testing.assert_array_equal(state.v, g * g)
    assert np.all(state.v >= 0)


@pytest.mark.parametrize("lead", [(), (4,)])
def test_update_moments_bitwise_in_place(lead):
    rng = np.random.default_rng(13)
    beta1, beta2 = 0.9, 0.999
    # v small against (1 - beta2) g^2, so the rounding of that term shows in the sum
    u, v = rng.standard_normal(lead + (8, 64)), 1e-6 * rng.random(lead + (8, 64))
    u_prev, v_prev = u.copy(), v.copy()
    g = rng.standard_normal(lead + (8, 64))
    assert update_moments(u, v, g, beta1, beta2) is None
    assert u.tobytes() == (beta1 * u_prev + (1.0 - beta1) * g).tobytes()
    assert v.tobytes() == (beta2 * v_prev + (1.0 - beta2) * (g * g)).tobytes()


def _update_by_mean(u, v, basis, t, grad, g, mode, hp, omega):
    """compute_update's arithmetic written out with np.mean for mu."""
    uh = u / (1.0 - hp.beta1**t)
    vh = v / (1.0 - hp.beta2**t)
    denom = np.sqrt(vh) + hp.eps
    if mode == QHM_NONE:
        return basis @ (uh / denom)
    if mode == QHM_LOW_RANK:
        return basis @ ((omega * uh + (1.0 - omega) * g) / denom)
    mu = denom.mean(axis=-2, keepdims=True)
    return (1.0 - omega) * grad / mu + omega * (basis @ (uh / denom))


# r = 3 makes the count of mu's mean other than a power of two
@pytest.mark.parametrize("lead", [(), (4,)])
@pytest.mark.parametrize("mode", [QHM_NONE, QHM_LOW_RANK, QHM_FULL_RANK])
def test_compute_update_bitwise_equals_mean_form(mode, lead):
    rng = np.random.default_rng(17)
    hp, omega = HyperConfig(beta1=0.9, beta2=0.999, eps=1e-8), 0.95
    p, q, r = 7, 5, 3
    bases = np.stack([random_projection(p, r, rng) for _ in range(4)])
    basis = bases if lead else bases[0]
    u, v = rng.standard_normal(lead + (r, q)), rng.random(lead + (r, q))
    moments = u.tobytes() + v.tobytes()
    grad, g = rng.standard_normal(lead + (p, q)), rng.standard_normal(lead + (r, q))
    want = _update_by_mean(u, v, basis, 5, grad, g, mode, hp, omega)
    assert compute_update(u, v, basis, 5, grad, g, mode, hp, omega).tobytes() == want.tobytes()
    buf = grad.copy()
    assert compute_update(u, v, basis, 5, buf, g, mode, hp, omega, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
    assert u.tobytes() + v.tobytes() == moments


def test_qhm_omega_one_matches_no_qhm_bitwise():
    rng = np.random.default_rng(8)
    hp, omega = HyperConfig(beta1=0.9, beta2=0.99, lr=0.1), 1.0
    state = make_state(6, 4, 3, seed=8)
    grad = rng.standard_normal((6, 4))
    g, state.error = compress_gradient(grad, state.error, state.basis)
    update_moments(state.u, state.v, g, hp.beta1, hp.beta2)
    base = compute_update(state.u, state.v, state.basis, 1, grad, g, QHM_NONE, hp, omega)
    low = compute_update(state.u, state.v, state.basis, 1, grad, g, QHM_LOW_RANK, hp, omega)
    full = compute_update(state.u, state.v, state.basis, 1, grad, g, QHM_FULL_RANK, hp, omega)
    assert base.tobytes() == low.tobytes()
    assert base.tobytes() == full.tobytes()


def test_full_rank_omega_zero_is_scaled_gradient():
    # constant vh makes the full-rank branch a pure scaled gradient
    hp, omega = HyperConfig(beta1=0.0, beta2=0.0, eps=1e-8), 0.0
    state = make_state(8, 5, 2, seed=9)
    rng = np.random.default_rng(10)
    grad = rng.standard_normal((8, 5))
    c = 0.7
    g = np.full((2, 5), c)
    update_moments(state.u, state.v, g, hp.beta1, hp.beta2)  # v = c^2 everywhere
    out = compute_update(state.u, state.v, state.basis, 1, grad, g, QHM_FULL_RANK, hp, omega)
    np.testing.assert_allclose(out, grad / (c + hp.eps), atol=1e-12)
    assert np.linalg.matrix_rank(out, rtol=1e-10) == np.linalg.matrix_rank(grad, rtol=1e-10)


def test_update_rank_bounds():
    rng = np.random.default_rng(12)
    hp, omega = HyperConfig(beta1=0.9, beta2=0.99), 0.5
    p, q, r = 16, 12, 3
    state = make_state(p, q, r, seed=12)
    grad = rng.standard_normal((p, q))
    g, state.error = compress_gradient(grad, state.error, state.basis)
    update_moments(state.u, state.v, g, hp.beta1, hp.beta2)
    for mode in (QHM_NONE, QHM_LOW_RANK):
        upd = compute_update(state.u, state.v, state.basis, 1, grad, g, mode, hp, omega)
        assert np.linalg.matrix_rank(upd, rtol=1e-10) <= r
    full = compute_update(state.u, state.v, state.basis, 1, grad, g, QHM_FULL_RANK, hp, omega)
    assert np.linalg.matrix_rank(full, rtol=1e-10) > r


def test_full_rank_equivalence_with_identity_projection():
    # r = p with Q = I: the low-rank step equals textbook Adam entrywise.
    rng = np.random.default_rng(31)
    p, q = 7, 5
    hp = HyperConfig(beta1=0.9, beta2=0.999, lr=0.05, eps=1e-8)
    state = fresh_state(p, q, np.eye(p, p))
    x_low = rng.standard_normal((p, q))
    x_ref = x_low.copy()
    u_ref = np.zeros((p, q))
    v_ref = np.zeros((p, q))
    for t in range(100):
        grad = rng.standard_normal((p, q))
        g, state.error = compress_gradient(grad, state.error, state.basis)
        update_moments(state.u, state.v, g, hp.beta1, hp.beta2)
        upd = compute_update(state.u, state.v, state.basis, t + 1, grad, g, QHM_NONE, hp)
        x_low = x_low - hp.lr_at(t) * upd
        x_ref, u_ref, v_ref = adam_reference_step(x_ref, grad, u_ref, v_ref, hp, t)
        assert np.max(np.abs(x_low - x_ref)) < 1e-12


def test_adam_reference_zero_gradient_no_move():
    hp = HyperConfig()
    x = np.ones((3, 3))
    x2, u, v = adam_reference_step(x, np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)), hp, 0)
    np.testing.assert_array_equal(x2, x)


def test_adam_reference_first_step_sign_like():
    hp = HyperConfig(beta1=0.9, beta2=0.999, lr=0.1, eps=1e-8)
    grad = np.array([[5.0, -3.0], [0.5, -8.0]])
    x = np.zeros((2, 2))
    x2, _, _ = adam_reference_step(x, grad, np.zeros((2, 2)), np.zeros((2, 2)), hp, 0)
    np.testing.assert_allclose(x2, -hp.lr * np.sign(grad), atol=1e-6)


def test_adam_reference_quadratic_regression_fixture():
    # 100 steps on f(X) = 0.5 ||X - X*||_F^2 at lr 0.1: the distance to the
    # optimum decreases monotonically after step 5. Final distance frozen
    # from a reference run of this routine.
    rng = np.random.default_rng(77)
    x_star = rng.standard_normal((6, 6))
    hp = HyperConfig(beta1=0.9, beta2=0.999, lr=0.1, eps=1e-8)
    x = np.zeros((6, 6))
    u = np.zeros((6, 6))
    v = np.zeros((6, 6))
    dists = []
    for t in range(100):
        x, u, v = adam_reference_step(x, x - x_star, u, v, hp, t)
        dists.append(float(np.linalg.norm(x - x_star)))
    for a, b in zip(dists[5:], dists[6:]):
        assert b <= a + 1e-12
    assert dists[-1] == pytest.approx(0.0236350548, abs=1e-6)


def test_v_nonnegative_across_rotations():
    rng = np.random.default_rng(41)
    hp = HyperConfig(beta1=0.9, beta2=0.99)
    state = make_state(9, 4, 3, seed=41)
    for t in range(200):
        grad = rng.standard_normal((9, 4))
        g, state.error = compress_gradient(grad, state.error, state.basis)
        update_moments(state.u, state.v, g, hp.beta1, hp.beta2)
        assert np.all(state.v >= 0.0)
        if (t + 1) % 25 == 0:
            new_proj = projection_with_spectrum(rng.standard_normal((9, 4)), 3)[0]
            r_mat = rotation_matrix(new_proj, state.basis)
            state.v = rotate_second_moment(r_mat, state.u, state.v, hp.beta1, hp.beta2, t + 1)
            state.u = rotate_first_moment(r_mat, state.u)
            state.basis = new_proj
            assert np.all(state.v >= 0.0)


def test_hyperparams_lr_schedule():
    hp = HyperConfig(lr=0.1, warmup_steps=10)
    assert hp.lr_at(0) == pytest.approx(0.01)
    assert hp.lr_at(4) == pytest.approx(0.05)
    assert hp.lr_at(9) == pytest.approx(0.1)
    assert hp.lr_at(100) == pytest.approx(0.1)
    assert HyperConfig(lr=0.1).lr_at(0) == pytest.approx(0.1)


def test_clip_then_compress_order_matches_alg():
    # clipping applies to the raw gradient before error feedback enters
    rng = np.random.default_rng(55)
    state = make_state(5, 5, 2, seed=55)
    state.error = rng.standard_normal((5, 5))
    raw = 10.0 * rng.standard_normal((5, 5))
    clipped = clip_frobenius(raw, 1.0)
    g, _ = compress_gradient(clipped, state.error, state.basis)
    expected = state.basis.T @ (clipped + state.error)
    np.testing.assert_allclose(g, expected, atol=1e-15)
