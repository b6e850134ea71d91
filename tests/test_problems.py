import numpy as np
import pytest

from lrdsim.linalg import svd
from lrdsim.problems import (
    Batch,
    MatrixRegression,
    PowerLawOracle,
    gen_powerlaw_matrix,
)
from lrdsim.projection import projection_with_spectrum, sin_theta_distance, spectral_gap, stable_rank

from oracles import central_difference, naive_regression_loss


def small_problem(**kw):
    defaults = dict(p=6, q=4, n_rows=40, workers=2, noise_std=0.1, seed=3)
    defaults.update(kw)
    return MatrixRegression(**defaults)


def test_loss_zero_at_truth_without_noise():
    prob = small_problem(noise_std=0.0)
    batch = Batch(0, np.arange(prob.rows_per_shard))
    assert prob.loss(prob.x_star, batch) == pytest.approx(0.0, abs=1e-20)


def test_loss_matches_naive_double_loop():
    prob = small_problem(seed=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 4))
    batch = prob.sample_batch(1, 7, rng)
    a, y = prob.shard(1)
    expected = naive_regression_loss(a[batch.indices], y[batch.indices], x)
    assert prob.loss(x, batch) == pytest.approx(expected, rel=1e-12)


def test_loss_identity_design_quadratic():
    # A = I rows, Y = 0: loss is 0.5 ||X||^2 per row-normalized batch
    prob = small_problem(p=4, q=3, n_rows=8, workers=2, noise_std=0.0)
    prob.design[:] = 0.0
    prob.design[:4, :4] = np.eye(4)
    prob.labels[:] = 0.0
    x = np.random.default_rng(1).standard_normal((4, 3))
    batch = Batch(worker_id=0, indices=np.arange(4))
    assert prob.loss(x, batch) == pytest.approx(0.5 * np.sum(x * x) / 4)


def test_gradient_zero_at_truth_without_noise():
    prob = small_problem(noise_std=0.0)
    g = prob.stoch_gradient(prob.x_star, Batch(1, np.arange(prob.rows_per_shard)))
    assert np.max(np.abs(g)) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    for inst in range(10):
        prob = small_problem(seed=inst, noise_std=0.3)
        x = rng.standard_normal((prob.p, prob.q))
        batch = prob.sample_batch(0, 9, rng)
        grad = prob.stoch_gradient(x, batch)
        scale = max(1.0, float(np.linalg.norm(grad)))
        for _ in range(20):
            d = rng.standard_normal(x.shape)
            d /= np.linalg.norm(d)
            numeric = central_difference(lambda z: prob.loss(z, batch), x, d)
            analytic = float(np.sum(grad * d))
            assert abs(numeric - analytic) < 1e-6 * scale


def test_full_batch_gradient_is_mean_of_halves():
    prob = small_problem(noise_std=0.2)
    x = np.random.default_rng(4).standard_normal((prob.p, prob.q))
    full = Batch(worker_id=0, indices=np.arange(20))
    first = Batch(worker_id=0, indices=np.arange(10))
    second = Batch(worker_id=0, indices=np.arange(10, 20))
    g_full = prob.stoch_gradient(x, full)
    g_mean = 0.5 * (prob.stoch_gradient(x, first) + prob.stoch_gradient(x, second))
    np.testing.assert_allclose(g_full, g_mean, atol=1e-13)


def test_global_gradient_is_mean_of_shard_gradients():
    prob = small_problem(workers=4, n_rows=40, noise_std=0.15)
    x = np.random.default_rng(8).standard_normal((prob.p, prob.q))
    shard_grads = [prob.stoch_gradient(x, Batch(m, np.arange(prob.rows_per_shard))) for m in range(4)]
    resid = prob.design @ x - prob.labels
    global_grad = prob.design.T @ resid / prob.n_rows
    np.testing.assert_allclose(np.mean(shard_grads, axis=0), global_grad, atol=1e-13)


def test_loss_at_truth_near_noise_floor():
    prob = MatrixRegression(p=8, q=16, n_rows=1024, workers=2, noise_std=0.5, seed=1)
    batch = Batch(0, np.arange(prob.rows_per_shard))
    floor = 0.5 * prob.q * prob.noise_std**2
    assert prob.loss(prob.x_star, batch) == pytest.approx(floor, rel=0.15)


def test_feature_blocks_give_disjoint_gradient_support():
    prob = small_problem(
        p=8, q=4, n_rows=16, workers=2, noise_std=0.0, shard_policy="feature_blocks"
    )
    x = np.zeros((8, 4))
    g0 = prob.stoch_gradient(x, Batch(0, np.arange(prob.rows_per_shard)))
    g1 = prob.stoch_gradient(x, Batch(1, np.arange(prob.rows_per_shard)))
    assert np.max(np.abs(g0[4:])) == 0.0
    assert np.max(np.abs(g1[:4])) == 0.0
    q0 = projection_with_spectrum(g0 + 1e-30 * np.eye(8, 4), 2)[0]
    q1 = projection_with_spectrum(g1, 2)[0]
    assert sin_theta_distance(q0, q1) == pytest.approx(np.sqrt(2.0), abs=1e-8)


def test_batch_validation():
    prob = small_problem()
    with pytest.raises(ValueError):
        Batch(worker_id=0, indices=np.array([], dtype=int))
    with pytest.raises(ValueError):
        prob.sample_batch(0, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        prob.sample_batch(0, 10_000, np.random.default_rng(0))


def test_powerlaw_matrix_spectrum():
    mat = gen_powerlaw_matrix(2.0, 1.0, 10, 8, seed=5)
    s = svd(mat).s
    expected = 2.0 * np.arange(1, 9, dtype=float) ** -1.0
    np.testing.assert_allclose(s, expected, atol=1e-10)
    assert spectral_gap(s, 3) == pytest.approx(2.0 * (3.0**-1 - 4.0**-1), abs=1e-10)


def test_powerlaw_stable_rank_grows_with_flatter_spectrum():
    ranks = []
    for alpha in (2.0, 1.0, 0.5):
        mat = gen_powerlaw_matrix(1.0, alpha, 12, 12, seed=2)
        ranks.append(stable_rank(svd(mat).s))
    assert ranks[0] < ranks[1] < ranks[2]


def test_noisy_observation_exact_without_noise():
    oracle = PowerLawOracle(c=1.0, alpha=1.0, p=6, q=6, kappa=0.0, seed=0)
    obs = oracle.noisy_observation(4, np.random.default_rng(0))
    np.testing.assert_array_equal(obs, oracle.true_matrix)


def test_noisy_observation_frobenius_scaling():
    oracle = PowerLawOracle(c=1.0, alpha=1.0, p=16, q=16, kappa=1.0, seed=0)
    rng = np.random.default_rng(123)
    for b in (4, 16):
        norms = [
            np.linalg.norm(oracle.noisy_observation(b, rng) - oracle.true_matrix)
            for _ in range(1000)
        ]
        assert np.mean(norms) == pytest.approx(1.0 / np.sqrt(b), rel=0.05)
    # quadrupling B halves the expected perturbation
    n4 = np.mean([np.linalg.norm(oracle.noisy_observation(4, rng) - oracle.true_matrix) for _ in range(1000)])
    n16 = np.mean([np.linalg.norm(oracle.noisy_observation(16, rng) - oracle.true_matrix) for _ in range(1000)])
    assert n4 / n16 == pytest.approx(2.0, rel=0.05)


def test_projection_noise_non_increasing_in_batch():
    oracle = PowerLawOracle(c=1.0, alpha=1.0, p=32, q=32, kappa=1.0, seed=9)
    q_true = projection_with_spectrum(oracle.true_matrix, 4)[0]
    means = []
    for b in (4, 64, 1024):
        vals = []
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            q_hat = projection_with_spectrum(oracle.noisy_observation(b, rng), 4)[0]
            vals.append(sin_theta_distance(q_true, q_hat))
        means.append(np.mean(vals))
    assert means[0] >= means[1] >= means[2]


def test_problem_determinism():
    a = small_problem(seed=11)
    b = small_problem(seed=11)
    assert a.design.tobytes() == b.design.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.x_star.tobytes() == b.x_star.tobytes()


def test_low_rank_target_construction():
    prob = small_problem(p=8, q=8, target_rank=3, target_alpha=1.0, noise_std=0.0)
    s = svd(prob.x_star).s
    assert s[2] > 1e-12
    assert s[3] < 1e-12
    np.testing.assert_allclose(s[:3], np.arange(1, 4, dtype=float) ** -1.0, atol=1e-10)
