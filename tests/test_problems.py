import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  loaded before any traced set-up
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdsim.linalg import svd
from lrdsim.problems import BLOCK_DRAW_MAX_BATCH, NOISE_BLOCK_ROWS, MatrixRegression, draw_rows
from lrdsim.projection import projection_with_spectrum, sin_theta_distance, spectral_gap, stable_rank

from oracles import PowerLawOracle, central_difference, gen_powerlaw_matrix, naive_regression_loss


def small_problem(**kw):
    defaults = dict(p=6, q=4, n_rows=40, workers=2, noise_std=0.1, seed=3)
    defaults.update(kw)
    return MatrixRegression(**defaults)


def test_loss_zero_at_truth_without_noise():
    prob = small_problem(noise_std=0.0)
    rows = np.arange(prob.rows_per_shard)
    assert prob.loss(prob.x_star, rows, 0) == pytest.approx(0.0, abs=1e-20)


def test_loss_matches_naive_double_loop():
    prob = small_problem(seed=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 4))
    rows = prob.sample_batch(7, rng, 1)[0]
    a, y = prob.shard(1)
    expected = naive_regression_loss(a[rows], y[rows], x)
    assert prob.loss(x, rows, 1) == pytest.approx(expected, rel=1e-12)


def test_loss_identity_design_quadratic():
    # A = I rows, Y = 0: loss is 0.5 ||X||^2 per row-normalized batch
    prob = small_problem(p=4, q=3, n_rows=8, workers=2, noise_std=0.0)
    prob.design[:] = 0.0
    prob.design[:4, :4] = np.eye(4)
    prob.labels[:] = 0.0
    x = np.random.default_rng(1).standard_normal((4, 3))
    assert prob.loss(x, np.arange(4), 0) == pytest.approx(0.5 * np.sum(x * x) / 4)


def test_gradient_zero_at_truth_without_noise():
    prob = small_problem(noise_std=0.0)
    g = prob.stoch_gradient(prob.x_star, np.arange(prob.rows_per_shard), 1)
    assert np.max(np.abs(g)) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    for inst in range(10):
        prob = small_problem(seed=inst, noise_std=0.3)
        x = rng.standard_normal((prob.p, prob.q))
        rows = prob.sample_batch(9, rng, 1)[0]
        grad = prob.stoch_gradient(x, rows, 0)
        scale = max(1.0, float(np.linalg.norm(grad)))
        for _ in range(20):
            d = rng.standard_normal(x.shape)
            d /= np.linalg.norm(d)
            numeric = central_difference(lambda z: prob.loss(z, rows, 0), x, d)
            analytic = float(np.sum(grad * d))
            assert abs(numeric - analytic) < 1e-6 * scale


def test_full_batch_gradient_is_mean_of_halves():
    prob = small_problem(noise_std=0.2)
    x = np.random.default_rng(4).standard_normal((prob.p, prob.q))
    g_full = prob.stoch_gradient(x, np.arange(20), 0)
    g_mean = 0.5 * (prob.stoch_gradient(x, np.arange(10), 0) + prob.stoch_gradient(x, np.arange(10, 20), 0))
    np.testing.assert_allclose(g_full, g_mean, atol=1e-13)


def test_global_gradient_is_mean_of_shard_gradients():
    prob = small_problem(workers=4, n_rows=40, noise_std=0.15)
    x = np.random.default_rng(8).standard_normal((prob.p, prob.q))
    shard_grads = [prob.stoch_gradient(x, np.arange(prob.rows_per_shard), m) for m in range(4)]
    resid = prob.design @ x - prob.labels
    global_grad = prob.design.T @ resid / prob.n_rows
    np.testing.assert_allclose(np.mean(shard_grads, axis=0), global_grad, atol=1e-13)


def test_loss_at_truth_near_noise_floor():
    prob = MatrixRegression(p=8, q=16, n_rows=1024, workers=2, noise_std=0.5, seed=1)
    rows = np.arange(prob.rows_per_shard)
    floor = 0.5 * prob.q * prob.noise_std**2
    assert prob.loss(prob.x_star, rows, 0) == pytest.approx(floor, rel=0.15)


def test_feature_blocks_give_disjoint_gradient_support():
    prob = small_problem(
        p=8, q=4, n_rows=16, workers=2, noise_std=0.0, shard_policy="feature_blocks"
    )
    x = np.zeros((8, 4))
    g0 = prob.stoch_gradient(x, np.arange(prob.rows_per_shard), 0)
    g1 = prob.stoch_gradient(x, np.arange(prob.rows_per_shard), 1)
    assert np.max(np.abs(g0[4:])) == 0.0
    assert np.max(np.abs(g1[:4])) == 0.0
    q0 = projection_with_spectrum(g0 + 1e-30 * np.eye(8, 4), 2)[0]
    q1 = projection_with_spectrum(g1, 2)[0]
    assert sin_theta_distance(q0, q1) == pytest.approx(np.sqrt(2.0), abs=1e-8)


@pytest.mark.parametrize("n_rows", [40, 600])
def test_labels_equal_one_noise_draw(n_rows):
    # the blockwise noise equals labels = A X* + sigma * Z with Z drawn at once, bit for bit
    prob = small_problem(n_rows=n_rows, noise_std=0.7, seed=5)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(0,)))
    design = rng.standard_normal((n_rows, prob.p))
    x_star = rng.standard_normal((prob.p, prob.q)) / np.sqrt(prob.p)
    labels = design @ x_star + 0.7 * rng.standard_normal((n_rows, prob.q))
    assert prob.design.tobytes() == design.tobytes()
    assert prob.labels.tobytes() == labels.tobytes()


@pytest.mark.parametrize("n_rows", [4096, 4100])
@pytest.mark.parametrize("policy", ["iid", "feature_blocks"])
def test_set_up_holds_the_problem_arrays_and_one_noise_block(policy, n_rows):
    kw = dict(p=64, q=64, n_rows=n_rows, workers=4, noise_std=0.5, seed=0, shard_policy=policy,
              target_rank=32, target_alpha=0.25)
    tracemalloc.start()
    try:
        prob = MatrixRegression(**kw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    noise_block = NOISE_BLOCK_ROWS * prob.q * 8
    # slack for x_star and the low-rank target's factors, none larger than p-by-q
    slack = 4 * prob.x_star.nbytes
    assert peak - prob.design.nbytes - prob.labels.nbytes <= noise_block + slack


def test_batch_validation():
    prob = small_problem()
    x = np.zeros((prob.p, prob.q))
    empty_single = np.array([], dtype=int)
    empty_stacked = np.empty((prob.workers, 0), dtype=int)
    for params, rows, worker in ((x, empty_single, 0), (np.stack([x] * prob.workers), empty_stacked, None)):
        with pytest.raises(ValueError, match="at least one row"):
            prob.loss(params, rows, worker)
        with pytest.raises(ValueError, match="at least one row"):
            prob.stoch_gradient(params, rows, worker)
    with pytest.raises(ValueError):
        prob.sample_batch(0, np.random.default_rng(0), 1)
    with pytest.raises(ValueError):
        prob.sample_batch(10_000, np.random.default_rng(0), 1)


@pytest.mark.parametrize(
    "shape",
    [(), (3,), (1, 3), (3, 3), (2, 1, 3)],
    ids=["scalar", "single_without_worker", "too_few_workers", "too_many_workers", "three_dims"],
)
def test_stacked_rows_of_wrong_shape_rejected(shape):
    # (B,) rows without a worker would otherwise broadcast across the (M, n/M, p) shard views
    prob = small_problem(workers=2)
    rows = np.zeros(shape, dtype=int)
    x = np.zeros((prob.workers, prob.p, prob.q))
    with pytest.raises(ValueError, match="stacked rows"):
        prob.loss(x, rows)
    with pytest.raises(ValueError, match="stacked rows"):
        prob.stoch_gradient(x, rows)


@pytest.mark.parametrize("shape", [(), (1, 3), (2, 3)], ids=["scalar", "one_by_three", "two_by_three"])
def test_single_worker_rows_of_wrong_shape_rejected(shape):
    # (M, B) rows with a worker would otherwise gather an (M, B, p) block and answer with an array
    prob = small_problem(workers=2)
    rows = np.zeros(shape, dtype=int)
    x = np.zeros((prob.p, prob.q))
    with pytest.raises(ValueError, match="one worker"):
        prob.loss(x, rows, 0)
    with pytest.raises(ValueError, match="one worker"):
        prob.stoch_gradient(x, rows, 0)


def _assert_stacked_equals_per_worker_calls(prob, x, rows):
    losses = prob.loss(x, rows)
    assert losses.tolist() == [prob.loss(x[m], rows[m], m) for m in range(prob.workers)]
    grads = prob.stoch_gradient(x, rows)
    for m in range(prob.workers):
        assert grads[m].tobytes() == prob.stoch_gradient(x[m], rows[m], m).tobytes()


@pytest.mark.parametrize("policy", ["iid", "feature_blocks"])
@pytest.mark.parametrize("workers", [1, 3, 4])
def test_stacked_gather_stays_inside_each_shard(policy, workers):
    # the stacked form gathers from the whole design with one flat index:
    # a row past its own shard must raise, never read a neighbour's rows
    prob = small_problem(p=12, q=5, n_rows=48, workers=workers, shard_policy=policy, noise_std=0.3)
    n = prob.rows_per_shard
    rng = np.random.default_rng(11)
    x = rng.standard_normal((workers, prob.p, prob.q))
    # each shard's first and last row, from either end
    edges = np.tile([0, n - 1, -1, -n], (workers, 1))
    _assert_stacked_equals_per_worker_calls(prob, x, edges)
    _assert_stacked_equals_per_worker_calls(prob, x, rng.integers(-n, n, size=(workers, 6)))
    for m in range(workers):
        for bad in (n, -n - 1):
            rows = edges.copy()
            rows[m, 1] = bad
            with pytest.raises(IndexError, match=rf"\[{-n}, {n}\)"):
                prob.loss(x, rows)
            with pytest.raises(IndexError, match=rf"\[{-n}, {n}\)"):
                prob.stoch_gradient(x, rows)


@pytest.mark.parametrize("policy", ["iid", "feature_blocks"])
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("full_shard", [False, True])
def test_stacked_loss_and_gradient_bitwise_equal_per_worker_calls(policy, workers, full_shard):
    prob = small_problem(p=8, q=5, n_rows=48, workers=workers, shard_policy=policy, noise_std=0.3)
    b = prob.rows_per_shard if full_shard else 1
    rng = np.random.default_rng(5)
    x = rng.standard_normal((workers, prob.p, prob.q))
    singles = [prob.sample_batch(b, rng, 1)[0] for _ in range(workers)]
    stacked = np.stack(singles)
    assert stacked.shape[-1] == b
    assert prob.loss(x, stacked).shape == (workers,)
    _assert_stacked_equals_per_worker_calls(prob, x, stacked)


def _assert_draws_equal_choice_calls(seed, n, size, count):
    block_rng, choice_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    block = draw_rows(block_rng, n, size, count)
    expected = np.stack([choice_rng.choice(n, size, replace=False) for _ in range(count)])
    assert block.shape == (count, size)
    assert block.tolist() == expected.tolist()
    assert block_rng.bit_generator.state == choice_rng.bit_generator.state


@pytest.mark.parametrize(
    "n, size, count",
    [
        (1, 1, 5),  # B = 1 = n: no draw at all
        (1024, 1, 64),
        (33, 33, 64),  # B = n: Floyd replaces often
        (64, 64, 3),
        (1024, 32, 128),  # the reference configs' shards
        (1024, BLOCK_DRAW_MAX_BATCH, 130),  # the largest one-call block
        (1024, BLOCK_DRAW_MAX_BATCH + 1, 3),  # the smallest `choice` loop
        (20000, 400, 2),  # n > 10,000 and B = n // 50: still Floyd in `choice`
        (20480, 512, 2),  # B > n // 50: `choice`'s tail-shuffle branch
    ],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_draw_rows_equals_successive_choice_calls(seed, n, size, count):
    _assert_draws_equal_choice_calls(seed, n, size, count)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    n=st.integers(1, 10_000),
    size_fraction=st.floats(0.0, 1.0),
    count=st.integers(1, 130),
)
def test_draw_rows_matches_choice_calls_on_any_small_block(seed, n, size_fraction, count):
    size = 1 + round(size_fraction * (min(n, BLOCK_DRAW_MAX_BATCH) - 1))
    _assert_draws_equal_choice_calls(seed, n, size, count)


def test_sample_batch_count_draws_successive_batches():
    prob = small_problem(n_rows=80, workers=2)
    block_rng, batch_rng = np.random.default_rng(4), np.random.default_rng(4)
    block = prob.sample_batch(30, block_rng, count=64)
    assert block.shape == (64, 30)
    assert block.tolist() == [batch_rng.choice(prob.rows_per_shard, 30, replace=False).tolist() for _ in range(64)]
    assert block_rng.bit_generator.state == batch_rng.bit_generator.state
    with pytest.raises(ValueError):
        prob.sample_batch(41, block_rng, count=2)


@pytest.mark.parametrize("bad", [-1, 2])
def test_worker_id_out_of_range_rejected(bad):
    # the (M, n/M, p) shard views would silently wrap -1 to the last worker
    prob = small_problem(workers=2)
    x = np.zeros((prob.p, prob.q))
    rows = np.arange(3)
    with pytest.raises(ValueError):
        prob.shard(bad)
    with pytest.raises(ValueError):
        prob.loss(x, rows, bad)
    with pytest.raises(ValueError):
        prob.stoch_gradient(x, rows, bad)


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
