import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  loaded before any traced set-up
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdsim.config import from_dict
from lrdsim.linalg import svd
from lrdsim.problems import BLOCK_DRAW_MAX_BATCH, NOISE_BLOCK_ROWS, MatrixRegression, draw_rows
from lrdsim.projection import projection_with_spectrum, spectral_gap, stable_rank

from loghash import config_dict
from oracles import PowerLawOracle, gen_powerlaw_matrix, naive_regression_loss, subspace_sin_theta


def small_config(workers=2, master_seed=3, **problem):
    """A full-rank config of a 6 x 4 problem on 40 design rows in batches of 1, unless `problem` says otherwise."""
    problem = dict({"rows": 6, "cols": 4, "design_rows": 40, "noise_std": 0.1, "batch_size": 1}, **problem)
    rank = min(problem["rows"], problem["cols"])
    return from_dict(config_dict("small", workers=workers, master_seed=master_seed, rank=rank, problem=problem))


def small_problem(**settings):
    return MatrixRegression(small_config(**settings))


def test_loss_zero_at_truth_without_noise():
    prob = small_problem(noise_std=0.0)
    rows = np.arange(prob.rows_per_shard)
    assert prob.loss(prob.x_star, rows) == pytest.approx(0.0, abs=1e-20)


def test_loss_matches_naive_double_loop():
    prob = small_problem(batch_size=7)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 4))
    rows = prob.sample_batch(rng, 1)[0] + prob.shard_starts[1]
    expected = naive_regression_loss(prob.design[rows], prob.labels[rows], x)
    assert prob.loss(x, rows) == pytest.approx(expected, rel=1e-12)


def test_loss_identity_design_quadratic():
    # A = I rows, Y = 0: loss is 0.5 ||X||^2 per row-normalized batch
    prob = small_problem(rows=4, cols=3, design_rows=8, noise_std=0.0)
    prob.design[:] = 0.0
    prob.design[:4, :4] = np.eye(4)
    prob.labels[:] = 0.0
    x = np.random.default_rng(1).standard_normal((4, 3))
    assert prob.loss(x, np.arange(4)) == pytest.approx(0.5 * np.sum(x * x) / 4)


def test_gradient_zero_at_truth_without_noise():
    prob = small_problem(noise_std=0.0)
    g = prob.stoch_gradient(prob.x_star, np.arange(prob.rows_per_shard) + prob.shard_starts[1])
    assert np.max(np.abs(g)) < 1e-12


def test_full_batch_gradient_is_mean_of_halves():
    prob = small_problem(noise_std=0.2)
    x = np.random.default_rng(4).standard_normal((prob.p, prob.q))
    g_full = prob.stoch_gradient(x, np.arange(20))
    g_mean = 0.5 * (prob.stoch_gradient(x, np.arange(10)) + prob.stoch_gradient(x, np.arange(10, 20)))
    np.testing.assert_allclose(g_full, g_mean, atol=1e-13)


def test_global_gradient_is_mean_of_shard_gradients():
    prob = small_problem(workers=4, noise_std=0.15)
    x = np.random.default_rng(8).standard_normal((prob.p, prob.q))
    shard_grads = [prob.stoch_gradient(x, np.arange(prob.rows_per_shard) + prob.shard_starts[m]) for m in range(4)]
    resid = prob.design @ x - prob.labels
    global_grad = prob.design.T @ resid / prob.n_rows
    np.testing.assert_allclose(np.mean(shard_grads, axis=0), global_grad, atol=1e-13)


def test_loss_at_truth_near_noise_floor():
    noise_std = 0.5
    prob = small_problem(rows=8, cols=16, design_rows=1024, noise_std=noise_std, master_seed=1)
    rows = np.arange(prob.rows_per_shard)
    floor = 0.5 * prob.q * noise_std**2
    assert prob.loss(prob.x_star, rows) == pytest.approx(floor, rel=0.15)


def test_feature_blocks_give_disjoint_gradient_support():
    prob = small_problem(rows=8, cols=4, design_rows=16, noise_std=0.0, shard_policy="feature_blocks")
    x = np.zeros((8, 4))
    g0 = prob.stoch_gradient(x, np.arange(prob.rows_per_shard))
    g1 = prob.stoch_gradient(x, np.arange(prob.rows_per_shard) + prob.shard_starts[1])
    assert np.max(np.abs(g0[4:])) == 0.0
    assert np.max(np.abs(g1[:4])) == 0.0
    q0 = projection_with_spectrum(g0 + 1e-30 * np.eye(8, 4), 2)[0]
    q1 = projection_with_spectrum(g1, 2)[0]
    assert subspace_sin_theta(q0, q1) == pytest.approx(np.sqrt(2.0), abs=1e-8)


@pytest.mark.parametrize("policy", ["iid", "feature_blocks"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_parameter_makes_its_worker_loss_non_finite(policy, value):
    # the engine marks divergence from the held-out losses alone: a
    # non-finite entry of worker m's parameters must reach worker m's loss
    # even where m's design columns are zero (0 * inf = NaN), and no other's
    workers, p, q = 4, 8, 5
    prob = small_problem(rows=p, cols=q, design_rows=48, workers=workers, shard_policy=policy, batch_size=4)
    block = p // workers
    rng = np.random.default_rng(2)
    rows = np.stack([prob.sample_batch(rng, 1)[0] for _ in range(workers)]) + prob.shard_starts[:, None]
    for m in range(workers):
        # a row inside the next worker's feature block, so outside m's own
        outside = ((m + 1) % workers) * block
        for col in (0, q - 1):
            x = rng.standard_normal((workers, p, q))
            x[m, outside, col] = value
            with np.errstate(invalid="ignore"):
                finite = np.isfinite(prob.loss(x, rows))
            assert finite.tolist() == [k != m for k in range(workers)], (m, col)


@pytest.mark.parametrize("n_rows", [40, 600])
def test_labels_equal_one_noise_draw(n_rows):
    # the blockwise noise equals labels = A X* + sigma * Z with Z drawn at once, bit for bit
    prob = small_problem(design_rows=n_rows, noise_std=0.7, master_seed=5)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(0,)))
    design = rng.standard_normal((n_rows, prob.p))
    x_star = rng.standard_normal((prob.p, prob.q)) / np.sqrt(prob.p)
    labels = design @ x_star + 0.7 * rng.standard_normal((n_rows, prob.q))
    assert prob.design.tobytes() == design.tobytes()
    assert prob.labels.tobytes() == labels.tobytes()


@pytest.mark.parametrize("n_rows", [4096, 4100])
@pytest.mark.parametrize("policy", ["iid", "feature_blocks"])
def test_set_up_holds_the_problem_arrays_and_one_noise_block(policy, n_rows):
    cfg = small_config(workers=4, master_seed=0, rows=64, cols=64, design_rows=n_rows, noise_std=0.5,
                       shard_policy=policy, target_rank=32, target_alpha=0.25)
    tracemalloc.start()
    try:
        prob = MatrixRegression(cfg)
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
    for params, rows in ((x, empty_single), (np.stack([x] * prob.workers), empty_stacked)):
        with pytest.raises(ValueError, match="at least one row"):
            prob.loss(params, rows)
        with pytest.raises(ValueError, match="at least one row"):
            prob.stoch_gradient(params, rows)


def _assert_stacked_equals_per_worker_calls(prob, x, rows):
    losses = prob.loss(x, rows)
    assert losses.tolist() == [prob.loss(x[m], rows[m]) for m in range(prob.workers)]
    grads = prob.stoch_gradient(x, rows)
    for m in range(prob.workers):
        assert grads[m].tobytes() == prob.stoch_gradient(x[m], rows[m]).tobytes()


@pytest.mark.parametrize("policy", ["iid", "feature_blocks"])
@pytest.mark.parametrize("workers", [1, 3, 4])
def test_stacked_gather_stays_inside_each_shard(policy, workers):
    # the stacked form gathers from the whole design with one `take` per
    # array: each shard's edge rows read exactly what their own calls read,
    # and a row past the design raises
    prob = small_problem(rows=12, cols=5, design_rows=48, workers=workers, shard_policy=policy, noise_std=0.3)
    n = prob.rows_per_shard
    rng = np.random.default_rng(11)
    x = rng.standard_normal((workers, prob.p, prob.q))
    # each shard's first and last row, then the design's first and last row
    starts = prob.shard_starts[:, None]
    edges = np.concatenate([starts, starts + n - 1, np.tile([0, prob.n_rows - 1], (workers, 1))], axis=1)
    _assert_stacked_equals_per_worker_calls(prob, x, edges)
    _assert_stacked_equals_per_worker_calls(prob, x, rng.integers(0, prob.n_rows, size=(workers, 6)))
    for m in range(workers):
        rows = edges.copy()
        rows[m, 1] = prob.n_rows
        with pytest.raises(IndexError):
            prob.loss(x, rows)
        with pytest.raises(IndexError):
            prob.stoch_gradient(x, rows)
        with pytest.raises(IndexError):
            prob.loss(x[m], rows[m])
        with pytest.raises(IndexError):
            prob.stoch_gradient(x[m], rows[m])


@pytest.mark.parametrize("policy", ["iid", "feature_blocks"])
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("full_shard", [False, True])
def test_stacked_loss_and_gradient_bitwise_equal_per_worker_calls(policy, workers, full_shard):
    b = 48 // workers if full_shard else 1
    prob = small_problem(rows=8, cols=5, design_rows=48, workers=workers, shard_policy=policy, noise_std=0.3,
                         batch_size=b)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((workers, prob.p, prob.q))
    singles = [prob.sample_batch(rng, 1)[0] for _ in range(workers)]
    stacked = np.stack(singles) + prob.shard_starts[:, None]
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
    prob = small_problem(design_rows=80, batch_size=30)
    block_rng, batch_rng = np.random.default_rng(4), np.random.default_rng(4)
    block = prob.sample_batch(block_rng, count=64)
    assert block.shape == (64, 30)
    assert block.tolist() == [batch_rng.choice(prob.rows_per_shard, 30, replace=False).tolist() for _ in range(64)]
    assert block_rng.bit_generator.state == batch_rng.bit_generator.state


def test_powerlaw_matrix_spectrum():
    mat = gen_powerlaw_matrix(2.0, 1.0, 10, 8, seed=5)
    s = svd(mat)[1]
    expected = 2.0 * np.arange(1, 9, dtype=float) ** -1.0
    np.testing.assert_allclose(s, expected, atol=1e-10)
    assert spectral_gap(s, 3) == pytest.approx(2.0 * (3.0**-1 - 4.0**-1), abs=1e-10)


def test_powerlaw_stable_rank_grows_with_flatter_spectrum():
    ranks = []
    for alpha in (2.0, 1.0, 0.5):
        mat = gen_powerlaw_matrix(1.0, alpha, 12, 12, seed=2)
        ranks.append(stable_rank(svd(mat)[1]))
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
            vals.append(subspace_sin_theta(q_true, q_hat))
        means.append(np.mean(vals))
    assert means[0] >= means[1] >= means[2]


def test_problem_determinism():
    a = small_problem(master_seed=11)
    b = small_problem(master_seed=11)
    assert a.design.tobytes() == b.design.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.x_star.tobytes() == b.x_star.tobytes()


def test_low_rank_target_construction():
    prob = small_problem(rows=8, cols=8, target_rank=3, target_alpha=1.0, noise_std=0.0)
    s = svd(prob.x_star)[1]
    assert s[2] > 1e-12
    assert s[3] < 1e-12
    np.testing.assert_allclose(s[:3], np.arange(1, 4, dtype=float) ** -1.0, atol=1e-10)
