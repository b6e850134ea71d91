"""The simulator's objective: sharded matrix regression with closed-form gradients.

MatrixRegression is sharded least squares (1/2B)||A_b X - Y_b||_F^2 with
labels Y = A X* + noise. Workers own disjoint row blocks of the global
design, so the mean of shard gradients is the global gradient.
`sample_batch` draws a block of successive batches of shard rows at
once; `shard_starts` turns them into design rows, which are what `loss`
and `stoch_gradient` read. The ground truth X* is either dense
Gaussian or a seeded low-rank matrix with a power-law spectrum (rank
phenomena need a low-rank target at desk scale).

The problem is built from a `config.RunConfig`, whose `from_dict` owns
every problem default and range rule; nothing here re-checks them.
"""

from __future__ import annotations

import numpy as np

from .config import SHARD_FEATURE_BLOCKS, RunConfig

# Batch sizes up to this draw a block of batches in one `integers` call
# (`draw_rows`); above it a loop of `choice` calls is faster.
BLOCK_DRAW_MAX_BATCH = 96
# Rows of label noise `MatrixRegression` draws at a time into one buffer.
NOISE_BLOCK_ROWS = 256


class MatrixRegression:
    """Sharded matrix least squares with label noise, sized by `config.problem` and `config.workers`.

    The global design has `n_rows` (`problem.design_rows`)
    standard-Gaussian rows of width p (`problem.rows`) split into
    `workers` equal consecutive blocks; shard m starts at design row
    `shard_starts[m]`. The design, X* and the label noise come from one
    stream seeded by `master_seed`. With the feature_blocks policy, shard
    m additionally zeroes all design columns outside its own p/workers
    feature block, which confines worker gradients to disjoint coordinate
    rows (used for the orthogonal-subspace constructions).

    `loss` and `stoch_gradient` take design rows of shape (..., B) with
    parameters of shape (..., p, q) and gather with one `take` per array
    from `design` and `labels`: (B,) rows with (p, q) parameters answer
    for one batch, (M, B) rows with (M, p, q) parameters for M batches
    at once, each bitwise equal to its own call. A row past the design
    raises IndexError.
    """

    def __init__(self, config: RunConfig):
        pc = config.problem
        self.p = p = pc.rows
        self.q = q = pc.cols
        self.n_rows = n_rows = pc.design_rows
        self.workers = workers = config.workers
        self.batch_size = pc.batch_size
        self.rows_per_shard = n_rows // workers
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.master_seed, spawn_key=(0,)))
        self.design = design = rng.standard_normal((n_rows, p))
        if pc.shard_policy == SHARD_FEATURE_BLOCKS:
            # row m of the mask keeps worker m's own p/workers columns
            design_shards = design.reshape(workers, self.rows_per_shard, p)
            design_shards *= np.repeat(np.eye(workers), p // workers, axis=1)[:, None, :]
        if pc.target_rank is None:
            self.x_star = rng.standard_normal((p, q)) / np.sqrt(p)
        else:
            left, _ = np.linalg.qr(rng.standard_normal((p, pc.target_rank)))
            right, _ = np.linalg.qr(rng.standard_normal((q, pc.target_rank)))
            spectrum = np.arange(1, pc.target_rank + 1, dtype=np.float64) ** -pc.target_alpha
            self.x_star = (left * spectrum) @ right.T
        self.labels = labels = design @ self.x_star
        # the noise a block of rows at a time: the same draws and generator
        # state as one (n_rows, q) draw, and the same sums as labels + noise
        noise = np.empty((min(NOISE_BLOCK_ROWS, n_rows), q))
        for start in range(0, n_rows, NOISE_BLOCK_ROWS):
            block = noise[:n_rows - start]
            rng.standard_normal(out=block)
            block *= pc.noise_std
            labels[start:start + len(block)] += block
        # (M,): the design row each shard starts at
        self.shard_starts = np.arange(0, n_rows, self.rows_per_shard)

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(count, B) shard rows: `count` successive batches of the config's B distinct rows (`draw_rows`)."""
        return draw_rows(rng, self.rows_per_shard, self.batch_size, count)

    def loss(self, x: np.ndarray, rows: np.ndarray) -> np.floating | np.ndarray:
        """(1/2B)||A_b X - Y_b||_F^2 for each set of B design rows on the last axis of `rows`."""
        if rows.shape[-1] < 1:
            raise ValueError("batch must contain at least one row")
        resid = self.design.take(rows, axis=0) @ x
        resid -= self.labels.take(rows, axis=0)
        squares = np.multiply(resid, resid, out=resid)
        # one pairwise sum over each batch's B*q squares, as np.sum does for one
        total = np.add.reduce(squares.reshape(squares.shape[:-2] + (-1,)), axis=-1)
        return 0.5 * total / rows.shape[-1]

    def stoch_gradient(self, x: np.ndarray, rows: np.ndarray, out=None) -> np.ndarray:
        """A_b^T (A_b X - Y_b) / B for each set of B design rows, written into `out` when given."""
        if rows.shape[-1] < 1:
            raise ValueError("batch must contain at least one row")
        ab = self.design.take(rows, axis=0)
        resid = ab @ x
        resid -= self.labels.take(rows, axis=0)
        grad = np.matmul(ab.swapaxes(-1, -2), resid, out=out)
        grad /= rows.shape[-1]
        return grad


def draw_rows(rng: np.random.Generator, n: int, size: int, count: int) -> np.ndarray:
    """`count` successive `rng.choice(n, size, replace=False)` draws as a (count, size) array.

    The rows, and the state `rng` is left in, equal those of the `choice`
    calls bit for bit. For size <= BLOCK_DRAW_MAX_BATCH, and so size <=
    n // 50 whenever n > 10,000, `choice` runs Floyd's algorithm: slot k
    draws t_k on [0, j_k], j_k = n - size + k, and keeps it unless an
    earlier slot holds it, when it takes j_k. A Fisher-Yates shuffle then
    swaps slot i with a draw on [0, i], for i = size - 1 down to 1. Every
    bound is known in advance, so one `integers` call makes all of a
    block's draws in `choice`'s order. Larger sizes loop `choice`.
    """
    if size > BLOCK_DRAW_MAX_BATCH:
        return np.stack([rng.choice(n, size, replace=False) for _ in range(count)])
    low = n - size
    slots = np.arange(size)
    bounds = np.concatenate([low + slots, slots[:0:-1]])
    draws = rng.integers(0, np.tile(bounds, count), endpoint=True).reshape(count, 2 * size - 1)
    t = draws[:, :size]
    # t_k is held when it repeats an earlier t_i: sort (row, value, slot)
    # keys, and every key whose predecessor has the same row and value repeats
    keys = np.sort(((np.arange(count)[:, None] * n + t) * size + slots).ravel())
    repeats = keys[1:][keys[1:] // size == keys[:-1] // size]
    held = np.zeros(count * size, dtype=bool)
    held[repeats // size // n * size + repeats % size] = True
    # ... or when it equals j_i of an earlier slot i that took j_i
    links = np.flatnonzero(((t >= low) & (t < low + slots)).ravel())
    sources = links + t.ravel()[links] - low - links % size
    while True:
        grown = held[sources] & ~held[links]
        if not grown.any():
            break
        held[links[grown]] = True
    # the shuffle on a (size, count) layout, so that slot i of every row is one contiguous run
    out = np.where(held.reshape(count, size), low + slots, t).T.copy()
    flat = out.ravel()
    swaps = draws[:, size:].T * count + np.arange(count)
    for i, swap in zip(range(size - 1, 0, -1), swaps):
        kept = flat[swap]
        flat[swap] = out[i]
        out[i] = kept
    return out.T

