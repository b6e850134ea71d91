"""The simulator's objective: sharded matrix regression with closed-form gradients.

MatrixRegression is sharded least squares (1/2B)||A_b X - Y_b||_F^2 with
labels Y = A X* + noise. Workers own disjoint row blocks of the global
design, so the mean of shard gradients is the global gradient. A batch
is a plain array of row indices into a shard; `sample_batch` draws a
block of successive batches at once. The stacked (M, B) form gathers
every worker's rows with one guarded flat `take` per array: a row must
lie in [-n/M, n/M) of its own shard. The ground truth X* is either dense
Gaussian or a seeded low-rank matrix with a power-law spectrum (rank
phenomena need a low-rank target at desk scale).
"""

from __future__ import annotations

import numpy as np

SHARD_IID = "iid"
SHARD_FEATURE_BLOCKS = "feature_blocks"
SHARD_POLICIES = (SHARD_IID, SHARD_FEATURE_BLOCKS)

# Batch sizes up to this draw a block of batches in one `integers` call
# (`draw_rows`); above it a loop of `choice` calls is faster.
BLOCK_DRAW_MAX_BATCH = 96
# Rows of label noise `MatrixRegression` draws at a time into one buffer.
NOISE_BLOCK_ROWS = 256


class MatrixRegression:
    """Sharded matrix least squares with label noise.

    The global design has `n_rows` standard-Gaussian rows split into
    `workers` equal consecutive blocks, held as (M, n_rows/M, p) and
    (M, n_rows/M, q) views (`design_shards`, `label_shards`) of the
    `design` and `labels` buffers. With the feature_blocks policy, shard m
    additionally zeroes all design columns outside its own p/workers
    feature block, which confines worker gradients to disjoint coordinate
    rows (used for the orthogonal-subspace constructions).

    `loss` and `stoch_gradient` take (B,) shard rows of one `worker` with
    (p, q) parameters, or, with no worker, (M, B) rows, row m from shard
    m, with (M, p, q) parameters and then answer for every worker at once,
    each bitwise equal to its own call. The stacked form adds each shard's
    first design row to its rows and gathers with one `take` per array
    from `design` and `labels`. So that no row reads another shard's data,
    it first raises IndexError unless every row lies in [-n/M, n/M); a
    negative row wraps within its own shard, as the per-worker `take` does.
    """

    def __init__(
        self,
        p: int,
        q: int,
        n_rows: int,
        workers: int,
        noise_std: float = 0.0,
        seed: int = 0,
        shard_policy: str = SHARD_IID,
        target_rank: int | None = None,
        target_alpha: float = 0.5,
    ):
        if n_rows % workers != 0:
            raise ValueError(f"n_rows={n_rows} must divide evenly across {workers} workers")
        if noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {noise_std}")
        if shard_policy not in SHARD_POLICIES:
            raise ValueError(f"unknown shard policy {shard_policy!r}")
        if shard_policy == SHARD_FEATURE_BLOCKS and p % workers != 0:
            raise ValueError(f"feature_blocks policy needs p={p} divisible by workers={workers}")
        if target_rank is not None and not (1 <= target_rank <= min(p, q)):
            raise ValueError(f"target_rank {target_rank} out of range for {p}x{q}")
        self.p = p
        self.q = q
        self.n_rows = n_rows
        self.workers = workers
        self.noise_std = noise_std
        self.shard_policy = shard_policy
        self.rows_per_shard = n_rows // workers
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
        self.design = design = rng.standard_normal((n_rows, p))
        self.design_shards = design.reshape(workers, self.rows_per_shard, p)
        if shard_policy == SHARD_FEATURE_BLOCKS:
            # row m of the mask keeps worker m's own p/workers columns
            self.design_shards *= np.repeat(np.eye(workers), p // workers, axis=1)[:, None, :]
        if target_rank is None:
            self.x_star = rng.standard_normal((p, q)) / np.sqrt(p)
        else:
            left, _ = np.linalg.qr(rng.standard_normal((p, target_rank)))
            right, _ = np.linalg.qr(rng.standard_normal((q, target_rank)))
            spectrum = np.arange(1, target_rank + 1, dtype=np.float64) ** -target_alpha
            self.x_star = (left * spectrum) @ right.T
        self.labels = labels = design @ self.x_star
        # the noise a block of rows at a time: the same draws and generator
        # state as one (n_rows, q) draw, and the same sums as labels + noise
        noise = np.empty((min(NOISE_BLOCK_ROWS, n_rows), q))
        for start in range(0, n_rows, NOISE_BLOCK_ROWS):
            block = noise[:n_rows - start]
            rng.standard_normal(out=block)
            block *= noise_std
            labels[start:start + len(block)] += block
        self.label_shards = labels.reshape(workers, self.rows_per_shard, q)
        # (M, 1): the global index of each shard's first row
        self._shard_starts = np.arange(0, n_rows, self.rows_per_shard)[:, None]

    def shard(self, worker_id: int) -> tuple[np.ndarray, np.ndarray]:
        if not (0 <= worker_id < self.workers):
            raise ValueError(f"worker_id {worker_id} out of range")
        return self.design_shards[worker_id], self.label_shards[worker_id]

    def sample_batch(self, batch_size: int, rng: np.random.Generator, count: int) -> np.ndarray:
        """(count, B) shard rows: `count` successive batches of B distinct rows (`draw_rows`)."""
        if not (1 <= batch_size <= self.rows_per_shard):
            raise ValueError(f"batch_size {batch_size} out of range for shard of {self.rows_per_shard}")
        return draw_rows(rng, self.rows_per_shard, batch_size, count)

    def _rows(self, rows: np.ndarray, worker: int | None) -> tuple[np.ndarray, np.ndarray]:
        """(A_b, Y_b): (B, p) and (B, q) for one worker, (M, B, p) and (M, B, q) stacked."""
        if worker is not None:
            if rows.ndim != 1:
                raise ValueError(f"rows of one worker must be (B,), got shape {rows.shape}")
        elif rows.ndim != 2 or rows.shape[0] != self.workers:
            raise ValueError(f"stacked rows must be ({self.workers}, B), got shape {rows.shape}")
        if rows.shape[-1] < 1:
            raise ValueError("batch must contain at least one row")
        if worker is not None:
            a, y = self.shard(worker)
            return a.take(rows, axis=0), y.take(rows, axis=0)
        # one flat `take` per array; the guard keeps a row inside its own shard
        n = self.rows_per_shard
        low, high = np.minimum.reduce(rows, axis=None), np.maximum.reduce(rows, axis=None)
        if low < -n or high >= n:
            raise IndexError(f"stacked rows must lie in [{-n}, {n}), got rows in [{low}, {high}]")
        flat = rows + self._shard_starts
        if low < 0:
            np.add(flat, n, out=flat, where=rows < 0)
        return self.design.take(flat, axis=0), self.labels.take(flat, axis=0)

    def loss(self, x: np.ndarray, rows: np.ndarray, worker: int | None = None) -> float | np.ndarray:
        """(1/2B)||A_b X - Y_b||_F^2: a float for one worker, an (M,) array stacked."""
        ab, yb = self._rows(rows, worker)
        resid = ab @ x
        resid -= yb
        squares = np.multiply(resid, resid, out=resid)
        # one pairwise sum over each worker's B*q squares, as np.sum does for one
        total = np.add.reduce(squares.reshape(squares.shape[:-2] + (-1,)), axis=-1)
        out = 0.5 * total / rows.shape[-1]
        return float(out) if out.ndim == 0 else out

    def stoch_gradient(self, x: np.ndarray, rows: np.ndarray, worker: int | None = None, out=None) -> np.ndarray:
        """A_b^T (A_b X - Y_b) / B, written into `out` when given."""
        ab, yb = self._rows(rows, worker)
        resid = ab @ x
        resid -= yb
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

