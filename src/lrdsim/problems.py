"""Synthetic matrix-valued objectives with closed-form stochastic gradients.

Two problem families:

* MatrixRegression: sharded least squares (1/2B)||A_b X - Y_b||_F^2 with
  labels Y = A X* + noise. Workers own disjoint row blocks of the global
  design, so the mean of shard gradients is the global gradient. The
  ground truth X* is either dense Gaussian or a seeded low-rank matrix
  with a power-law spectrum (rank phenomena need a low-rank target at
  desk scale).

* PowerLawOracle: a fixed matrix with singular values C k^(-alpha) plus
  controllable Gaussian observation noise whose Frobenius norm
  concentrates at kappa / sqrt(B). Used for projection-stability
  studies; kappa is pinned operationally as the expected Frobenius
  perturbation at B = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SHARD_IID = "iid"
SHARD_FEATURE_BLOCKS = "feature_blocks"
SHARD_POLICIES = (SHARD_IID, SHARD_FEATURE_BLOCKS)


@dataclass(frozen=True)
class Batch:
    """Row indices into worker shards.

    One worker: an int `worker_id` and (B,) `indices`. Stacked workers: an
    (M,) array of worker ids and (M, B) `indices`, one row per worker.
    """

    worker_id: int | np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        if self.indices.shape[-1] < 1:
            raise ValueError("batch must contain at least one row")

    @property
    def size(self) -> int:
        """Rows per worker (B)."""
        return self.indices.shape[-1]


class MatrixRegression:
    """Sharded matrix least squares with label noise.

    The global design has `n_rows` standard-Gaussian rows split into
    `workers` equal consecutive blocks, held as (M, n_rows/M, p) and
    (M, n_rows/M, q) views (`design_shards`, `label_shards`) of the
    `design` and `labels` buffers. With the feature_blocks policy, shard m
    additionally zeroes all design columns outside its own p/workers
    feature block, which confines worker gradients to disjoint coordinate
    rows (used for the orthogonal-subspace constructions).

    `loss` and `stoch_gradient` take one worker's batch with (p, q)
    parameters, or a stacked batch with (M, p, q) parameters and then
    answer for every worker at once, each bitwise equal to its own call.
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
        design = rng.standard_normal((n_rows, p))
        if shard_policy == SHARD_FEATURE_BLOCKS:
            # row m of the mask keeps worker m's own p/workers columns
            mask = np.repeat(np.eye(workers), p // workers, axis=1)
            design = (design.reshape(workers, self.rows_per_shard, p) * mask[:, None, :]).reshape(n_rows, p)
        self.design = design
        if target_rank is None:
            self.x_star = rng.standard_normal((p, q)) / np.sqrt(p)
        else:
            left, _ = np.linalg.qr(rng.standard_normal((p, target_rank)))
            right, _ = np.linalg.qr(rng.standard_normal((q, target_rank)))
            spectrum = np.arange(1, target_rank + 1, dtype=np.float64) ** -target_alpha
            self.x_star = (left * spectrum) @ right.T
        self.labels = design @ self.x_star + noise_std * rng.standard_normal((n_rows, q))
        self.design_shards = self.design.reshape(workers, self.rows_per_shard, p)
        self.label_shards = self.labels.reshape(workers, self.rows_per_shard, q)

    def shard(self, worker_id: int) -> tuple[np.ndarray, np.ndarray]:
        if not (0 <= worker_id < self.workers):
            raise ValueError(f"worker_id {worker_id} out of range")
        return self.design_shards[worker_id], self.label_shards[worker_id]

    def sample_batch(self, worker_id: int, batch_size: int, rng: np.random.Generator) -> Batch:
        if not (1 <= batch_size <= self.rows_per_shard):
            raise ValueError(f"batch_size {batch_size} out of range for shard of {self.rows_per_shard}")
        idx = rng.choice(self.rows_per_shard, size=batch_size, replace=False)
        return Batch(worker_id=worker_id, indices=idx)

    def _rows(self, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
        """(A_b, Y_b): (B, p) and (B, q) for one worker, (M, B, p) and (M, B, q) stacked."""
        ids = batch.worker_id
        if isinstance(ids, np.ndarray):
            if ids.min() < 0 or ids.max() >= self.workers:
                raise ValueError(f"worker_id {ids} out of range")
            rows = (ids[:, None], batch.indices)
            return self.design_shards[rows], self.label_shards[rows]
        a, y = self.shard(ids)
        return a.take(batch.indices, axis=0), y.take(batch.indices, axis=0)

    def loss(self, x: np.ndarray, batch: Batch) -> float | np.ndarray:
        """(1/2B)||A_b X - Y_b||_F^2: a float for one worker, an (M,) array stacked."""
        ab, yb = self._rows(batch)
        resid = ab @ x - yb
        squares = np.multiply(resid, resid, out=resid)
        # one pairwise sum over each worker's B*q squares, as np.sum does for one
        total = np.add.reduce(squares.reshape(squares.shape[:-2] + (-1,)), axis=-1)
        out = 0.5 * total / batch.size
        return float(out) if out.ndim == 0 else out

    def stoch_gradient(self, x: np.ndarray, batch: Batch, out=None) -> np.ndarray:
        """A_b^T (A_b X - Y_b) / B, written into `out` when given."""
        ab, yb = self._rows(batch)
        grad = np.matmul(ab.swapaxes(-1, -2), ab @ x - yb, out=out)
        grad /= batch.size
        return grad

    def init_params(self) -> np.ndarray:
        return np.zeros((self.p, self.q))


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
