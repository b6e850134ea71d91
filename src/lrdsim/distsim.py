"""Multi-worker training loop with decoupled synchronization.

Workers run local low-rank Adam steps between barriers. At step t
(0-based), the first moment syncs when (t+1) % K_u == 0, the second when
(t+1) % K_v == 0, and parameters when (t+1) % K_x == 0. A parameter
sync averages the M workers' dense (p, q) pseudo-gradients,
moves the shared anchor by their mean, and, for the global strategy,
refreshes the shared basis from that mean, the aggregated
pseudo-gradient. The local strategy instead refreshes each worker's own
basis from its clipped gradient plus error buffer at steps with
(t-1) % K_x == 0. The strategy fixes the starting basis: one seeded
random basis that every worker shares for global, np.eye(p, r) for
local. Both refreshes go through one routine, `Engine._refresh`, on a
stack of signals: the global signal's rotation turns every worker's
moments, a local signal's only its own worker's. Each refresh forms the
rotation R = Q_new^T Q_old once, rotates the moments with it, and
derives the logged MSSV and sin-theta from it; a degenerate or
non-finite signal keeps its stale basis and moments.

Invariant: E_m = 0 right after worker m's basis is replaced. The error
buffer holds what compression discarded against the basis it was
compressed with, so a refresh that replaces the basis empties it, and
||E_m||_F never exceeds the clip radius times the compressions since.
While a basis stays fixed, compression keeps Q^T E = 0, so E never
reaches the compressed gradient; only the local strategy reads it, in
its refresh signal. Under the global strategy `error_feedback: true`
therefore equals EF off, up to rounding.

The M workers are stacked: parameters and error buffers are one
(M, p, q) array, moments one (M, r, q) array and bases one (M, p, r)
array, and the optimizer kernels run once per step over the whole stack.
Every worker restarts each sync window from the one (p, q) anchor.
Execution is serial and deterministic on a given machine and BLAS build:
per-worker RNG streams derive from (master_seed, worker_id) and never
mix. Each worker draws its batches from its own stream, training batch
then eval batch, a block of BLOCK_STEPS steps at a time: at the block's
first step one `sample_batch` call per worker draws all of the block's
batches, bit for bit the rows and stream of one `choice` call per batch.
`sample_batch` yields shard rows; the engine adds each worker's
`shard_starts` entry to its block once, so every batch it hands the
objective is a plain array of design rows. The held-out eval scores all
M workers in one stacked `loss` call on (M, B) rows, bitwise equal to M
per-worker calls. Every mean the step and sync paths take (the u and v
syncs, the pseudo-gradient, the logged mean loss, the refresh metrics)
is `np.add.reduce(a, axis=0) / count`:
the pairwise sum and true division of `np.mean`, without its
Python-level wrapper. The training gradients and their compression
stay one (p, q) call per worker: the benchmark's per-layer counters read
those calls' 2-D shapes, and the batch size as the `.size` of the
gradient's third positional argument, the worker's (B,) rows, so they
move only with the benchmark.

`Engine.records()` yields each step's log record as the dict that
`logio.write_log` writes, and stops after the first diverged one; the
log header's fields come from the config alone (`logio.header_record`).
A step diverges exactly when a worker's held-out loss is non-finite:
every design entry is finite, so a non-finite parameter makes its
worker's loss non-finite (0 * inf = NaN), and a finite refresh signal
gives a finite subspace entry at any scale. Basis orthonormality is a
tested property of gesdd and Gram-Schmidt, not a run-time check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import costs
from .config import BLOCK_STEPS, RunConfig
from .costs import STRATEGY_GLOBAL, STRATEGY_LOCAL, CostInputs
from .linalg import NonFiniteError, clip_frobenius
from .optimizer import QHM_NONE, compress_gradient, compute_update, update_moments
from .problems import MatrixRegression
from .projection import (
    DegenerateSignalError,
    projection_with_spectrum,
    random_projection,
    rotate_first_moment,
    rotate_second_moment,
    rotation_matrix,
    subspace_metrics_from_update,
)

ELEMENT_SIZE = 8  # bytes per float64 scalar on the wire


@dataclass
class WorkerStack:
    """Everything the M workers own between barriers, stacked on axis 0."""

    x: np.ndarray  # (M, p, q) parameters
    error: np.ndarray  # (M, p, q) error-feedback buffers
    u: np.ndarray  # (M, r, q) first moments
    v: np.ndarray  # (M, r, q) second moments
    basis: np.ndarray  # (M, p, r) column-orthonormal bases
    rngs: list


# uncalled, but kept: the benchmark's tracer targets it, and tests/test_bench_tracer.py asserts no target is absent
def sparsify_topk(delta: np.ndarray, keep_fraction: float) -> np.ndarray:
    """Keep the ceil(keep_fraction * size) largest-|.| entries, zero the rest.

    Ties break toward the lowest linear index.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise ValueError(f"keep_fraction must lie in (0, 1], got {keep_fraction}")
    if keep_fraction == 1.0:
        return delta
    keep = int(np.ceil(keep_fraction * delta.size))
    order = np.argsort(-np.abs(delta).ravel(), kind="stable")[:keep]
    out = np.zeros_like(delta)
    out.ravel()[order] = delta.ravel()[order]
    return out


class Engine:
    """Executes one experiment; `records()` yields the log's step records."""

    def __init__(self, config: RunConfig):
        self.cfg = config
        pc = config.problem
        self.problem = MatrixRegression(
            p=pc.rows,
            q=pc.cols,
            n_rows=pc.design_rows,
            workers=config.workers,
            noise_std=pc.noise_std,
            seed=config.master_seed,
            shard_policy=pc.shard_policy,
            target_rank=pc.target_rank,
            target_alpha=pc.target_alpha,
        )
        rank = config.rank
        m_count = config.workers
        if config.projection.strategy == STRATEGY_LOCAL:
            basis = np.eye(pc.rows, rank)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=config.master_seed, spawn_key=(2, 0)))
            basis = random_projection(pc.rows, rank, rng)
        self.anchor = np.zeros((pc.rows, pc.cols))  # (p, q) parameters at the last sync
        x = np.stack([self.anchor] * m_count)
        self.stack = WorkerStack(
            x=x,
            error=np.zeros_like(x),
            u=np.zeros((m_count, rank, pc.cols)),
            v=np.zeros((m_count, rank, pc.cols)),
            basis=np.stack([basis] * m_count),
            rngs=[
                np.random.default_rng(np.random.SeedSequence(entropy=config.master_seed, spawn_key=(1, m)))
                for m in range(m_count)
            ],
        )
        self._payload = costs.per_payload(
            config.projection.strategy,
            config.qhm.mode,
            CostInputs(p=pc.rows, q=pc.cols, r=rank),
        )

    # ---- per-step phases -------------------------------------------------

    def _local_step(self, t: int, rows: np.ndarray) -> Optional[dict]:
        """One step on every worker's (M, B) training design `rows`; returns this step's local-refresh subspace entry."""
        cfg = self.cfg
        hp = cfg.hyperparams
        s = self.stack
        ef = cfg.flags.error_feedback
        # one full-size buffer carries the gradients, their clipped form and the update
        grad = np.empty_like(s.x)
        for m in range(cfg.workers):
            self.problem.stoch_gradient(s.x[m], rows[m], out=grad[m])
        clip_frobenius(grad, hp.clip_radius, out=grad)
        entry = None
        if (
            cfg.projection.strategy == STRATEGY_LOCAL
            and cfg.projection.refresh
            and (t - 1) % cfg.schedule.k_x == 0
        ):
            entry = self._refresh(grad + s.error if ef else grad, t)  # before step t's moment update
        g = np.empty_like(s.u)
        for m in range(cfg.workers):
            g[m], _ = compress_gradient(grad[m], s.error[m], s.basis[m], out=s.error[m] if ef else None)
        update_moments(s.u, s.v, g, hp.beta1, hp.beta2)
        mode = QHM_NONE if t < cfg.qhm.start_step else cfg.qhm.mode
        upd = compute_update(s.u, s.v, s.basis, t + 1, grad, g, mode, hp, cfg.qhm.omega, out=grad)
        upd *= hp.lr_at(t)
        s.x -= upd
        return entry

    def _refresh(self, signals: np.ndarray, t: int) -> Optional[dict]:
        """Move each basis to the top-r left singular vectors of its signal; return the subspace entry.

        `signals` is a (k, p, q) stack: k = 1 holds the global signal,
        whose basis every worker shares, and k = M one signal per worker.
        Signal j's rotation turns the moments of every worker when k = 1
        and of worker j otherwise; the same workers' error buffers are
        emptied with the basis. A degenerate signal keeps its stale basis
        and error buffers, and so does a non-finite one: some worker's
        parameters and so its loss are then non-finite, which marks the
        step diverged. New bases are orthonormal by gesdd, unchecked. The
        entry holds each metric's mean over the bases that moved, or is
        None when none moved. `t` counts the moment updates taken so far;
        with t = 0 there are no moments to rotate.
        """
        s = self.stack
        hp = self.cfg.hyperparams
        moved = []
        for j, signal in enumerate(signals):
            try:
                new, sig_s = projection_with_spectrum(signal, self.cfg.rank)
            except (DegenerateSignalError, NonFiniteError):
                continue
            rows = slice(None) if len(signals) == 1 else slice(j, j + 1)
            old = s.basis[j]
            r_mat = rotation_matrix(new, old)
            if self.cfg.flags.rotate_moments and t > 0:
                s.v[rows] = rotate_second_moment(r_mat, s.u[rows], s.v[rows], hp.beta1, hp.beta2, t)
                s.u[rows] = rotate_first_moment(r_mat, s.u[rows])
            # `old` is a view into the stack: measure before the new basis overwrites it
            moved.append(subspace_metrics_from_update(new, old, r_mat, sig_s))
            s.basis[rows] = new
            s.error[rows] = 0.0
        if not moved:
            return None
        return {key: float(np.add.reduce([m[key] for m in moved]) / len(moved)) for key in moved[0]}

    def _sync_phase(self, t: int, entry: Optional[dict]) -> tuple[int, int, Optional[dict]]:
        """Fire the syncs due after step t; `entry` is the step's local-refresh subspace entry."""
        cfg = self.cfg
        sched = cfg.schedule
        s = self.stack
        pay = self._payload
        uplink = downlink = 0
        if (t + 1) % sched.k_u == 0:
            s.u[:] = np.add.reduce(s.u, axis=0) / cfg.workers
            uplink += pay.up_first
            downlink += pay.down_first
        if (t + 1) % sched.k_v == 0:
            s.v[:] = np.add.reduce(s.v, axis=0) / cfg.workers
            uplink += pay.up_second
            downlink += pay.down_second
        if (t + 1) % sched.k_x == 0:
            # the pseudo-gradients overwrite x, which receives the new anchor below
            delta = np.add.reduce(np.subtract(s.x, self.anchor, out=s.x), axis=0) / cfg.workers
            if cfg.projection.strategy == STRATEGY_GLOBAL and cfg.projection.refresh:
                entry = self._refresh(delta[None], t + 1)  # after step t's moment update
            self.anchor += delta
            s.x[:] = self.anchor
            uplink += pay.up_params + pay.up_projection
            downlink += pay.down_params + pay.down_projection
        return uplink * ELEMENT_SIZE, downlink * ELEMENT_SIZE, entry

    # ---- main loop ---------------------------------------------------------

    def records(self) -> Iterator[dict]:
        s = self.stack
        prob = self.problem
        steps = self.cfg.steps
        batch_size = self.cfg.problem.batch_size
        for t in range(steps):
            row = 2 * (t % BLOCK_STEPS)
            if row == 0:
                # (M, 2 x the block's steps, B): the block's step i trains on row 2i, evaluates on row 2i+1
                count = 2 * min(BLOCK_STEPS, steps - t)
                block = np.stack([prob.sample_batch(batch_size, rng, count) for rng in s.rngs])
                block += prob.shard_starts[:, None, None]  # shard rows -> design rows
            uplink, downlink, entry = self._sync_phase(t, self._local_step(t, block[:, row]))
            # held-out evaluation: a fresh batch from each worker's stream,
            # drawn after the step's training batch, scored in one stacked call
            losses = prob.loss(s.x, block[:, row + 1])
            worker_losses = [x if math.isfinite(x) else None for x in losses.tolist()]
            diverged = None in worker_losses
            yield {
                "kind": "step",
                "step": t,
                "worker_losses": worker_losses,
                "mean_loss": None if diverged else float(np.add.reduce(losses) / len(losses)),
                "bytes_uplink": uplink,
                "bytes_downlink": downlink,
                "subspace": None if entry is None else [entry],
                "diverged": diverged,
            }
            if diverged:
                return

