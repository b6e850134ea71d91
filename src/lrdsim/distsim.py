"""Multi-worker training loop with decoupled synchronization.

Workers run local low-rank Adam steps between barriers. At step t
(0-based), the first moment syncs when (t+1) % K_u == 0, the second when
(t+1) % K_v == 0, and parameters when (t+1) % K_x == 0. A parameter
sync averages pseudo-gradients (optionally Top-K sparsified per worker),
applies the outer optimizer on the shared anchor, and, for the global
strategy, recomputes the shared basis from the aggregated
pseudo-gradient and rotates every worker's moments. The local strategy
instead refreshes each worker's own basis from its clipped gradient
plus error buffer at steps with (t-1) % K_x == 0. A refresh forms the
rotation R = Q_new^T Q_old once, rotates the moments with it, and
derives the logged MSSV and sin-theta from it.

The M workers are stacked: parameters, anchors and error buffers are one
(M, p, q) array, moments one (M, r, q) array and bases one (M, p, r)
array, and the optimizer kernels run once per step over the whole stack.
Execution is serial and deterministic on a given machine and BLAS build:
per-worker RNG streams derive from (master_seed, worker_id) and never
mix. Each worker draws its batches from its own stream, training batch
then eval batch, one `sample_batch` call each. The held-out eval scores
all M workers in one stacked `loss` call, bitwise equal to M per-worker
calls. The training gradients and their compression stay one (p, q)
call per worker: the benchmark's per-layer counters read those calls'
2-D shapes and batch size, so they move only with the benchmark.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator, Optional

import numpy as np

from . import costs
from .config import OUTER_NESTEROV, PROJECTION_INIT_IDENTITY, RunConfig
from .costs import STRATEGY_GLOBAL, STRATEGY_LOCAL, CostInputs
from .linalg import clip_frobenius
from .optimizer import QHM_NONE, compress_gradient, compute_update, update_moments
from .problems import Batch, MatrixRegression
from .projection import (
    DegenerateSignalError,
    identity_projection,
    projection_with_spectrum,
    random_projection,
    rotate_first_moment,
    rotate_second_moment,
    rotation_matrix,
    subspace_metrics_from_update,
)

ELEMENT_SIZE = 8  # bytes per float64 scalar on the wire


@dataclass
class StepRecord:
    """One logged row per optimization step."""

    step: int
    worker_losses: list
    mean_loss: Optional[float]
    bytes_uplink: int
    bytes_downlink: int
    subspace: Optional[list]
    diverged: bool = False

    def to_json_dict(self) -> dict:
        return {
            "kind": "step",
            "step": self.step,
            "worker_losses": self.worker_losses,
            "mean_loss": self.mean_loss,
            "bytes_uplink": self.bytes_uplink,
            "bytes_downlink": self.bytes_downlink,
            "subspace": self.subspace,
            "diverged": self.diverged,
        }


@dataclass
class WorkerStack:
    """Everything the M workers own between barriers, stacked on axis 0.

    Every worker takes a moment update each step, so one step counter
    serves all of them.
    """

    x: np.ndarray  # (M, p, q) parameters
    anchor: np.ndarray  # (M, p, q) parameters at the last sync
    error: np.ndarray  # (M, p, q) error-feedback buffers
    u: np.ndarray  # (M, r, q) first moments
    v: np.ndarray  # (M, r, q) second moments
    basis: np.ndarray  # (M, p, r) column-orthonormal bases
    rngs: list
    step: int = 0


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
    """Executes one experiment; iterate `records()` for the log stream."""

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
        self.rank = config.rank
        m_count = config.workers
        if config.projection_init() == PROJECTION_INIT_IDENTITY:
            basis = identity_projection(pc.rows, self.rank)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=config.master_seed, spawn_key=(2, 0)))
            basis = random_projection(pc.rows, self.rank, rng)
        x = np.stack([self.problem.init_params() for _ in range(m_count)])
        self.stack = WorkerStack(
            x=x,
            anchor=x.copy(),
            error=np.zeros_like(x),
            u=np.zeros((m_count, self.rank, pc.cols)),
            v=np.zeros((m_count, self.rank, pc.cols)),
            basis=np.stack([basis] * m_count),
            rngs=[
                np.random.default_rng(np.random.SeedSequence(entropy=config.master_seed, spawn_key=(1, m)))
                for m in range(m_count)
            ],
        )
        self.outer_velocity = np.zeros((pc.rows, pc.cols))
        self.basis_inconsistent = (
            config.projection.strategy == STRATEGY_LOCAL and config.workers > 1
        )
        self._payload = costs.per_payload(
            config.projection.strategy,
            config.qhm.mode,
            CostInputs(p=pc.rows, q=pc.cols, r=self.rank),
        )

    # ---- per-step phases -------------------------------------------------

    def _local_step(self, t: int) -> list:
        """One step on every worker; returns this step's local-refresh metrics in worker order."""
        cfg = self.cfg
        hp = cfg.hyperparams
        s = self.stack
        ef = cfg.flags.error_feedback
        # one full-size buffer carries the gradients, their clipped form and the update
        grad = np.empty_like(s.x)
        for m, rng in enumerate(s.rngs):
            batch = self.problem.sample_batch(m, cfg.problem.batch_size, rng)
            self.problem.stoch_gradient(s.x[m], batch, out=grad[m])
        clip_frobenius(grad, hp.clip_radius, out=grad)
        refreshed = []
        if (
            cfg.projection.strategy == STRATEGY_LOCAL
            and cfg.projection.refresh
            and (t - 1) % cfg.schedule.k_x == 0
        ):
            for m in range(cfg.workers):
                metrics = self._refresh_projection(grad[m] + s.error[m] if ef else grad[m], m)
                if metrics is not None:
                    refreshed.append(metrics)
        g = np.empty_like(s.u)
        for m in range(cfg.workers):
            g[m], _ = compress_gradient(grad[m], s.error[m], s.basis[m], out=s.error[m] if ef else None)
        update_moments(s, g, hp.beta1, hp.beta2)
        mode = QHM_NONE if t < cfg.qhm.start_step else cfg.qhm.mode
        upd = compute_update(s, grad, g, mode, hp, cfg.qhm.omega, cfg.flags.mu_semantics, out=grad)
        upd *= hp.lr_at(t)
        s.x -= upd
        return refreshed

    def _refresh_projection(self, signal: np.ndarray, m: Optional[int] = None):
        """Move worker m (every worker when None) to the basis of `signal`; return its metrics.

        A degenerate signal keeps the stale basis and returns None.
        """
        s = self.stack
        rows = slice(None) if m is None else slice(m, m + 1)
        try:
            new, sig_s = projection_with_spectrum(signal, self.rank)
        except DegenerateSignalError:
            return None
        # the global strategy holds one basis on every worker, so row 0 serves
        old = s.basis[0 if m is None else m]
        r_mat = rotation_matrix(new, old)
        if self.cfg.flags.rotate_moments and s.step > 0:
            hp = self.cfg.hyperparams
            s.v[rows] = rotate_second_moment(r_mat, s.u[rows], s.v[rows], hp.beta1, hp.beta2, s.step)
            s.u[rows] = rotate_first_moment(r_mat, s.u[rows])
        # `old` is a view into the stack: measure before the new basis overwrites it
        metrics = subspace_metrics_from_update(new, old, r_mat, sig_s)
        s.basis[rows] = new
        return metrics

    def _sync_phase(self, t: int, refreshed: list) -> tuple[int, int, Optional[list]]:
        """Fire the syncs due after step t; `refreshed` holds the step's local-refresh metrics."""
        cfg = self.cfg
        sched = cfg.schedule
        s = self.stack
        pay = self._payload
        uplink = downlink = 0
        subspace: Optional[list] = None
        if (t + 1) % sched.k_u == 0:
            s.u[:] = s.u.mean(axis=0)
            uplink += pay.up_first
            downlink += pay.down_first
        if (t + 1) % sched.k_v == 0:
            s.v[:] = s.v.mean(axis=0)
            uplink += pay.up_second
            downlink += pay.down_second
        if (t + 1) % sched.k_x == 0:
            subspace = self._sync_params(t)
            uplink += pay.up_params + pay.up_projection
            downlink += pay.down_params + pay.down_projection
        if refreshed:  # local refreshes: log their worker mean
            subspace = [{key: float(np.mean([getattr(x, key) for x in refreshed])) for key in asdict(refreshed[0])}]
        return uplink * ELEMENT_SIZE, downlink * ELEMENT_SIZE, subspace

    def _sync_params(self, t: int) -> Optional[list]:
        cfg = self.cfg
        s = self.stack
        anchor0 = s.anchor[0].tobytes()
        for m in range(1, cfg.workers):
            if s.anchor[m].tobytes() != anchor0:
                raise RuntimeError(f"anchor mismatch between workers 0 and {m} at step {t}")
        # the pseudo-gradients overwrite x, which receives x_new below
        deltas = np.subtract(s.x, s.anchor, out=s.x)
        if cfg.flags.sparsify_keep < 1.0:
            for m in range(cfg.workers):
                deltas[m] = sparsify_topk(deltas[m], cfg.flags.sparsify_keep)
        delta = deltas.mean(axis=0)
        if cfg.outer.kind == OUTER_NESTEROV:
            self.outer_velocity = cfg.outer.outer_momentum * self.outer_velocity + delta
            x_new = s.anchor[0] + cfg.outer.outer_lr * (
                delta + cfg.outer.outer_momentum * self.outer_velocity
            )
        else:
            x_new = s.anchor[0] + delta
        metrics = None
        if cfg.projection.strategy == STRATEGY_GLOBAL and cfg.projection.refresh:
            metrics = self._refresh_projection(delta)
        s.x[:] = x_new
        s.anchor[:] = x_new
        return None if metrics is None else [asdict(metrics)]

    # ---- main loop ---------------------------------------------------------

    def records(self) -> Iterator[StepRecord]:
        s = self.stack
        prob = self.problem
        batch_size = self.cfg.problem.batch_size
        workers = np.arange(self.cfg.workers)
        eval_rows = np.empty((self.cfg.workers, batch_size), dtype=np.int64)
        for t in range(self.cfg.steps):
            refreshed = self._local_step(t)
            uplink, downlink, subspace = self._sync_phase(t, refreshed)
            # held-out evaluation: a fresh batch from each worker's stream,
            # drawn after the step's training batch, scored in one stacked call
            for m, rng in enumerate(s.rngs):
                eval_rows[m] = prob.sample_batch(m, batch_size, rng).indices
            losses = prob.loss(s.x, Batch(workers, eval_rows)).tolist()
            worker_losses = [x if math.isfinite(x) else None for x in losses]
            diverged = None in worker_losses or not np.isfinite(s.x).all()
            yield StepRecord(
                step=t,
                worker_losses=worker_losses,
                mean_loss=None if diverged else float(np.mean(losses)),
                bytes_uplink=uplink,
                bytes_downlink=downlink,
                subspace=subspace,
                diverged=diverged,
            )
            if diverged:
                return


def run_experiment(config: RunConfig) -> Iterator[StepRecord]:
    """Run one experiment, yielding a StepRecord per step."""
    return Engine(config).records()
