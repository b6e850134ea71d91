"""Multi-worker training loop with decoupled synchronization.

Workers run local low-rank Adam steps between barriers. At step t
(0-based), the first moment syncs when (t+1) % K_u == 0, the second when
(t+1) % K_v == 0, and parameters when (t+1) % K_x == 0. A parameter
sync averages pseudo-gradients (optionally Top-K sparsified per worker),
applies the outer optimizer on the shared anchor, and, for the global
strategy, recomputes the shared projection from the aggregated
pseudo-gradient and rotates every worker's moments. The local strategy
instead refreshes each worker's own projection from its clipped
gradient plus error buffer at steps with (t-1) % K_x == 0.

Execution is deterministic: per-worker RNG streams derive from
(master_seed, worker_id) and never mix, and the worker-parallel phase
touches only per-worker state, so thread-parallel and serial runs emit
byte-identical records.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import costs
from .config import OUTER_NESTEROV, PROJECTION_INIT_IDENTITY, RunConfig
from .costs import STRATEGY_GLOBAL, STRATEGY_LOCAL, CostInputs
from .linalg import clip_frobenius
from .optimizer import (
    QHM_NONE,
    HyperParams,
    LowRankOptState,
    compress_gradient,
    compute_update,
    update_moments,
)
from .problems import MatrixRegression
from .projection import (
    SOURCE_AGGREGATED,
    SOURCE_LOCAL_EF,
    DegenerateSignalError,
    Projection,
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
    """One logged row per optimization step.

    `duration_s` is informational only and never serialized (logs must
    be byte-identical across invocations).
    """

    step: int
    worker_losses: list
    mean_loss: Optional[float]
    bytes_uplink: int
    bytes_downlink: int
    subspace: Optional[list]
    diverged: bool = False
    duration_s: float = 0.0

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
class WorkerState:
    """Everything one worker owns between synchronization barriers."""

    worker_id: int
    params: list
    opt: list
    anchor: list
    rng: np.random.Generator
    pending_metrics: list = field(default_factory=list)


def sparsify_topk(delta: np.ndarray, keep_fraction: float) -> np.ndarray:
    """Keep the ceil(keep_fraction * size) largest-|.| entries, zero the rest.

    Ties break toward the lowest linear index.
    """
    if not (0.0 < keep_fraction <= 1.0):
        raise ValueError(f"keep_fraction must lie in (0, 1], got {keep_fraction}")
    if keep_fraction == 1.0:
        return delta
    size = delta.size
    keep = int(np.ceil(keep_fraction * size))
    order = np.argsort(-np.abs(delta).ravel(), kind="stable")[:keep]
    out = np.zeros_like(delta)
    out.ravel()[order] = delta.ravel()[order]
    return out


def _worker_rng(master_seed: int, worker_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(1, worker_id)))


class Engine:
    """Executes one experiment; iterate `records()` for the log stream."""

    def __init__(self, config: RunConfig, threads: Optional[int] = None):
        self.cfg = config
        self.threads = threads if threads is not None else config.workers
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
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
        self.hp: HyperParams = config.hyper_params()
        self.layers = [(pc.rows, pc.cols)]
        self.rank = config.rank
        init_projs = self._initial_projections()
        self.workers = []
        for m in range(config.workers):
            params = [self.problem.init_params() for _ in self.layers]
            opt = [
                LowRankOptState.fresh(p, q, init_projs[li])
                for li, (p, q) in enumerate(self.layers)
            ]
            self.workers.append(
                WorkerState(
                    worker_id=m,
                    params=params,
                    opt=opt,
                    anchor=[x.copy() for x in params],
                    rng=_worker_rng(config.master_seed, m),
                )
            )
        self.outer_velocity = [np.zeros((p, q)) for (p, q) in self.layers]
        self.basis_inconsistent = (
            config.projection.strategy == STRATEGY_LOCAL and config.workers > 1
        )
        self._payloads = [
            costs.per_payload(
                config.projection.strategy,
                config.qhm.mode,
                CostInputs(p=p, q=q, r=self.rank, workers=config.workers),
            )
            for (p, q) in self.layers
        ]

    def _initial_projections(self) -> list:
        cfg = self.cfg
        init = cfg.projection_init()
        projs = []
        for li, (p, _q) in enumerate(self.layers):
            if init == PROJECTION_INIT_IDENTITY:
                projs.append(identity_projection(p, self.rank))
            else:
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(2, li))
                )
                projs.append(random_projection(p, self.rank, rng))
        return projs

    # ---- per-step phases -------------------------------------------------

    def _qhm_mode_at(self, t: int) -> str:
        if t < self.cfg.qhm.start_step:
            return QHM_NONE
        return self.cfg.qhm.mode

    def _local_step(self, worker: WorkerState, t: int) -> None:
        cfg = self.cfg
        mode = self._qhm_mode_at(t)
        eta = self.hp.lr_at(t)
        refresh_local = (
            cfg.projection.strategy == STRATEGY_LOCAL
            and cfg.projection.refresh
            and (t - 1) % cfg.schedule.k_x == 0
        )
        batch = self.problem.sample_batch(worker.worker_id, cfg.problem.batch_size, worker.rng)
        worker.pending_metrics = []
        for li in range(len(self.layers)):
            state: LowRankOptState = worker.opt[li]
            grad = clip_frobenius(
                self.problem.stoch_gradient(worker.params[li], batch), self.hp.clip_radius
            )
            if refresh_local:
                signal = grad + state.error if cfg.flags.error_feedback else grad
                self._refresh_worker_projection(worker, li, signal, t)
            g, new_error = compress_gradient(grad, state)
            if cfg.flags.error_feedback:
                state.error = new_error
            update_moments(state, g, self.hp.beta1, self.hp.beta2)
            upd = compute_update(state, grad, g, mode, self.hp, cfg.flags.mu_semantics)
            worker.params[li] = worker.params[li] - eta * upd

    def _refresh_worker_projection(self, worker: WorkerState, li: int, signal: np.ndarray, t: int) -> None:
        state: LowRankOptState = worker.opt[li]
        try:
            new_proj, sig_s = projection_with_spectrum(
                signal, self.rank, step=t, source=SOURCE_LOCAL_EF
            )
        except DegenerateSignalError:
            return  # keep the stale projection
        metrics = subspace_metrics_from_update(new_proj, state.proj, sig_s)
        r_mat = rotation_matrix(new_proj, state.proj)
        if self.cfg.flags.rotate_moments and state.step > 0:
            state.v = rotate_second_moment(
                r_mat, state.u, state.v, self.hp.beta1, self.hp.beta2, state.step
            )
            state.u = rotate_first_moment(r_mat, state.u)
        state.proj = new_proj
        worker.pending_metrics.append((li, metrics))

    def _sync_phase(self, t: int) -> tuple[int, int, Optional[list]]:
        cfg = self.cfg
        sched = cfg.schedule
        m_count = cfg.workers
        uplink = 0
        downlink = 0
        subspace: Optional[list] = None
        if (t + 1) % sched.k_u == 0:
            for li in range(len(self.layers)):
                mean_u = np.mean([w.opt[li].u for w in self.workers], axis=0)
                for w in self.workers:
                    w.opt[li].u = mean_u.copy()
                uplink += self._payloads[li].up_first
                downlink += self._payloads[li].down_first
        if (t + 1) % sched.k_v == 0:
            for li in range(len(self.layers)):
                mean_v = np.mean([w.opt[li].v for w in self.workers], axis=0)
                for w in self.workers:
                    w.opt[li].v = mean_v.copy()
                uplink += self._payloads[li].up_second
                downlink += self._payloads[li].down_second
        if (t + 1) % sched.k_x == 0:
            subspace = self._sync_params(t)
            for li in range(len(self.layers)):
                uplink += self._payloads[li].up_params + self._payloads[li].up_projection
                downlink += self._payloads[li].down_params + self._payloads[li].down_projection
        elif cfg.projection.strategy == STRATEGY_LOCAL:
            subspace = self._collect_local_metrics()
        return uplink * ELEMENT_SIZE, downlink * ELEMENT_SIZE, subspace

    def _sync_params(self, t: int) -> Optional[list]:
        cfg = self.cfg
        anchor0 = self.workers[0].anchor
        for w in self.workers[1:]:
            for li in range(len(self.layers)):
                if w.anchor[li].tobytes() != anchor0[li].tobytes():
                    raise RuntimeError(
                        f"anchor mismatch between workers 0 and {w.worker_id} at step {t}"
                    )
        subspace = None
        for li in range(len(self.layers)):
            deltas = [
                sparsify_topk(w.params[li] - w.anchor[li], cfg.flags.sparsify_keep)
                for w in self.workers
            ]
            delta = np.mean(deltas, axis=0)
            if cfg.outer.kind == OUTER_NESTEROV:
                self.outer_velocity[li] = (
                    cfg.outer.outer_momentum * self.outer_velocity[li] + delta
                )
                x_new = anchor0[li] + cfg.outer.outer_lr * (
                    delta + cfg.outer.outer_momentum * self.outer_velocity[li]
                )
            else:
                x_new = anchor0[li] + delta
            if cfg.projection.strategy == STRATEGY_GLOBAL and cfg.projection.refresh:
                metrics = self._refresh_global_projection(li, delta, t)
                if metrics is not None:
                    if subspace is None:
                        subspace = [None] * len(self.layers)
                    subspace[li] = metrics
            for w in self.workers:
                w.params[li] = x_new.copy()
                w.anchor[li] = x_new.copy()
        if cfg.projection.strategy == STRATEGY_LOCAL:
            local = self._collect_local_metrics()
            if local is not None:
                subspace = local
        return subspace

    def _refresh_global_projection(self, li: int, delta: np.ndarray, t: int):
        old_proj: Projection = self.workers[0].opt[li].proj
        try:
            new_proj, sig_s = projection_with_spectrum(
                delta, self.rank, step=t, source=SOURCE_AGGREGATED
            )
        except DegenerateSignalError:
            return None  # keep the previous projection on every worker
        metrics = subspace_metrics_from_update(new_proj, old_proj, sig_s)
        r_mat = rotation_matrix(new_proj, old_proj)
        for w in self.workers:
            state = w.opt[li]
            if self.cfg.flags.rotate_moments and state.step > 0:
                state.v = rotate_second_moment(
                    r_mat, state.u, state.v, self.hp.beta1, self.hp.beta2, state.step
                )
                state.u = rotate_first_moment(r_mat, state.u)
            state.proj = new_proj
        return {
            "mssv": metrics.mssv,
            "stable_rank": metrics.stable_rank,
            "spectral_gap": metrics.spectral_gap,
            "sin_theta": metrics.sin_theta,
        }

    def _collect_local_metrics(self) -> Optional[list]:
        per_layer: dict[int, list] = {}
        for w in self.workers:
            for li, metrics in w.pending_metrics:
                per_layer.setdefault(li, []).append(metrics)
            w.pending_metrics = []
        if not per_layer:
            return None
        out: list = [None] * len(self.layers)
        for li, items in per_layer.items():
            out[li] = {
                "mssv": float(np.mean([m.mssv for m in items])),
                "stable_rank": float(np.mean([m.stable_rank for m in items])),
                "spectral_gap": float(np.mean([m.spectral_gap for m in items])),
                "sin_theta": float(np.mean([m.sin_theta for m in items])),
            }
        return out

    def _eval_losses(self) -> list:
        # held-out evaluation: a fresh batch from the same per-worker
        # stream, drawn after the step's training batch
        losses = []
        for w in self.workers:
            batch = self.problem.sample_batch(
                w.worker_id, self.cfg.problem.batch_size, w.rng
            )
            losses.append(self.problem.loss(w.params[0], batch))
        return losses

    def _finite(self, losses: list) -> bool:
        if not all(np.isfinite(x) for x in losses):
            return False
        for w in self.workers:
            for x in w.params:
                if not np.isfinite(x).all():
                    return False
        return True

    # ---- main loop ---------------------------------------------------------

    def records(self) -> Iterator[StepRecord]:
        cfg = self.cfg
        executor = None
        if self.threads > 1 and cfg.workers > 1:
            executor = ThreadPoolExecutor(max_workers=min(self.threads, cfg.workers))
        try:
            for t in range(cfg.steps):
                started = time.perf_counter()
                if executor is not None:
                    list(executor.map(lambda w: self._local_step(w, t), self.workers))
                else:
                    for w in self.workers:
                        self._local_step(w, t)
                uplink, downlink, subspace = self._sync_phase(t)
                losses = self._eval_losses()
                if not self._finite(losses):
                    yield StepRecord(
                        step=t,
                        worker_losses=[x if np.isfinite(x) else None for x in losses],
                        mean_loss=None,
                        bytes_uplink=uplink,
                        bytes_downlink=downlink,
                        subspace=subspace,
                        diverged=True,
                        duration_s=time.perf_counter() - started,
                    )
                    return
                yield StepRecord(
                    step=t,
                    worker_losses=[float(x) for x in losses],
                    mean_loss=float(np.mean(losses)),
                    bytes_uplink=uplink,
                    bytes_downlink=downlink,
                    subspace=subspace,
                    duration_s=time.perf_counter() - started,
                )
        finally:
            if executor is not None:
                executor.shutdown(wait=True)


def run_experiment(config: RunConfig, threads: Optional[int] = None) -> Iterator[StepRecord]:
    """Run one experiment, yielding a StepRecord per step."""
    return Engine(config, threads=threads).records()
