"""Closed-form communication payloads, reduction ratios, and memory overheads.

Element counts implement the per-payload tables with unit constants per
term. Uplink/downlink are per link (server <-> one worker). The
simulator stamps these counts, times `distsim.ELEMENT_SIZE` bytes, on
step records at each sync event, so summed run totals match the
analytic formulas exactly. Names are not re-checked: the config schema
and `config.from_dict` own the run-setting rules, and `CostInputs`
checks the sizes that `lrdsim costs` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .optimizer import QHM_FULL_RANK

STRATEGY_GLOBAL = "global"
STRATEGY_LOCAL = "local"
BASELINE_LOCAL_ADAM = "local_adam"
BASELINE_DDP = "ddp"

@dataclass(frozen=True)
class CostInputs:
    p: int
    q: int
    r: int
    k_x: int = 1
    k_u: int = 1
    k_v: int = 1

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 1:
            raise ValueError("dimensions must be positive")
        if self.r > min(self.p, self.q):
            raise ValueError(f"rank {self.r} exceeds min(p, q) = {min(self.p, self.q)}")
        if min(self.k_x, self.k_u, self.k_v) < 1:
            raise ValueError("sync periods must be >= 1")


@dataclass(frozen=True)
class PayloadCosts:
    """Per-sync-event element counts by payload, per link."""

    up_params: int
    up_first: int
    up_second: int
    up_projection: int
    down_params: int
    down_first: int
    down_second: int
    down_projection: int

    @property
    def uplink_total(self) -> int:
        return self.up_params + self.up_first + self.up_second + self.up_projection

    @property
    def downlink_total(self) -> int:
        return self.down_params + self.down_first + self.down_second + self.down_projection


def per_payload(variant: str, qhm_mode: str | None, inputs: CostInputs) -> PayloadCosts:
    """Exact element counts for one full sync event of every payload.

    `variant` is one of global/local/local_adam/ddp; the baselines take
    qhm_mode None.
    """
    p, q, r = inputs.p, inputs.q, inputs.r
    pq, rq, pr = p * q, r * q, p * r
    if variant == BASELINE_DDP:
        return PayloadCosts(pq, 0, 0, 0, pq, 0, 0, 0)
    if variant == BASELINE_LOCAL_ADAM:
        return PayloadCosts(pq, pq, pq, 0, pq, pq, pq, 0)
    full = qhm_mode == QHM_FULL_RANK
    if variant == STRATEGY_GLOBAL:
        if full:
            # full-rank pseudo-gradient both ways, new basis down
            return PayloadCosts(pq, rq, rq, 0, pq, rq, rq, pr)
        # low-rank pseudo-gradient both ways, new basis down
        return PayloadCosts(rq, rq, rq, 0, rq, rq, rq, pr)
    # local: server needs each worker's basis to rebuild its pseudo-gradient;
    # downlink parameters are always full-rank
    if full:
        return PayloadCosts(pq, rq, rq, 0, pq, rq, rq, 0)
    return PayloadCosts(rq, rq, rq, pr, pq, rq, rq, 0)


def reduction_vs_lowrank_ddp(inputs: CostInputs) -> float:
    """((1 + r/q)/K_x + 1/K_u + 1/K_v)^-1: benefit over per-step low-rank sync."""
    i = inputs
    return 1.0 / ((1.0 + i.r / i.q) / i.k_x + 1.0 / i.k_u + 1.0 / i.k_v)


def reduction_vs_fullrank_ddp(inputs: CostInputs) -> float:
    """((1 + r/q)/K_x + r/(K_u p) + r/(K_v p))^-1: benefit over full-rank DDP."""
    i = inputs
    return 1.0 / ((1.0 + i.r / i.q) / i.k_x + i.r / (i.k_u * i.p) + i.r / (i.k_v * i.p))


def reduction_vs_fullrank_local(inputs: CostInputs, strategy: str) -> float:
    """Per-payload benefit over infrequent full-rank local Adam.

    3pq/(pq + 2rq) for the local variant; 3pq/(pq + pr + 2rq) for the
    global one (which also ships the basis).
    """
    i = inputs
    pq, rq, pr = i.p * i.q, i.r * i.q, i.p * i.r
    if strategy == STRATEGY_LOCAL:
        return 3.0 * pq / (pq + 2.0 * rq)
    return 3.0 * pq / (pq + pr + 2.0 * rq)


def optimizer_state_memory_ratio(inputs: CostInputs) -> float:
    """p/r: full-rank to low-rank optimizer-state footprint ratio."""
    return inputs.p / inputs.r


def adam_memory(inputs: CostInputs) -> int:
    """Full-rank Adam worker overhead: gradient + two moments."""
    return 3 * inputs.p * inputs.q


def memory_overhead(inputs: CostInputs) -> int:
    """Worker memory overhead in elements, the same for every low-rank variant.

    Components: compressed gradient rq (plus pq full-rank staging for the
    full-rank branch), two moments 2rq, basis pr and error buffer pq. The
    full-rank branch stores the error buffer on the full-rank gradient
    staging, so every variant needs the same count.
    """
    p, q, r = inputs.p, inputs.q, inputs.r
    return r * q + 2 * r * q + p * r + p * q
