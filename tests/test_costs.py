import numpy as np
import pytest

from lrdsim.costs import (
    BASELINE_DDP,
    BASELINE_LOCAL_ADAM,
    CostInputs,
    adam_memory,
    memory_overhead,
    per_payload,
    reduction_vs_fullrank_ddp,
    reduction_vs_fullrank_local,
    reduction_vs_lowrank_ddp,
)


def inputs(p=2048, q=2048, r=256, k=32):
    return CostInputs(p=p, q=q, r=r, k_x=k, k_u=k, k_v=k)


def test_per_payload_table_totals():
    i = inputs()
    p, q, r = i.p, i.q, i.r
    pq, rq, pr = p * q, r * q, p * r
    g_none = per_payload("global", "none", i)
    assert g_none.uplink_total == 3 * rq
    assert g_none.downlink_total == pr + 3 * rq
    g_low = per_payload("global", "low_rank", i)
    assert (g_low.uplink_total, g_low.downlink_total) == (3 * rq, pr + 3 * rq)
    g_full = per_payload("global", "full_rank", i)
    assert g_full.uplink_total == pq + 2 * rq
    assert g_full.downlink_total == pq + pr + 2 * rq
    l_none = per_payload("local", "none", i)
    assert l_none.uplink_total == pr + 3 * rq
    assert l_none.downlink_total == pq + 2 * rq
    l_full = per_payload("local", "full_rank", i)
    assert (l_full.uplink_total, l_full.downlink_total) == (pq + 2 * rq, pq + 2 * rq)
    ladam = per_payload(BASELINE_LOCAL_ADAM, None, i)
    assert (ladam.uplink_total, ladam.downlink_total) == (3 * pq, 3 * pq)
    ddp = per_payload(BASELINE_DDP, None, i)
    assert (ddp.uplink_total, ddp.downlink_total) == (pq, pq)


def test_per_payload_pinned_examples():
    i = inputs()
    ddp = per_payload(BASELINE_DDP, None, i)
    assert ddp.uplink_total == 2048 * 2048
    g_full = per_payload("global", "full_rank", i)
    assert g_full.downlink_total == 2048 * 2048 + 2048 * 256 + 2 * 256 * 2048


def test_degenerate_rank_matches_fullrank_baseline():
    i = CostInputs(p=512, q=512, r=512, k_x=1, k_u=1, k_v=1)
    g_none = per_payload("global", "none", i)
    assert g_none.uplink_total == 3 * 512 * 512


def test_reduction_vs_lowrank_ddp_degenerate():
    i = CostInputs(p=64, q=64, r=64, k_x=1, k_u=1, k_v=1)
    assert reduction_vs_lowrank_ddp(i) == pytest.approx(0.25)


def test_reduction_monotone_in_periods():
    prev = 0.0
    for k in (1, 2, 8, 32, 128):
        val = reduction_vs_lowrank_ddp(inputs(k=k))
        assert val > prev
        prev = val


def test_reduction_vs_fullrank_ddp_degenerate():
    i = CostInputs(p=64, q=64, r=64, k_x=1, k_u=1, k_v=1)
    assert reduction_vs_fullrank_ddp(i) == pytest.approx(0.25)


def test_reduction_vs_fullrank_ddp_monotone_in_rank():
    lo = reduction_vs_fullrank_ddp(inputs(r=128))
    hi = reduction_vs_fullrank_ddp(inputs(r=256))
    assert lo > hi


def test_reduction_vs_fullrank_local():
    i = inputs()
    val = reduction_vs_fullrank_local(i, "global")
    assert val == pytest.approx(3 * 2048 / (2048 + 256 + 512), rel=1e-12)
    assert val == pytest.approx(2.18, abs=0.01)
    local = reduction_vs_fullrank_local(i, "local")
    assert local == pytest.approx(3 * 2048 / (2048 + 512), rel=1e-12)
    tiny_r = CostInputs(p=2048, q=2048, r=1, k_x=1)
    assert reduction_vs_fullrank_local(tiny_r, "local") == pytest.approx(3.0, abs=0.01)


def test_memory_overhead_table():
    i = inputs()
    p, q, r = i.p, i.q, i.r
    pq, rq, pr = p * q, r * q, p * r
    assert adam_memory(i) == 3 * pq
    assert memory_overhead(i) == pq + pr + 3 * rq


def test_memory_overhead_degenerate_rank_exceeds_adam():
    i = CostInputs(p=100, q=100, r=100)
    assert memory_overhead(i) == 5 * 100 * 100
    assert memory_overhead(i) > adam_memory(i)


def test_ratios_exceed_one_with_compression_and_infrequency():
    # The benefit formulas divide three per-K payloads by one per-step
    # payload, so the >= 1 regime starts at K = 4 (at K in {2, 3} the
    # ratio is provably < 1 for any rank). The global variant also ships
    # the pr basis, which only pays off under real compression; r is
    # kept at or below min(p, q)/2 where all four ratios provably hold.
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = int(rng.integers(64, 4096))
        q = int(rng.integers(64, 4096))
        r = int(rng.integers(1, min(p, q) // 2 + 1))
        k = int(rng.integers(4, 64))
        i = CostInputs(p=p, q=q, r=r, k_x=k, k_u=k, k_v=k)
        assert reduction_vs_lowrank_ddp(i) >= 1.0
        assert reduction_vs_fullrank_ddp(i) >= 1.0
        assert reduction_vs_fullrank_local(i, "local") > 1.0
        assert reduction_vs_fullrank_local(i, "global") > 1.0


def test_cost_inputs_validation():
    with pytest.raises(ValueError):
        CostInputs(p=4, q=4, r=5)
    with pytest.raises(ValueError):
        CostInputs(p=4, q=4, r=2, k_x=0)
    with pytest.raises(ValueError):
        CostInputs(p=0, q=4, r=1)
