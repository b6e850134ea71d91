import copy

import numpy as np
import pytest
import yaml

from lrdsim import costs
from lrdsim.cli import main
from lrdsim.config import _array_bytes, from_dict
from lrdsim.distsim import ELEMENT_SIZE, Engine, sparsify_topk
from lrdsim.linalg import clip_frobenius
from lrdsim.optimizer import (
    QHM_NONE,
    compress_gradient,
    compute_update,
    update_moments,
)
from lrdsim.problems import MatrixRegression
from lrdsim.projection import (
    mssv,
    projection_with_spectrum,
    random_projection,
    rotate_first_moment,
    rotate_second_moment,
    rotation_matrix,
    sin_theta_distance,
    subspace_metrics_from_update,
)

from kernel_state import fresh_state


def cfg_dict(**over):
    base = {
        "master_seed": 0,
        "workers": 2,
        "steps": 8,
        "rank": 4,
        "problem": {"rows": 16, "cols": 12, "design_rows": 64, "batch_size": 8, "noise_std": 0.1},
        "schedule": {"k_x": 4, "k_u": 4, "k_v": 4},
    }
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            base[key].update(val)
        else:
            base[key] = val
    return base


def run_cfg(**over):
    cfg = from_dict(cfg_dict(**over))
    return cfg, list(Engine(cfg).records())


# ---- sync index pins ---------------------------------------------------------


def test_sync_steps_pinned_k2():
    # with K = 2, syncs land at t = 1, 3, 5, ... ((t+1) mod K == 0)
    _, recs = run_cfg(steps=6, schedule={"k_x": 2, "k_u": 2, "k_v": 2})
    synced = [r["step"] for r in recs if r["bytes_uplink"] > 0]
    assert synced == [1, 3, 5]


def test_decoupled_sync_steps_pinned():
    cfg = from_dict(cfg_dict(steps=6, schedule={"k_x": 6, "k_u": 2, "k_v": 3}))
    recs = list(Engine(cfg).records())
    pay = costs.per_payload("global", "none", costs.CostInputs(p=16, q=12, r=4))
    by_step = {r["step"]: r["bytes_uplink"] for r in recs}
    for t in range(6):
        expected = 0
        if (t + 1) % 2 == 0:
            expected += pay.up_first
        if (t + 1) % 3 == 0:
            expected += pay.up_second
        if (t + 1) % 6 == 0:
            expected += pay.up_params + pay.up_projection
        assert by_step[t] == expected * ELEMENT_SIZE, f"step {t}"


def test_local_refresh_steps_pinned_k3():
    # refresh fires when (t-1) mod K_x == 0: t = 1, 4, 7 for K_x = 3
    cfg = from_dict(
        cfg_dict(
            steps=8,
            projection={"strategy": "local"},
            schedule={"k_x": 3, "k_u": 3, "k_v": 3},
        )
    )
    recs = list(Engine(cfg).records())
    refresh_steps = [r["step"] for r in recs if r["subspace"] is not None]
    assert refresh_steps == [1, 4, 7]


def test_local_refresh_every_step_when_k1():
    cfg = from_dict(
        cfg_dict(steps=4, projection={"strategy": "local"}, schedule={"k_x": 1, "k_u": 1, "k_v": 1})
    )
    recs = list(Engine(cfg).records())
    assert [r["step"] for r in recs if r["subspace"] is not None] == [0, 1, 2, 3]


# ---- exact sync semantics ----------------------------------------------------


def engine_for_sync_tests(workers=2, kind="average", **outer_kw):
    outer = {"kind": kind}
    outer.update(outer_kw)
    cfg = from_dict(
        cfg_dict(
            workers=workers,
            steps=4,
            rank=1,
            problem={"rows": 1, "cols": 1, "design_rows": workers * 4, "batch_size": 2},
            schedule={"k_x": 1, "k_u": 1, "k_v": 1},
            projection={"strategy": "global", "refresh": False, "init": "identity"},
            outer=outer,
        )
    )
    return Engine(cfg)


def test_sync_params_identical_workers_noop():
    eng = engine_for_sync_tests()
    s = eng.stack
    eng.anchor = np.array([[1.0]])
    for m in range(2):
        s.x[m] = np.array([[3.25]])
    eng._sync_params(0)
    for m in range(2):
        np.testing.assert_array_equal(s.x[m], [[3.25]])
        np.testing.assert_array_equal(eng.anchor, [[3.25]])


def test_sync_params_cancellation():
    eng = engine_for_sync_tests()
    s = eng.stack
    s.x[0] = np.array([[1.0 + 0.5]])
    s.x[1] = np.array([[1.0 - 0.5]])
    eng.anchor = np.array([[1.0]])
    eng._sync_params(0)
    for m in range(2):
        np.testing.assert_array_equal(s.x[m], [[1.0]])


def test_nesterov_degenerates_to_average():
    eng = engine_for_sync_tests(kind="nesterov", outer_lr=1.0, outer_momentum=0.0)
    s = eng.stack
    s.x[0] = np.array([[2.0]])
    s.x[1] = np.array([[4.0]])
    eng.anchor = np.array([[1.0]])
    eng._sync_params(0)
    np.testing.assert_allclose(s.x[0], [[3.0]])


def test_nesterov_two_step_hand_trace():
    # velocity m <- mu m + delta; x <- anchor + lr (delta + mu m)
    # mu=0.9, lr=0.5: delta 1.0 -> x = 0.95; then delta 2.0 ->
    # m = 2.9, x = 0.95 + 0.5 (2 + 2.61) = 3.255 (worked by hand)
    eng = engine_for_sync_tests(workers=1, kind="nesterov", outer_lr=0.5, outer_momentum=0.9)
    s = eng.stack
    eng.anchor = np.array([[0.0]])
    s.x[0] = np.array([[1.0]])
    eng._sync_params(0)
    np.testing.assert_allclose(s.x[0], [[0.95]], atol=1e-15)
    s.x[0] = eng.anchor + 2.0
    eng._sync_params(0)
    np.testing.assert_allclose(s.x[0], [[3.255]], atol=1e-12)


def test_sync_moment_mean_and_cancellation():
    eng = engine_for_sync_tests()
    u = np.random.default_rng(0).standard_normal((1, 1))
    s = eng.stack
    s.u[0] = u.copy()
    s.u[1] = -u.copy()
    s.v[0] = np.array([[0.4]])
    s.v[1] = np.array([[0.2]])
    eng._sync_phase(0, [])  # k_u = k_v = 1
    for m in range(2):
        np.testing.assert_allclose(s.u[m], np.zeros((1, 1)), atol=1e-18)
        np.testing.assert_allclose(s.v[m], [[0.3]], atol=1e-18)
        assert np.all(s.v[m] >= 0)


@pytest.mark.parametrize("kind", ["average", "nesterov"])
@pytest.mark.parametrize("strategy", ["global", "local"])
def test_every_worker_holds_the_anchor_after_each_parameter_sync(strategy, kind):
    cfg = from_dict(
        cfg_dict(
            workers=3,
            steps=12,
            problem={"design_rows": 48},
            schedule={"k_x": 3, "k_u": 2, "k_v": 4},
            projection={"strategy": strategy},
            outer={"kind": kind},
        )
    )
    engine = Engine(cfg)
    synced = []
    for rec in engine.records():
        if (rec["step"] + 1) % 3 == 0:
            for m in range(3):
                assert engine.stack.x[m].tobytes() == engine.anchor.tobytes(), f"worker {m}, step {rec['step']}"
            synced.append(rec["step"])
    assert synced == [2, 5, 8, 11]
    assert np.any(engine.anchor != 0.0)  # the anchor moved off its zero start


def test_array_bytes_counts_what_the_engine_holds():
    # feature_blocks needs problem.rows = 16 to divide across the workers
    for policy, workers in (("iid", 3), ("feature_blocks", 4)):
        cfg = from_dict(cfg_dict(workers=workers, problem={"design_rows": 48, "shard_policy": policy}))
        engine = Engine(cfg)
        s, prob = engine.stack, engine.problem
        held = [prob.design, prob.labels, prob.x_star, s.x, s.error, s.u, s.v, s.basis, engine.anchor,
                engine.outer_velocity]
        # the block of batch indices the engine draws at its first step
        records = engine.records()
        next(records)
        block = records.gi_frame.f_locals["block"]
        # plus the one (M, p, q) buffer each local step carries its gradients in
        assert _array_bytes(cfg) == sum(a.nbytes for a in held) + s.x.nbytes + block.nbytes, policy


# ---- degeneracy against a straight-line reference ----------------------------


def test_engine_matches_straightline_low_rank_reference():
    # M=1, K=1, global: the engine must reproduce the per-step synchronous
    # low-rank optimizer (per-step projection recompute + rotations) exactly.
    seed, steps, rank = 3, 12, 3
    cfg = from_dict(
        cfg_dict(
            master_seed=seed,
            workers=1,
            steps=steps,
            rank=rank,
            problem={"rows": 10, "cols": 8, "design_rows": 40, "batch_size": 5, "noise_std": 0.05},
            schedule={"k_x": 1, "k_u": 1, "k_v": 1},
        )
    )
    engine = Engine(cfg)
    engine_records = list(engine.records())
    engine_final = engine.stack.x[0].copy()

    prob = MatrixRegression(p=10, q=8, n_rows=40, workers=1, noise_std=0.05, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, 0)))
    proj_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, 0)))
    proj = random_projection(10, rank, proj_rng)
    state = fresh_state(10, 8, proj)
    hp = cfg.hyperparams
    x = np.zeros((10, 8))
    anchor = x.copy()
    losses = []
    for t in range(steps):
        rows = prob.sample_batch(5, rng, 1)[0]
        grad = clip_frobenius(prob.stoch_gradient(x, rows, 0), hp.clip_radius)
        g, state.error = compress_gradient(grad, state.error, state.basis)
        update_moments(state.u, state.v, g, hp.beta1, hp.beta2)
        upd = compute_update(state.u, state.v, state.basis, t + 1, grad, g, QHM_NONE, hp)
        x = x - hp.lr_at(t) * upd
        delta = x - anchor
        x = anchor + delta
        new_proj = projection_with_spectrum(delta, rank)[0]
        r_mat = rotation_matrix(new_proj, state.basis)
        state.v = rotate_second_moment(r_mat, state.u, state.v, hp.beta1, hp.beta2, t + 1)
        state.u = rotate_first_moment(r_mat, state.u)
        state.basis = new_proj
        anchor = x.copy()
        eval_rows = prob.sample_batch(5, rng, 1)[0]
        losses.append(prob.loss(x, eval_rows, 0))
    np.testing.assert_allclose(engine_final, x, atol=1e-12)
    np.testing.assert_allclose([r["mean_loss"] for r in engine_records], losses, atol=1e-12)


def test_engine_stacked_eval_equals_per_worker_loss_exactly():
    # each logged loss must be the 2-D loss of that worker's parameters on the
    # eval batch its stream draws right after the step's training batch; the
    # engine draws a block of steps' batches ahead, so the streams are copied
    # once, before step 0, and replayed in order across a block boundary
    cfg = from_dict(
        cfg_dict(
            workers=3,
            steps=70,
            problem={"rows": 12, "cols": 5, "design_rows": 60, "batch_size": 8, "shard_policy": "feature_blocks"},
            schedule={"k_x": 4, "k_u": 2, "k_v": 3},
        )
    )
    engine = Engine(cfg)
    prob = engine.problem
    records = engine.records()
    rngs = copy.deepcopy(engine.stack.rngs)
    for _ in range(cfg.steps):
        record = next(records)
        expected = []
        for m, rng in enumerate(rngs):
            prob.sample_batch(8, rng, 1)  # the step's training batch
            expected.append(prob.loss(engine.stack.x[m], prob.sample_batch(8, rng, 1)[0], m))
        assert record["worker_losses"] == expected
        assert record["mean_loss"] == float(np.mean(expected))


@pytest.mark.parametrize("strategy", ["global", "local"])
def test_engine_refresh_rotates_zero_variance_second_moment_exactly(strategy):
    # With vh = uh^2 the variance term of the rotation rule vanishes, so the
    # refreshed second moment must equal (1-beta2^t) (R uh)^2 computed from
    # the old-basis first moment.
    cfg = from_dict(cfg_dict(workers=1, projection={"strategy": strategy}))
    engine = Engine(cfg)
    state = engine.stack
    hp = engine.cfg.hyperparams
    t = 5
    rng = np.random.default_rng(23)
    state.u = rng.standard_normal(state.u.shape)
    uh = state.u / (1.0 - hp.beta1**t)
    state.v = (1.0 - hp.beta2**t) * uh * uh
    old_basis, old_u = state.basis[0].copy(), state.u.copy()
    signal = rng.standard_normal((16, 12))
    metrics = engine._refresh(signal[None], t)
    new_basis = state.basis[0]
    assert sin_theta_distance(new_basis, old_basis) > 0.1
    r_mat = rotation_matrix(new_basis, old_basis)
    np.testing.assert_allclose(state.v, (1.0 - hp.beta2**t) * (r_mat @ uh) ** 2, rtol=0, atol=1e-14)
    np.testing.assert_allclose(state.u, r_mat @ old_u, rtol=0, atol=1e-14)
    # the logged diagnostics compare the basis held before the refresh with the one after it
    assert np.linalg.norm(new_basis.T @ new_basis - np.eye(new_basis.shape[1])) < 1e-12
    assert metrics["mssv"] == pytest.approx(mssv(r_mat), rel=0, abs=1e-14)
    assert metrics["sin_theta"] == pytest.approx(sin_theta_distance(new_basis, old_basis), rel=0, abs=1e-14)


def test_engine_refresh_skips_degenerate_signal_and_logs_the_moved_bases():
    # A zero signal keeps its worker's stale basis and moments bit for bit,
    # and the logged entry averages only the bases that moved.
    cfg = from_dict(cfg_dict(workers=2, projection={"strategy": "local"}))
    engine = Engine(cfg)
    s = engine.stack
    hp = cfg.hyperparams
    t = 3
    rng = np.random.default_rng(5)
    s.u = rng.standard_normal(s.u.shape)
    s.v = rng.random(s.v.shape)
    before = {name: getattr(s, name).copy() for name in ("basis", "u", "v")}
    signals = np.stack([rng.standard_normal((16, 12)), np.zeros((16, 12))])
    entry = engine._refresh(signals, t)
    for name in ("basis", "u", "v"):
        assert np.array_equal(getattr(s, name)[1], before[name][1]), name
    new, sig_s = projection_with_spectrum(signals[0], cfg.rank)
    r_mat = rotation_matrix(new, before["basis"][0])
    assert np.array_equal(s.basis[0], new)
    assert sin_theta_distance(new, before["basis"][0]) > 0.1
    v0 = rotate_second_moment(r_mat, before["u"][:1], before["v"][:1], hp.beta1, hp.beta2, t)
    np.testing.assert_array_equal(s.v[:1], v0)
    np.testing.assert_array_equal(s.u[:1], rotate_first_moment(r_mat, before["u"][:1]))
    assert entry == subspace_metrics_from_update(new, before["basis"][0], r_mat, sig_s)
    # no basis moves: no entry, and the stack is untouched
    after = {name: getattr(s, name).copy() for name in ("basis", "u", "v")}
    assert engine._refresh(np.zeros_like(signals), t) is None
    for name in ("basis", "u", "v"):
        assert np.array_equal(getattr(s, name), after[name]), name


@pytest.mark.parametrize("strategy", ["global", "local"])
def test_engine_error_feedback_residual_orthogonal_to_basis(strategy):
    # The error buffer keeps what compression discarded, so after every step
    # whose compression used the basis the worker still holds, Q_m^T E_m = 0.
    cfg = from_dict(
        cfg_dict(
            workers=3,
            steps=12,
            problem={"design_rows": 48, "batch_size": 8},
            schedule={"k_x": 4, "k_u": 2, "k_v": 3},
            projection={"strategy": strategy},
        )
    )
    engine = Engine(cfg)
    s = engine.stack
    checked = []
    before = s.basis.copy()
    for rec in engine.records():
        # the local strategy refreshes before compressing; the global one
        # refreshes at a parameter sync, after that step's compression
        if strategy == "local" or np.array_equal(s.basis, before):
            assert np.max(np.abs(np.swapaxes(s.basis, -1, -2) @ s.error)) < 1e-12, f"step {rec['step']}"
            checked.append(rec["step"])
        before = s.basis.copy()
    assert np.max(np.abs(s.error)) > 1e-3  # the buffers carry a real residual
    if strategy == "local":
        assert checked == list(range(12))
    else:
        assert checked == [t for t in range(12) if (t + 1) % 4 != 0]


# ---- determinism -------------------------------------------------------------


def record_bytes(recs):
    import json

    return "\n".join(json.dumps(r, sort_keys=True) for r in recs)


def test_serial_and_parallel_runs_identical(tmp_path):
    # workers are stacked and run serially; --threads is accepted and changes nothing
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg_dict(workers=4, problem={"design_rows": 64, "batch_size": 8})))
    logs = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads{threads}.log"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--threads", threads]) == 0
        logs.append(out.read_bytes())
    assert logs[0] == logs[1]


def test_repeat_runs_identical():
    _, a = run_cfg()
    _, b = run_cfg()
    assert record_bytes(a) == record_bytes(b)


def test_worker_projections_bitwise_identical_global():
    cfg = from_dict(cfg_dict(workers=3, steps=9, problem={"design_rows": 63, "batch_size": 7}, schedule={"k_x": 3, "k_u": 3, "k_v": 3}))
    engine = Engine(cfg)
    for _ in engine.records():
        ref = engine.stack.basis[0].tobytes()
        for m in (1, 2):
            assert engine.stack.basis[m].tobytes() == ref


# ---- qualitative mechanisms --------------------------------------------------


def test_global_stagnation_short_run():
    cfg = from_dict(
        cfg_dict(
            workers=4,
            steps=96,
            rank=4,
            problem={"rows": 24, "cols": 24, "design_rows": 96, "batch_size": 8},
            schedule={"k_x": 16, "k_u": 16, "k_v": 16},
        )
    )
    recs = list(Engine(cfg).records())
    updates = [r["subspace"][0] for r in recs if r["subspace"] is not None]
    assert len(updates) >= 3
    for m in updates[1:]:
        assert abs(m["mssv"] - 1.0) < 1e-6
        assert m["sin_theta"] < 1e-6


def test_full_rank_qhm_breaks_stagnation_rank():
    cfg = from_dict(
        cfg_dict(
            workers=4,
            steps=64,
            rank=4,
            problem={"rows": 24, "cols": 24, "design_rows": 96, "batch_size": 8},
            schedule={"k_x": 16, "k_u": 16, "k_v": 16},
            qhm={"mode": "full_rank", "omega": 0.9},
        )
    )
    # the anchor moves by the (outer-optimized) aggregated pseudo-gradient
    # at each sync; with average outer that movement is exactly delta
    engine = Engine(cfg)
    prev_anchor = engine.anchor.copy()
    ranks = []
    for rec in engine.records():
        if (rec["step"] + 1) % 16 == 0:
            new_anchor = engine.anchor
            ranks.append(np.linalg.matrix_rank(new_anchor - prev_anchor, rtol=1e-10))
            prev_anchor = new_anchor.copy()
    assert all(r > 4 for r in ranks)


def test_local_orthogonal_blocks_full_rank_recovery():
    # two workers with gradients on disjoint coordinate blocks isolate
    # orthogonal subspaces; their aggregated pseudo-gradient recovers
    # rank ~ M * r
    cfg = from_dict(
        cfg_dict(
            workers=2,
            steps=8,
            rank=2,
            problem={
                "rows": 8,
                "cols": 6,
                "design_rows": 32,
                "batch_size": 8,
                "noise_std": 0.0,
                "shard_policy": "feature_blocks",
            },
            schedule={"k_x": 8, "k_u": 8, "k_v": 8},
            projection={"strategy": "local"},
        )
    )
    engine = Engine(cfg)
    prev_anchor = engine.anchor.copy()
    final_delta = None
    for rec in engine.records():
        if (rec["step"] + 1) % 8 == 0:
            final_delta = engine.anchor - prev_anchor
    q0 = engine.stack.basis[0]
    q1 = engine.stack.basis[1]
    assert sin_theta_distance(q0, q1) == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert np.linalg.matrix_rank(final_delta, rtol=1e-8) >= min(2 * 2, 8) - 1


def test_rotation_flag_changes_trajectory():
    base = dict(
        workers=2,
        steps=24,
        rank=2,
        problem={"rows": 12, "cols": 12, "design_rows": 48, "batch_size": 8},
        schedule={"k_x": 6, "k_u": 6, "k_v": 6},
        qhm={"mode": "full_rank", "omega": 0.9},
    )
    _, with_rot = run_cfg(**base)
    _, without = run_cfg(flags={"rotate_moments": False}, **base)
    assert with_rot[-1]["mean_loss"] != without[-1]["mean_loss"]


def test_divergence_produces_terminal_record():
    cfg = from_dict(
        cfg_dict(
            steps=200,
            hyperparams={"lr": 1e200, "clip_radius": 1e9, "beta1": 0.0, "beta2": 0.0},
        )
    )
    # the overflow is expected; `lrdsim run` silences it the same way
    with np.errstate(over="ignore", invalid="ignore"):
        recs = list(Engine(cfg).records())
    assert len(recs) < 200
    assert recs[-1]["diverged"]
    assert recs[-1]["mean_loss"] is None
    assert all(not r["diverged"] for r in recs[:-1])


def test_byte_accounting_matches_analytic_totals():
    steps = 24
    k = 4
    cfg = from_dict(
        cfg_dict(
            steps=steps,
            schedule={"k_x": k, "k_u": k, "k_v": k},
            qhm={"mode": "full_rank", "omega": 0.9},
        )
    )
    recs = list(Engine(cfg).records())
    pay = costs.per_payload("global", "full_rank", costs.CostInputs(p=16, q=12, r=4))
    events = steps // k
    expected_up = events * pay.uplink_total * ELEMENT_SIZE
    expected_down = events * pay.downlink_total * ELEMENT_SIZE
    assert sum(r["bytes_uplink"] for r in recs) == expected_up
    assert sum(r["bytes_downlink"] for r in recs) == expected_down


# ---- sparsification ----------------------------------------------------------


def test_sparsify_topk_identity():
    a = np.random.default_rng(0).standard_normal((4, 4))
    out = sparsify_topk(a, 1.0)
    np.testing.assert_array_equal(out, a)


def test_sparsify_topk_keeps_dominant_entry():
    a = np.array([[0.01, -9.0], [0.02, 0.005]])
    out = sparsify_topk(a, 0.25)
    np.testing.assert_array_equal(out, [[0.0, -9.0], [0.0, 0.0]])


def test_sparsify_topk_half_with_tie_break():
    a = np.array([[1.0, -3.0], [2.0, 0.0]])
    out = sparsify_topk(a, 0.5)
    np.testing.assert_array_equal(out, [[0.0, -3.0], [2.0, 0.0]])
    # exact ties fall to the lowest linear index
    b = np.array([[1.0, -1.0], [1.0, 0.5]])
    out = sparsify_topk(b, 0.5)
    np.testing.assert_array_equal(out, [[1.0, -1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        sparsify_topk(a, 0.0)


def test_sparsify_changes_aggregate_but_preserves_determinism():
    base = dict(steps=8)
    _, dense = run_cfg(**base)
    _, sparse = run_cfg(flags={"sparsify_keep": 0.25}, **base)
    assert dense[-1]["mean_loss"] != sparse[-1]["mean_loss"]
    _, sparse2 = run_cfg(flags={"sparsify_keep": 0.25}, **base)
    assert record_bytes(sparse) == record_bytes(sparse2)
