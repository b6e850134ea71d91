import copy

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from lrdsim import costs
from lrdsim.config import ConfigError, _array_bytes, from_dict
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
    subspace_metrics_from_update,
)

from kernel_state import fresh_state
from loghash import config_dict
from oracles import subspace_sin_theta


def run_cfg(**over):
    cfg = from_dict(config_dict("small", **over))
    return cfg, list(Engine(cfg).records())


# ---- sync index pins ---------------------------------------------------------


def test_decoupled_sync_steps_pinned():
    cfg = from_dict(config_dict("small", steps=6, schedule={"k_x": 6, "k_u": 2, "k_v": 3}))
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
        config_dict(
            "small",
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
        config_dict("small", steps=4, projection={"strategy": "local"}, schedule={"k_x": 1, "k_u": 1, "k_v": 1})
    )
    recs = list(Engine(cfg).records())
    assert [r["step"] for r in recs if r["subspace"] is not None] == [0, 1, 2, 3]


# ---- exact sync semantics ----------------------------------------------------


def engine_for_sync_tests():
    cfg = from_dict(
        config_dict(
            "small",
            workers=2,
            steps=4,
            rank=1,
            problem={"rows": 1, "cols": 1, "design_rows": 8, "batch_size": 2},
            schedule={"k_x": 1, "k_u": 1, "k_v": 1},
            projection={"strategy": "local", "refresh": False},
        )
    )
    return Engine(cfg)


def test_sync_params_identical_workers_noop():
    eng = engine_for_sync_tests()
    eng.anchor = np.array([[1.0]])
    for m in range(2):
        eng.x[m] = np.array([[3.25]])
    eng._sync_phase(0, None)
    for m in range(2):
        np.testing.assert_array_equal(eng.x[m], [[3.25]])
        np.testing.assert_array_equal(eng.anchor, [[3.25]])


def test_sync_params_cancellation():
    eng = engine_for_sync_tests()
    eng.x[0] = np.array([[1.0 + 0.5]])
    eng.x[1] = np.array([[1.0 - 0.5]])
    eng.anchor = np.array([[1.0]])
    eng._sync_phase(0, None)
    for m in range(2):
        np.testing.assert_array_equal(eng.x[m], [[1.0]])


def test_sync_moment_mean_and_cancellation():
    eng = engine_for_sync_tests()
    u = np.random.default_rng(0).standard_normal((1, 1))
    eng.u[0] = u.copy()
    eng.u[1] = -u.copy()
    eng.v[0] = np.array([[0.4]])
    eng.v[1] = np.array([[0.2]])
    eng._sync_phase(0, None)  # k_u = k_v = 1
    for m in range(2):
        np.testing.assert_allclose(eng.u[m], np.zeros((1, 1)), atol=1e-18)
        np.testing.assert_allclose(eng.v[m], [[0.3]], atol=1e-18)
        assert np.all(eng.v[m] >= 0)


def test_array_bytes_counts_what_the_engine_holds():
    # feature_blocks needs problem.rows = 16 to divide across the workers
    for policy, workers in (("iid", 3), ("feature_blocks", 4)):
        cfg = from_dict(config_dict("small", workers=workers, problem={"design_rows": 48, "shard_policy": policy}))
        engine = Engine(cfg)
        # every array the engine and its problem hold, so that a new one cannot escape the cap
        held = [a for obj in (engine, engine.problem) for a in vars(obj).values() if isinstance(a, np.ndarray)]
        # the block of batch indices the engine draws at its first step
        records = engine.records()
        next(records)
        block = records.gi_frame.f_locals["block"]
        # plus the one (M, p, q) buffer each local step carries its gradients in
        assert _array_bytes(cfg) == sum(a.nbytes for a in held) + engine.x.nbytes + block.nbytes, policy


# ---- degeneracy against a straight-line reference ----------------------------


def test_engine_matches_straightline_low_rank_reference():
    # M=1, K=1, global: the engine must reproduce the per-step synchronous
    # low-rank optimizer (per-step projection recompute + rotations) exactly.
    seed, steps, rank = 3, 12, 3
    cfg = from_dict(
        config_dict(
            "small",
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
    engine_final = engine.x[0].copy()

    prob = MatrixRegression(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, 0)))
    proj_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2, 0)))
    proj = random_projection(10, rank, proj_rng)
    state = fresh_state(10, 8, proj)
    hp = cfg.hyperparams
    x = np.zeros((10, 8))
    anchor = x.copy()
    losses = []
    for t in range(steps):
        rows = prob.sample_batch(rng, 1)[0]
        grad = clip_frobenius(prob.stoch_gradient(x, rows), hp.clip_radius)
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
        eval_rows = prob.sample_batch(rng, 1)[0]
        losses.append(prob.loss(x, eval_rows))
    np.testing.assert_allclose(engine_final, x, atol=1e-12)
    np.testing.assert_allclose([r["mean_loss"] for r in engine_records], losses, atol=1e-12)


def test_engine_stacked_eval_equals_per_worker_loss_exactly():
    # each logged loss must be the 2-D loss of that worker's parameters on the
    # eval batch its stream draws right after the step's training batch; the
    # engine draws a block of steps' batches ahead, so the streams are copied
    # once, before step 0, and replayed in order across a block boundary.
    # Both batches are worker m's draws moved into shard m's design rows.
    cfg = from_dict(
        config_dict(
            "small",
            workers=3,
            steps=70,
            problem={"rows": 12, "cols": 5, "design_rows": 60, "batch_size": 8, "shard_policy": "feature_blocks"},
            schedule={"k_x": 4, "k_u": 2, "k_v": 3},
        )
    )
    engine = Engine(cfg)
    prob = engine.problem
    n = prob.rows_per_shard
    trained = []
    stoch_gradient = prob.stoch_gradient

    def recording_gradient(x, rows, out=None):
        trained.append(rows.copy())
        return stoch_gradient(x, rows, out=out)

    prob.stoch_gradient = recording_gradient
    records = engine.records()
    rngs = copy.deepcopy(engine.rngs)
    for _ in range(cfg.steps):
        record = next(records)
        expected = []
        for m, rng in enumerate(rngs):
            rows = prob.sample_batch(rng, 1)[0]  # the step's training batch
            assert trained[m].tolist() == (rows + prob.shard_starts[m]).tolist()
            assert np.all((m * n <= trained[m]) & (trained[m] < (m + 1) * n))
            rows = prob.sample_batch(rng, 1)[0]
            expected.append(prob.loss(engine.x[m], rows + prob.shard_starts[m]))
        assert len(trained) == cfg.workers
        trained.clear()
        assert record["worker_losses"] == expected
        assert record["mean_loss"] == float(np.mean(expected))


@pytest.mark.parametrize("strategy", ["global", "local"])
def test_engine_refresh_rotates_zero_variance_second_moment_exactly(strategy):
    # With vh = uh^2 the variance term of the rotation rule vanishes, so the
    # refreshed second moment must equal (1-beta2^t) (R uh)^2 computed from
    # the old-basis first moment.
    cfg = from_dict(config_dict("small", workers=1, projection={"strategy": strategy}))
    engine = Engine(cfg)
    hp = engine.cfg.hyperparams
    t = 5
    rng = np.random.default_rng(23)
    engine.u = rng.standard_normal(engine.u.shape)
    uh = engine.u / (1.0 - hp.beta1**t)
    engine.v = (1.0 - hp.beta2**t) * uh * uh
    old_basis, old_u = engine.basis[0].copy(), engine.u.copy()
    signal = rng.standard_normal((16, 12))
    metrics = engine._refresh(signal[None], t)
    new_basis = engine.basis[0]
    assert subspace_sin_theta(new_basis, old_basis) > 0.1
    r_mat = rotation_matrix(new_basis, old_basis)
    np.testing.assert_allclose(engine.v, (1.0 - hp.beta2**t) * (r_mat @ uh) ** 2, rtol=0, atol=1e-14)
    np.testing.assert_allclose(engine.u, r_mat @ old_u, rtol=0, atol=1e-14)
    # the logged diagnostics compare the basis held before the refresh with the one after it
    assert np.linalg.norm(new_basis.T @ new_basis - np.eye(new_basis.shape[1])) < 1e-12
    assert metrics["mssv"] == pytest.approx(mssv(r_mat), rel=0, abs=1e-14)
    assert metrics["sin_theta"] == pytest.approx(subspace_sin_theta(new_basis, old_basis), rel=0, abs=1e-14)


def test_engine_refresh_skips_degenerate_signal_and_logs_the_moved_bases():
    # A zero signal keeps its worker's stale basis and moments bit for bit,
    # and the logged entry averages only the bases that moved.
    cfg = from_dict(config_dict("small", workers=2, projection={"strategy": "local"}))
    engine = Engine(cfg)
    hp = cfg.hyperparams
    t = 3
    rng = np.random.default_rng(5)
    engine.u = rng.standard_normal(engine.u.shape)
    engine.v = rng.random(engine.v.shape)
    before = {name: getattr(engine, name).copy() for name in ("basis", "u", "v")}
    signals = np.stack([rng.standard_normal((16, 12)), np.zeros((16, 12))])
    entry = engine._refresh(signals, t)
    for name in ("basis", "u", "v"):
        assert np.array_equal(getattr(engine, name)[1], before[name][1]), name
    new, sig_s = projection_with_spectrum(signals[0], cfg.rank)
    r_mat = rotation_matrix(new, before["basis"][0])
    assert np.array_equal(engine.basis[0], new)
    assert subspace_sin_theta(new, before["basis"][0]) > 0.1
    v0 = rotate_second_moment(r_mat, before["u"][:1], before["v"][:1], hp.beta1, hp.beta2, t)
    np.testing.assert_array_equal(engine.v[:1], v0)
    np.testing.assert_array_equal(engine.u[:1], rotate_first_moment(r_mat, before["u"][:1]))
    assert entry == subspace_metrics_from_update(new, before["basis"][0], r_mat, sig_s)
    # no basis moves: no entry, and the bases and moments are untouched
    after = {name: getattr(engine, name).copy() for name in ("basis", "u", "v")}
    assert engine._refresh(np.zeros_like(signals), t) is None
    for name in ("basis", "u", "v"):
        assert np.array_equal(getattr(engine, name), after[name]), name


@pytest.mark.parametrize("strategy", ["global", "local"])
def test_engine_error_buffer_bounded_by_compressions_since_basis_moved(strategy):
    # Each compression adds at most one clipped gradient to E_m, and E_m is
    # emptied whenever worker m's basis is replaced, so ||E_m||_F <= k_m * c
    # with k_m the compressions since that basis moved and c the clip radius.
    # Compression leaves E_m orthogonal to the basis it used, so Q_m^T E_m = 0
    # after every step, and the buffers must carry a real residual.
    cfg = from_dict(config_dict(f"reference_{strategy}"))
    engine = Engine(cfg)
    # the local strategy refreshes before the step's compression, the global one after it
    after_move = 1 if strategy == "local" else 0
    since = np.zeros(cfg.workers)
    before = engine.basis.copy()
    steps = 0
    peak = 0.0
    for rec in engine.records():
        assert not rec["diverged"]
        moved = np.array([not np.array_equal(engine.basis[m], before[m]) for m in range(cfg.workers)])
        since = np.where(moved, after_move, since + 1)
        norms = np.linalg.norm(engine.error, axis=(1, 2))
        bound = since * cfg.hyperparams.clip_radius
        assert np.all(norms <= bound * (1.0 + 1e-12)), (rec["step"], norms, bound)
        assert np.max(np.abs(np.swapaxes(engine.basis, -1, -2) @ engine.error)) < 1e-12, rec["step"]
        peak = max(peak, np.max(np.abs(engine.error)))
        before = engine.basis.copy()
        steps += 1
    assert steps == cfg.steps == 640
    assert peak > 1e-3


# ---- invariants over small valid configs -------------------------------------


@st.composite
def small_run_configs(draw):
    """Config mappings of small runs, valid or not."""
    workers, p, q = draw(st.integers(1, 4)), draw(st.integers(1, 16)), draw(st.integers(1, 8))
    mode = draw(st.sampled_from(["full_rank", "none", "low_rank"]))
    return {
        "workers": workers,
        "steps": draw(st.integers(1, 48)),
        "rank": draw(st.integers(1, min(p, q))),
        "problem": {"rows": p, "cols": q, "design_rows": 8 * workers, "batch_size": 4,
                    "shard_policy": draw(st.sampled_from(["iid", "feature_blocks"]))},
        "schedule": {key: draw(st.integers(1, 8)) for key in ("k_x", "k_u", "k_v")},
        "projection": {"strategy": draw(st.sampled_from(["global", "global", "local"])),
                       "refresh": draw(st.sampled_from([True, True, False]))},
        "qhm": {"mode": mode, "omega": None if mode == "none" else 0.5},
        "flags": {"error_feedback": draw(st.sampled_from([True, True, False])),
                  "rotate_moments": draw(st.booleans())},
    }


# The Q^T E check sees a stale error buffer only after a global refresh
# (a local one precedes its step's compression), and a global refresh
# moves the basis only when full-rank QHM puts something outside span(Q)
# into the pseudo-gradient; so the draws favour global runs that
# refresh with EF on. Workers hold different bases only in a local run
# with M > 1, which the draws may miss, so the small local run is an example.
@settings(max_examples=100, deadline=None)
@example(raw=config_dict("small", projection={"strategy": "local"}))
@given(raw=small_run_configs())
def test_engine_invariants_hold_over_small_valid_configs(raw):
    try:
        cfg = from_dict(raw)
    except ConfigError:
        reject()
    engine = Engine(cfg)
    sched = cfg.schedule
    fired = np.zeros(3, dtype=np.int64)  # u, v and parameter syncs
    uplink = downlink = 0
    for rec in engine.records():
        t = rec["step"]
        due = [(t + 1) % k == 0 for k in (sched.k_u, sched.k_v, sched.k_x)]
        fired += due
        uplink += rec["bytes_uplink"]
        downlink += rec["bytes_downlink"]
        qt = np.swapaxes(engine.basis, -1, -2)
        assert np.max(np.abs(qt @ engine.basis - np.eye(cfg.rank))) <= 1e-10, t
        assert np.all(engine.v >= 0.0), t
        if cfg.flags.error_feedback:
            assert np.max(np.abs(qt @ engine.error)) <= 1e-9 * max(1.0, np.max(np.abs(engine.error))), t
        if due[2]:
            assert all(x.tobytes() == engine.anchor.tobytes() for x in engine.x), t
            assert np.any(engine.anchor != 0.0), t  # the anchor moved off its zero start
        if cfg.projection.strategy == "global":
            assert all(b.tobytes() == engine.basis[0].tobytes() for b in engine.basis), t
    sizes = costs.CostInputs(p=cfg.problem.rows, q=cfg.problem.cols, r=cfg.rank)
    pay = costs.per_payload(cfg.projection.strategy, cfg.qhm.mode, sizes)
    up = np.array([pay.up_first, pay.up_second, pay.up_params + pay.up_projection])
    down = np.array([pay.down_first, pay.down_second, pay.down_params + pay.down_projection])
    assert uplink == int(fired @ up) * ELEMENT_SIZE
    assert downlink == int(fired @ down) * ELEMENT_SIZE


# ---- qualitative mechanisms --------------------------------------------------


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
        config_dict(
            "small",
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


@pytest.mark.parametrize("strategy, scale", [("global", {"lr": 1e-170}), ("local", {"clip_radius": 1e-170})])
def test_tiny_scale_run_has_finite_refresh_entries(strategy, scale):
    # every refresh signal is of order 1e-170, so its raw singular values square to 0
    recs = list(Engine(from_dict(config_dict(f"reference_{strategy}", steps=64, hyperparams=scale))).records())
    assert len(recs) == 64
    assert not any(r["diverged"] for r in recs)
    entries = [r["subspace"][0] for r in recs if r["subspace"]]
    assert len(entries) == 2
    assert all(0.0 <= e["mssv"] <= 1.0 + 1e-9 and e["stable_rank"] >= 1.0 for e in entries)


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
