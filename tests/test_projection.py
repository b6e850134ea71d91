import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrdsim.linalg import NonFiniteError, svd
from lrdsim.projection import (
    DegenerateSignalError,
    _sin_theta,
    mssv,
    projection_with_spectrum,
    random_projection,
    rotate_first_moment,
    rotate_second_moment,
    rotation_matrix,
    spectral_gap,
    stable_rank,
    subspace_metrics_from_update,
)

from oracles import jacobi_eigh, subspace_sin_theta


def basis(p, cols):
    q = np.zeros((p, len(cols)))
    for j, c in enumerate(cols):
        q[c, j] = 1.0
    return q


def test_compute_projection_diagonal():
    proj = projection_with_spectrum(np.diag([3.0, 2.0, 1.0]), rank=2)[0]
    np.testing.assert_allclose(proj, np.eye(3)[:, :2], atol=1e-12)


def test_compute_projection_identity_full_rank():
    proj = projection_with_spectrum(np.eye(5), rank=5)[0]
    np.testing.assert_allclose(proj, np.eye(5), atol=1e-12)


def test_compute_projection_matches_gram_eigenvectors():
    rng = np.random.default_rng(7)
    signal = rng.standard_normal((8, 6))
    proj = projection_with_spectrum(signal, rank=3)[0]
    _, vecs = jacobi_eigh(signal @ signal.T)
    assert subspace_sin_theta(proj, vecs[:, :3]) < 1e-8


def test_compute_projection_rejects_bad_inputs():
    with pytest.raises(DegenerateSignalError, match="degenerate"):
        projection_with_spectrum(np.zeros((4, 4)), rank=2)
    rank1 = np.outer(np.arange(1.0, 5.0), np.ones(3))
    with pytest.raises(DegenerateSignalError):
        projection_with_spectrum(rank1, rank=2)


def test_compute_projection_scale_invariant_subspace():
    rng = np.random.default_rng(13)
    signal = rng.standard_normal((10, 7))
    p1 = projection_with_spectrum(signal, rank=4)[0]
    p2 = projection_with_spectrum(3.7 * signal, rank=4)[0]
    assert subspace_sin_theta(p1, p2) < 1e-10


def test_rotation_matrix_cases():
    q = random_projection(6, 3, np.random.default_rng(0))
    np.testing.assert_allclose(rotation_matrix(q, q), np.eye(3), atol=1e-12)
    qa = basis(4, [0, 1])
    qb = basis(4, [2, 3])
    np.testing.assert_array_equal(rotation_matrix(qa, qb), np.zeros((2, 2)))
    qc = basis(4, [0, 2])
    np.testing.assert_array_equal(rotation_matrix(qc, qa), [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        rotation_matrix(qa, basis(5, [0, 1]))


def test_rotation_singular_values_bounded():
    rng = np.random.default_rng(3)
    for seed in range(20):
        local = np.random.default_rng(seed)
        p = int(rng.integers(2, 12))
        r = int(rng.integers(1, p + 1))
        r_mat = rotation_matrix(random_projection(p, r, local), random_projection(p, r, local))
        sv = np.linalg.svd(r_mat, compute_uv=False)
        assert np.all(sv <= 1.0 + 1e-10)
        assert np.all(sv >= 0.0)


def test_mssv_cases():
    assert mssv(np.eye(4)) == pytest.approx(1.0)
    assert mssv(np.zeros((3, 3))) == 0.0
    assert mssv(np.diag([1.0, 0.5])) == pytest.approx(0.625)


def test_mssv_range_and_containment():
    rng = np.random.default_rng(17)
    for seed in range(30):
        local = np.random.default_rng(100 + seed)
        q1 = random_projection(9, 3, local)
        q2 = random_projection(9, 3, local)
        val = mssv(rotation_matrix(q1, q2))
        assert 0.0 <= val <= 1.0 + 1e-12
    # identical span in different bases -> exactly 1
    base = random_projection(8, 3, rng)
    mix, _ = np.linalg.qr(base @ rng.standard_normal((3, 3)))
    assert mssv(rotation_matrix(base, mix)) == pytest.approx(1.0, abs=1e-8)


def test_stable_rank_cases():
    assert stable_rank(svd(np.eye(6))[1]) == pytest.approx(6.0)
    assert stable_rank(svd(np.outer(np.arange(1.0, 4.0), np.ones(4)))[1]) == pytest.approx(1.0, abs=1e-10)
    assert stable_rank(svd(np.diag([2.0, 1.0]))[1]) == pytest.approx(1.25)
    with pytest.warns(RuntimeWarning):
        assert stable_rank(svd(np.zeros((3, 3)))[1]) == 0.0


@pytest.mark.parametrize("k", [-900, -600, 600, 900])
def test_metrics_invariant_under_power_of_two_scaling(k):
    # 2^k moves every raw square out of float64's range, but not the spectrum itself
    rng = np.random.default_rng(5)
    q_new, s = projection_with_spectrum(rng.standard_normal((10, 7)), rank=3)
    q_old = random_projection(10, 3, rng)
    r_mat = rotation_matrix(q_new, q_old)
    scaled = np.ldexp(s, k)
    assert stable_rank(scaled) == stable_rank(s)
    want = subspace_metrics_from_update(q_new, q_old, r_mat, s)
    got = subspace_metrics_from_update(q_new, q_old, r_mat, scaled)
    for key in ("mssv", "sin_theta", "stable_rank"):
        assert got[key] == want[key]
    assert got["spectral_gap"] == np.ldexp(want["spectral_gap"], k)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), p=st.integers(2, 6), q=st.integers(1, 6), exponent=st.integers(-1074, 1023))
def test_finite_signal_is_skipped_or_gives_finite_entry(data, p, q, exponent):
    # extreme entries, or a Gaussian signal at any binary scale, as a refresh may see them
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if data.draw(st.booleans()):
        signal = np.array(data.draw(st.lists(_FINITE, min_size=p * q, max_size=p * q))).reshape(p, q)
    else:
        signal = rng.standard_normal((p, q))
        signal = np.ldexp(signal / np.abs(signal).max(), exponent)  # entries up to 2^exponent, so finite
    rank = data.draw(st.integers(1, min(p, q)))
    q_old = random_projection(p, rank, rng)
    # `lrdsim run` silences numpy's overflow warnings the same way
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            q_new, s = projection_with_spectrum(signal, rank)
        except (DegenerateSignalError, NonFiniteError):
            return
        entry = subspace_metrics_from_update(q_new, q_old, rotation_matrix(q_new, q_old), s)
    assert all(map(math.isfinite, entry.values())), entry


def test_spectral_gap_cases():
    assert spectral_gap([3.0, 2.0, 1.0], 1) == pytest.approx(1.0)
    assert spectral_gap([3.0, 2.0, 1.0], 2) == pytest.approx(1.0)
    powerlaw = 1.0 * np.arange(1, 10) ** -1.0
    assert spectral_gap(powerlaw, 1) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        spectral_gap([3.0, 2.0], 2)


def test_sin_theta_cases():
    q = random_projection(7, 3, np.random.default_rng(1))
    assert _sin_theta(q, q, rotation_matrix(q, q)) == pytest.approx(0.0, abs=1e-12)
    qa = basis(6, [0, 1])
    qb = basis(6, [2, 3])
    assert _sin_theta(qa, qb, rotation_matrix(qa, qb)) == pytest.approx(np.sqrt(2.0))
    qc = basis(4, [0, 1])
    qd = basis(4, [0, 2])
    assert _sin_theta(qc, qd, rotation_matrix(qc, qd)) == pytest.approx(1.0)


def test_sin_theta_pythagorean_identity():
    # sin^2 + ||Q1^T Q2||_F^2 = r, against the principal-angle oracle
    rng = np.random.default_rng(23)
    for seed in range(30):
        local = np.random.default_rng(seed)
        p = int(rng.integers(2, 15))
        r = int(rng.integers(1, p + 1))
        q1 = random_projection(p, r, local)
        q2 = random_projection(p, r, local)
        st_val = _sin_theta(q1, q2, rotation_matrix(q1, q2))
        overlap = np.linalg.norm(q1.T @ q2) ** 2
        assert st_val**2 + overlap == pytest.approx(r, abs=1e-8)
        assert st_val == pytest.approx(subspace_sin_theta(q1, q2), abs=1e-8)
        assert 0.0 <= st_val <= np.sqrt(r) + 1e-12


def test_rotate_first_moment():
    u = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(rotate_first_moment(np.eye(2), u), u)
    np.testing.assert_array_equal(rotate_first_moment(np.zeros((2, 2)), u), np.zeros((2, 2)))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(rotate_first_moment(swap, u), [[3.0, 4.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        rotate_first_moment(np.eye(3), u)


def test_rotate_second_moment_zero_mean_case():
    rng = np.random.default_rng(9)
    r_mat = rotation_matrix(
        random_projection(6, 4, rng), random_projection(6, 4, rng)
    )
    v = rng.random((4, 5))
    out = rotate_second_moment(r_mat, np.zeros((4, 5)), v, beta1=0.9, beta2=0.95, step=3)
    np.testing.assert_allclose(out, (r_mat * r_mat) @ v, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    beta1=st.floats(0.0, 0.999),
    beta2=st.floats(0.0, 0.999),
    step=st.integers(1, 200),
)
def test_rotate_second_moment_nonnegative(seed, beta1, beta2, step):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 8))
    r = int(rng.integers(1, p + 1))
    q = int(rng.integers(1, 6))
    r_mat = rotation_matrix(random_projection(p, r, rng), random_projection(p, r, rng))
    u = rng.uniform(-5.0, 5.0, size=(r, q))
    v = rng.uniform(0.0, 5.0, size=(r, q))
    out = rotate_second_moment(r_mat, u, v, beta1=beta1, beta2=beta2, step=step)
    assert np.all(out >= 0.0)


def test_random_projection_deterministic_and_orthonormal():
    a = random_projection(20, 6, np.random.default_rng(42))
    b = random_projection(20, 6, np.random.default_rng(42))
    assert a.tobytes() == b.tobytes()
    assert np.linalg.norm(a.T @ a - np.eye(6)) < 1e-12
