import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hdopt.objectives as objectives
from hdopt.objectives import (
    DataPartition,
    Dataset,
    DatasetFormatError,
    LinearObjective,
    VarianceProfile,
    directional_derivative,
    load_csv_dataset,
    make_blobs_dataset,
    make_logistic,
    make_nonconvex,
    make_quadratic,
    partition_data,
    save_dataset_csv,
    stochastic_gradient,
    stochastic_loss,
    variance_profile,
)

from conftest import central_diff_gradient, scalar_mc_stats


def small_dataset():
    return make_blobs_dataset(40, 3, seed=5)


# ---------------------------------------------------------------------------
# quadratic


def test_quadratic_identity_hessian_when_cond_one():
    q = make_quadratic(d=2, cond=1.0, seed=0)
    assert q.L == 1.0 and q.ell == 1.0
    assert np.allclose(q.hessian, np.eye(2), atol=1e-12)


def test_quadratic_gradient_zero_at_optimum():
    q = make_quadratic(d=6, cond=4.0, seed=1)
    assert np.linalg.norm(q.grad(q.x_star)) < 1e-12
    assert q.loss(q.x_star) == pytest.approx(0.0, abs=1e-12)
    assert q.f_star == 0.0


def test_quadratic_gradient_matches_finite_differences():
    q = make_quadratic(d=10, cond=10.0, seed=2)
    rng = np.random.default_rng(3)
    x = q.x_star + rng.standard_normal(10)
    fd = central_diff_gradient(lambda z: q.loss(z), x)
    g = q.grad(x)
    assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-5


def test_quadratic_full_batch_gradient_exact():
    q = make_quadratic(d=5, cond=3.0, seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(5)
    assert np.allclose(q.grad(x), q.hessian @ (x - q.x_star), atol=1e-12)


def test_quadratic_rejects_bad_cond():
    with pytest.raises(ValueError):
        make_quadratic(d=3, cond=0.5, seed=0)


def test_quadratic_per_sample_lipschitz_within_L():
    q = make_quadratic(d=8, cond=10.0, seed=6, hessian_jitter=1.0)
    assert q.Lam.min() >= -1e-12
    assert q.Lam.max() <= q.L + 1e-12


# ---------------------------------------------------------------------------
# logistic


def test_logistic_loss_at_zero_is_log_two():
    lg = make_logistic(small_dataset(), lam=0.5)
    assert lg.loss(np.zeros(3)) == pytest.approx(np.log(2.0), abs=1e-12)


def test_logistic_single_sample_gradient_hand_value():
    ds = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
    lg = make_logistic(ds, lam=1.0)
    g = lg.grad(np.zeros(2))
    assert np.allclose(g, [-0.5, 0.0], atol=1e-12)


def test_logistic_gradient_matches_finite_differences():
    lg = make_logistic(small_dataset(), lam=0.1)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(3)
    fd = central_diff_gradient(lambda z: lg.loss(z), x)
    g = lg.grad(x)
    assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-5


def test_logistic_rejects_nonpositive_regularization():
    with pytest.raises(ValueError):
        make_logistic(small_dataset(), lam=0.0)


# ---------------------------------------------------------------------------
# non-convex


def test_nonconvex_loss_floor_for_confident_correct_predictions():
    ds = Dataset(features=np.array([[1.0], [2.0]]), labels=np.array([1.0, 1.0]))
    nc = make_nonconvex(ds)
    assert nc.loss(np.array([50.0])) < 1e-12
    assert nc.ell == 0.0 and nc.f_star is None


def test_nonconvex_gradient_matches_finite_differences():
    nc = make_nonconvex(small_dataset())
    rng = np.random.default_rng(8)
    x = rng.standard_normal(3)
    fd = central_diff_gradient(lambda z: nc.loss(z), x)
    g = nc.grad(x)
    assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-10) < 1e-5


def test_nonconvex_midpoint_violation_exists():
    # grid search on a 1-sample 1-d instance for a concave segment
    ds = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
    nc = make_nonconvex(ds)
    xs = np.linspace(-5.0, 5.0, 201)
    found = False
    for i in range(len(xs)):
        for j in range(i + 2, len(xs), 7):
            x1, x2 = np.array([xs[i]]), np.array([xs[j]])
            mid = 0.5 * (x1 + x2)
            if nc.loss(mid) > 0.5 * (nc.loss(x1) + nc.loss(x2)) + 1e-9:
                found = True
                break
        if found:
            break
    assert found, "objective should not be convex"


# ---------------------------------------------------------------------------
# margin losses: the link and the blocked loss_many


def test_logistic_link_matches_logaddexp_without_warnings():
    t = np.array([0.0, 1e-300, -1e-300, 1.0, -1.0, 30.0, -30.0, 800.0, -800.0,
                  np.inf, -np.inf])
    lg = make_logistic(small_dataset(), lam=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lg._g(t)
        in_place = t.copy()
        lg._g(in_place, out=in_place)
    ref = np.logaddexp(0.0, -t)
    np.testing.assert_array_max_ulp(got, ref, maxulp=2)
    assert np.array_equal(in_place, got)


def _unblocked_loss_many(spec, X):
    T = spec.y[:, None] * (spec.A @ X.T)
    if spec.kind == "logistic_l2":
        return np.logaddexp(0.0, -T).mean(axis=0) + 0.5 * spec.reg * np.sum(X * X, axis=1)
    return ((objectives.sigmoid(T) - 1.0) ** 2).mean(axis=0)


@pytest.mark.parametrize("make", [
    lambda data: make_logistic(data, lam=0.1),
    lambda data: make_nonconvex(data),
])
def test_blocked_loss_many_matches_unblocked_reference(make):
    spec = make(make_blobs_dataset(100, 5, seed=6))
    block = objectives._SLAB // spec.n_samples
    rng = np.random.default_rng(7)
    for count in (1, block - 1, block, block + 1, 2 * block + 3):
        X = 2.0 * rng.standard_normal((count, spec.d))
        np.testing.assert_array_max_ulp(spec.loss_many(X), _unblocked_loss_many(spec, X),
                                        maxulp=4)


def test_loss_many_memory_is_bounded_per_block():
    lg = make_logistic(make_blobs_dataset(100, 5, seed=6), lam=0.1)
    X = np.random.default_rng(8).standard_normal((100_000, 5))
    tracemalloc.start()
    try:
        lg.loss_many(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the unblocked (100 x 100,000) slab alone is 80 MB
    assert peak < 24 * 2**20, peak


# ---------------------------------------------------------------------------
# shared stochastic interface


@pytest.mark.parametrize("make", [
    lambda: make_quadratic(d=4, cond=5.0, seed=9, n_samples=20),
    lambda: make_logistic(small_dataset(), lam=0.1),
    lambda: make_nonconvex(small_dataset()),
])
def test_per_sample_gradients_are_L_lipschitz(make):
    spec = make()
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        k = rng.integers(spec.n_samples)
        x = rng.standard_normal(spec.d)
        y = rng.standard_normal(spec.d)
        gx = spec.grad_per_sample(x, np.array([k]))[0]
        gy = spec.grad_per_sample(y, np.array([k]))[0]
        worst = max(worst, np.linalg.norm(gx - gy) / np.linalg.norm(x - y))
    assert worst <= spec.L * (1 + 1e-9)


def test_quadratic_strong_convexity_inequality():
    q = make_quadratic(d=6, cond=8.0, seed=11)
    rng = np.random.default_rng(12)
    for _ in range(200):
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        lhs = float((x - y) @ (q.grad(x) - q.grad(y)))
        assert lhs >= q.ell * np.linalg.norm(x - y) ** 2 - 1e-9


def test_stochastic_loss_full_batch_equals_objective():
    q = make_quadratic(d=4, cond=3.0, seed=13, n_samples=16)
    x = np.ones(4)
    full = stochastic_loss(q, x, np.arange(q.n_samples))
    assert full == pytest.approx(q.loss(x), abs=1e-12)


def test_stochastic_loss_mc_mean_matches_objective():
    q = make_quadratic(d=4, cond=3.0, seed=14, n_samples=20)
    rng = np.random.default_rng(15)
    x = q.x_star + rng.standard_normal(4)
    vals = np.empty(10**5)
    for i in range(vals.size):
        batch = rng.integers(0, q.n_samples, size=2)
        vals[i] = stochastic_loss(q, x, batch)
    mean, se = scalar_mc_stats(vals)
    assert abs(mean - q.loss(x)) <= 3 * se


def test_stochastic_gradient_unbiased_and_matches_fd():
    lg = make_logistic(small_dataset(), lam=0.2)
    rng = np.random.default_rng(16)
    x = rng.standard_normal(3)
    draws = np.empty((20000, 3))
    for i in range(draws.shape[0]):
        batch = rng.integers(0, lg.n_samples, size=2)
        draws[i] = stochastic_gradient(lg, x, batch)
    mean = draws.mean(axis=0)
    se = np.sqrt(draws.var(axis=0, ddof=1).sum() / draws.shape[0])
    assert np.linalg.norm(mean - lg.grad(x)) <= 3 * se
    batch = np.array([0, 3, 7])
    fd = central_diff_gradient(lambda z: stochastic_loss(lg, z, batch), x)
    assert np.linalg.norm(fd - stochastic_gradient(lg, x, batch)) < 1e-5


def test_empty_batch_rejected():
    q = make_quadratic(d=3, cond=2.0, seed=17)
    with pytest.raises(ValueError):
        stochastic_loss(q, np.zeros(3), [])
    with pytest.raises(ValueError):
        stochastic_gradient(q, np.zeros(3), [])


@pytest.mark.parametrize("make", [
    lambda: make_quadratic(d=5, cond=4.0, seed=18, n_samples=12),
    lambda: make_logistic(small_dataset(), lam=0.3),
    lambda: make_nonconvex(small_dataset()),
])
def test_directional_derivative_matches_gradient_dot(make):
    spec = make()
    rng = np.random.default_rng(19)
    x = rng.standard_normal(spec.d)
    batch = rng.integers(0, spec.n_samples, size=4)
    for _ in range(20):
        u = rng.standard_normal(spec.d)
        dd = directional_derivative(spec, x, batch, u)
        assert dd == pytest.approx(float(stochastic_gradient(spec, x, batch) @ u), abs=1e-10)
    assert directional_derivative(spec, x, batch, np.zeros(spec.d)) == 0.0


def test_directional_derivative_unit_vector_picks_component():
    q = make_quadratic(d=4, cond=2.0, seed=20)
    x = np.ones(4)
    batch = np.arange(q.n_samples)
    e2 = np.zeros(4)
    e2[2] = 1.0
    assert directional_derivative(q, x, batch, e2) == pytest.approx(q.grad(x)[2], abs=1e-12)


def test_directional_derivative_dimension_mismatch():
    q = make_quadratic(d=4, cond=2.0, seed=21)
    with pytest.raises(ValueError):
        directional_derivative(q, np.zeros(4), [0], np.zeros(5))


def test_linear_objective_constant_gradient():
    lin = LinearObjective(np.array([1.0, 0.0]))
    assert np.allclose(lin.grad(np.zeros(2)), [1.0, 0.0])
    assert lin.loss(np.array([2.0, 5.0])) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# partitioning


def test_partition_balanced_sizes():
    part = partition_data(10, 2, 0, seed=0)
    assert sorted(len(s) for s in part.zo_shards) == [5, 5]
    part = partition_data(10, 3, 0, seed=0)
    assert sorted(len(s) for s in part.zo_shards) == [3, 3, 4]


def test_partition_deterministic():
    a = partition_data(50, 3, 4, seed=9)
    b = partition_data(50, 3, 4, seed=9)
    for sa, sb in zip(a.zo_shards + a.fo_shards, b.zo_shards + b.fo_shards):
        assert np.array_equal(sa, sb)


def test_partition_rejects_empty_population():
    with pytest.raises(ValueError):
        partition_data(10, 0, 0, seed=0)
    with pytest.raises(ValueError):
        partition_data(10, 1, 0, seed=0)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(4, 60), n0=st.integers(0, 5), n1=st.integers(0, 5),
       seed=st.integers(0, 1000))
def test_partition_disjoint_cover_property(m, n0, n1, seed):
    if n0 + n1 < 2:
        return
    part = partition_data(m, n0, n1, seed=seed)
    for shards, count in ((part.zo_shards, n0), (part.fo_shards, n1)):
        assert len(shards) == count
        if count:
            joined = np.concatenate(shards)
            assert sorted(joined.tolist()) == list(range(m))
            sizes = [len(s) for s in shards]
            assert max(sizes) - min(sizes) <= 1


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 80), n0=st.integers(0, 6), n1=st.integers(0, 6),
       single_copy=st.booleans(), seed=st.integers(0, 1000))
def test_partition_covers_every_id_in_both_modes(m, n0, n1, single_copy, seed):
    if n0 + n1 < 2:
        return
    part = partition_data(m, n0, n1, seed=seed, single_copy=single_copy)
    assert len(part.zo_shards) == n0 and len(part.fo_shards) == n1
    groups = ([part.zo_shards + part.fo_shards] if single_copy
              else [g for g in (part.zo_shards, part.fo_shards) if g])
    for shards in groups:  # every id exactly once per copy
        assert sorted(np.concatenate(shards).tolist()) == list(range(m))
    for shards in (part.zo_shards, part.fo_shards):
        sizes = [len(s) for s in shards]
        assert not sizes or max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("zo, fo, m, single_copy, message", [
    ([[0, 1], [1, 2]], [], 3, False, "disjoint and cover"),  # a repeated id
    ([[0], [1]], [[0, 1, 2]], 3, False, "disjoint and cover"),  # a missing id
    ([[0, 1], [2, 3]], [], 3, False, "disjoint and cover"),  # an id out of range
    ([[0, 1], [2, -1]], [], 3, False, "disjoint and cover"),  # a negative id
    ([[0.0, 1.0], [2.0]], [], 3, False, "disjoint and cover"),  # non-integer ids
    ([[0, 1, 2, 3], [4]], [], 5, False, "differ by at most 1"),
    ([[0, 1]], [[1, 2]], 3, True, "must partition"),  # one id in both groups
    ([[0]], [[1]], 3, True, "must partition"),  # a missing id
    ([[0, 1]], [[2, 3]], 3, True, "must partition"),
])
def test_partition_rejects_bad_shards(zo, fo, m, single_copy, message):
    with pytest.raises(ValueError, match=message):
        DataPartition(zo_shards=[np.array(s) for s in zo], fo_shards=[np.array(s) for s in fo],
                      n_samples=m, single_copy=single_copy)


def test_partition_single_copy_mode():
    part = partition_data(12, 2, 2, seed=3, single_copy=True)
    joined = np.concatenate(part.zo_shards + part.fo_shards)
    assert sorted(joined.tolist()) == list(range(12))
    assert all(len(s) == 3 for s in part.zo_shards + part.fo_shards)


def test_variance_profile_population_averages():
    q = make_quadratic(d=4, cond=5.0, seed=30, n_samples=24, grad_noise=1.0)
    part = partition_data(q.n_samples, 2, 3, seed=31)
    x = q.x_star + np.ones(4)
    prof = variance_profile(q, part, x)
    assert len(prof.s_zo) == 2 and len(prof.s_fo) == 3
    assert prof.sigma0_sq == pytest.approx(np.mean(prof.s_zo ** 2))
    assert prof.sigma1_sq == pytest.approx(np.mean(prof.s_fo ** 2))
    assert prof.varsigma0_sq >= 0 and prof.varsigma1_sq >= 0


def test_variance_profile_constant_for_additive_noise():
    # with no Hessian jitter the gradient noise is the same at every point
    q = make_quadratic(d=3, cond=4.0, seed=32, n_samples=20, grad_noise=0.7,
                       hessian_jitter=0.0)
    part = partition_data(q.n_samples, 0, 4, seed=33)
    a = variance_profile(q, part, q.x_star)
    b = variance_profile(q, part, q.x_star + 5.0)
    assert np.allclose(a.s_fo, b.s_fo, atol=1e-10)


def test_variance_profile_invariant_enforced():
    with pytest.raises(ValueError):
        VarianceProfile(s_zo=np.array([1.0, 2.0]), s_fo=np.array([]),
                        sigma0_sq=1.0, sigma1_sq=0.0,
                        varsigma0_sq=0.0, varsigma1_sq=0.0)


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip(tmp_path):
    ds = Dataset(features=np.array([[1.0, 2.0], [3.0, 4.5], [-1.25, 0.0]]),
                 labels=np.array([1.0, -1.0, 1.0]))
    path = tmp_path / "data.csv"
    save_dataset_csv(ds, path)
    back = load_csv_dataset(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_csv_header_round_trip(tmp_path):
    ds = make_blobs_dataset(6, 2, seed=1)
    path = tmp_path / "data.csv"
    save_dataset_csv(ds, path, header=True)
    back = load_csv_dataset(path, has_header=True)
    assert np.allclose(back.features, ds.features)
    with pytest.raises(DatasetFormatError):
        load_csv_dataset(path)  # header row does not parse as floats


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DatasetFormatError):
        load_csv_dataset(path)


def test_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0,1\n1.0,2.0\n")
    with pytest.raises(DatasetFormatError, match="row 2"):
        load_csv_dataset(path)
