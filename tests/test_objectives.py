import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hdopt.objectives as objectives
from hdopt.objectives import (
    DataPartition,
    Dataset,
    DatasetFormatError,
    load_csv_dataset,
    make_blobs_dataset,
    make_logistic,
    make_nonconvex,
    make_quadratic,
    partition_data,
    save_dataset_csv,
)

import oracles
from conftest import central_diff_gradient, scalar_mc_stats
from oracles import LinearObjective


def small_dataset():
    return make_blobs_dataset(40, 3, seed=5)


# ---------------------------------------------------------------------------
# quadratic


def hessian(q):
    """A = Q diag(lam) Q^T, from the quadratic's stored eigendecomposition."""
    return q.Q @ np.diag(q.lam) @ q.Q.T


def test_quadratic_identity_hessian_when_cond_one():
    q = make_quadratic(d=2, cond=1.0, seed=0)
    assert q.L == 1.0 and q.ell == 1.0
    assert np.allclose(hessian(q), np.eye(2), atol=1e-12)


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
    assert np.allclose(q.grad(x), hessian(q) @ (x - q.x_star), atol=1e-12)


def test_quadratic_rejects_bad_cond():
    with pytest.raises(ValueError):
        make_quadratic(d=3, cond=0.5, seed=0)


def test_quadratic_batch_of_repeated_ids_is_not_the_full_mean():
    # a batch as long as the dataset, drawn with replacement, is no full pass
    q = make_quadratic(d=3, cond=4.0, seed=1, n_samples=4)
    x = q.x_star + 1.0
    assert q.loss(x, [0, 0, 0, 0]) == pytest.approx(q.loss(x, [0]), rel=1e-12)
    np.testing.assert_allclose(q.grad(x, [0, 0, 0, 0]), q.grad(x, [0]), rtol=1e-12)


def test_quadratic_gradient_of_a_row_does_not_depend_on_its_place():
    # a stacked run evaluates a seed's rows among other seeds' rows, so each
    # row must round the same alone, in a slice and in the whole call
    q = make_quadratic(d=10, cond=10.0, seed=11, n_samples=64, grad_noise=1.0,
                       hessian_jitter=0.5)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((37, q.d))
    B = rng.integers(0, q.n_samples, (37, 4))
    for ids in (B, None):
        full = q.grad_rows(X, ids)
        for r in range(37):
            alone = q.grad_rows(X[r:r + 1], None if ids is None else ids[r:r + 1])
            assert np.array_equal(alone[0], full[r]), r
        for a, b in ((0, 2), (5, 12), (3, 37)):
            part = q.grad_rows(X[a:b], None if ids is None else ids[a:b])
            assert np.array_equal(part, full[a:b]), (a, b)


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


@pytest.mark.parametrize("make", [lambda ds, pc: make_logistic(ds, 0.1, pc), make_nonconvex],
                         ids=["logistic", "nonconvex"])
def test_positive_class_must_match_a_training_label(make):
    ds = Dataset(features=np.eye(4), labels=np.array([0.0, 1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="positive_class 2 matches no training label"):
        make(ds, 2)
    assert np.array_equal(make(ds, 0).y, [1.0, -1.0, -1.0, 1.0])


def test_mapping_labels_imports_no_masked_arrays():
    # np.unique imports numpy.ma on first use, a lazy import that would land
    # inside a run; the label rule needs only the set of label values
    code = ("import sys\n"
            "from hdopt.objectives import make_blobs_dataset, make_logistic\n"
            "make_logistic(make_blobs_dataset(40, 4, seed=3), lam=0.1)\n"
            "print('numpy.ma' in sys.modules)\n")
    path = [str(Path(objectives.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


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
# the link and the blocked loss kernels


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
    if spec.kind == "quadratic":
        W = (X - spec.x_star) @ spec.Q
        return 0.5 * (W * W) @ spec.Lam.mean(axis=0) - W @ spec.Goff.mean(axis=0)
    T = spec.y[:, None] * (spec.A @ X.T)
    if spec.kind == "logistic_l2":
        return np.logaddexp(0.0, -T).mean(axis=0) + 0.5 * spec.reg * np.sum(X * X, axis=1)
    return np.exp(-2.0 * np.logaddexp(0.0, T)).mean(axis=0)  # (1 - sigmoid(T))^2


def _block_width(spec, b):
    """float64s per (row, point) by which a loss kernel sizes its blocks."""
    return 4 * spec.d if spec.kind == "quadratic" else b


@pytest.mark.parametrize("make", [
    lambda data: make_logistic(data, lam=0.1),
    lambda data: make_nonconvex(data),
    lambda data: make_quadratic(d=data.d_in, cond=10.0, seed=6, n_samples=100),
])
def test_blocked_loss_many_matches_unblocked_reference(make):
    spec = make(make_blobs_dataset(100, 5, seed=6))
    block = objectives._SLAB // _block_width(spec, spec.n_samples)
    rng = np.random.default_rng(7)
    for count in (1, block - 1, block, block + 1, 2 * block + 3):
        X = 2.0 * rng.standard_normal((count, spec.d))
        np.testing.assert_array_max_ulp(spec.loss_rows(X[None])[0], _unblocked_loss_many(spec, X),
                                        maxulp=4)


def test_loss_many_memory_is_bounded_per_block():
    lg = make_logistic(make_blobs_dataset(100, 5, seed=6), lam=0.1)
    X = np.random.default_rng(8).standard_normal((1, 100_000, 5))
    tracemalloc.start()
    try:
        lg.loss_rows(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the unblocked (100 x 100,000) slab alone is 80 MB
    assert peak < 24 * 2**20, peak


def test_quadratic_single_sample_rows_memory_is_bounded_per_block():
    # the (N, 1, d) shape of the Monte-Carlo checks' single-sample draws;
    # unblocked, its gathered coefficients alone take 16 MB
    q = make_quadratic(d=10, cond=10.0, seed=6, n_samples=64)
    rng = np.random.default_rng(8)
    P = rng.standard_normal((100_000, 1, 10))
    B = rng.integers(0, q.n_samples, size=(100_000, 1))
    tracemalloc.start()
    try:
        q.loss_rows(P, B)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak


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
        gx = spec.grad(x, np.array([k]))
        gy = spec.grad(y, np.array([k]))
        worst = max(worst, np.linalg.norm(gx - gy) / np.linalg.norm(x - y))
    assert worst <= spec.L * (1 + 1e-9)


def test_quadratic_strong_convexity_inequality():
    q = make_quadratic(d=6, cond=8.0, seed=11)
    rng = np.random.default_rng(12)
    for _ in range(200):
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        lhs = float((x - y) @ (q.grad(x) - q.grad(y)))
        assert lhs >= q.ell * np.linalg.norm(x - y) ** 2 - 1e-9


_KERNEL_SPECS = {
    "quadratic": lambda: make_quadratic(d=3, cond=5.0, seed=40, n_samples=10),
    "logistic": lambda: make_logistic(make_blobs_dataset(12, 3, seed=41), lam=0.2),
    "nonconvex": lambda: make_nonconvex(make_blobs_dataset(12, 3, seed=41)),
    "linear": lambda: LinearObjective(np.array([1.0, -2.0, 0.5]), noise=0.3, n_samples=10,
                                      seed=42),
}


def _assert_close(got, ref):
    # 1e-12 relative to the largest reference value
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(_KERNEL_SPECS)), b=st.sampled_from([None, 1, 2, 4]),
       k=st.integers(1, 5), p=st.sampled_from(["small", "below", "at", "above", "twice"]),
       seed=st.integers(0, 2**16))
# a confident sigmoid (t >> 0), where 1 - s taken by subtraction cancels (2e-11 here)
@example(name="nonconvex", b=1, k=1, p="small", seed=103)
def test_kernels_match_per_sample_loops_over_shapes(name, b, k, p, seed):
    spec = _KERNEL_SPECS[name]()
    slab = 48  # small blocks, so that a few points already cross a boundary
    block = max(1, slab // _block_width(spec, spec.n_samples if b is None else b))
    rng = np.random.default_rng(seed)
    p = {"small": int(rng.integers(1, 4)), "below": max(1, block - 1), "at": block,
         "above": block + 1, "twice": 2 * block + 1}[p]
    B = None if b is None else rng.integers(0, spec.n_samples, size=(k, b))
    P = 2.0 * rng.standard_normal((k, p, spec.d))
    with mock.patch.object(objectives, "_SLAB", slab):
        losses = spec.loss_rows(P, B)
        grads = spec.grad_rows(P[:, 0], B)
    assert losses.shape == (k, p) and grads.shape == (k, spec.d)
    _assert_close(losses, oracles.loss_rows_reference(spec, P, B))
    _assert_close(grads, oracles.grad_rows_reference(spec, P[:, 0], B))

    # the single-point forms are the kernels at one row
    x, idx = P[0, 0], None if B is None else B[0]
    row = None if idx is None else idx[None]
    assert spec.loss(x, idx) == spec.loss_rows(x[None, None], row)[0, 0]
    assert np.array_equal(spec.grad(x, idx), spec.grad_rows(x[None], row)[0])
    ids = range(spec.n_samples) if idx is None else idx
    G = np.array([oracles.sample_grad(spec, x, i) for i in ids])
    centered = G - G.mean(axis=0)
    want = float(np.mean(np.sum(centered * centered, axis=1)))
    assert spec.gradient_variance(x, idx) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_stochastic_loss_full_batch_equals_objective():
    q = make_quadratic(d=4, cond=3.0, seed=13, n_samples=16)
    x = np.ones(4)
    full = q.loss(x, np.arange(q.n_samples))
    assert full == pytest.approx(q.loss(x), abs=1e-12)


def test_stochastic_loss_mc_mean_matches_objective():
    q = make_quadratic(d=4, cond=3.0, seed=14, n_samples=20)
    rng = np.random.default_rng(15)
    x = q.x_star + rng.standard_normal(4)
    vals = np.empty(10**5)
    for i in range(vals.size):
        batch = rng.integers(0, q.n_samples, size=2)
        vals[i] = q.loss(x, batch)
    mean, se = scalar_mc_stats(vals)
    assert abs(mean - q.loss(x)) <= 3 * se


def test_stochastic_gradient_unbiased_and_matches_fd():
    lg = make_logistic(small_dataset(), lam=0.2)
    rng = np.random.default_rng(16)
    x = rng.standard_normal(3)
    draws = np.empty((20000, 3))
    for i in range(draws.shape[0]):
        batch = rng.integers(0, lg.n_samples, size=2)
        draws[i] = lg.grad(x, batch)
    mean = draws.mean(axis=0)
    se = np.sqrt(draws.var(axis=0, ddof=1).sum() / draws.shape[0])
    assert np.linalg.norm(mean - lg.grad(x)) <= 3 * se
    batch = np.array([0, 3, 7])
    fd = central_diff_gradient(lambda z: lg.loss(z, batch), x)
    assert np.linalg.norm(fd - lg.grad(x, batch)) < 1e-5


def test_empty_batch_rejected():
    q = make_quadratic(d=3, cond=2.0, seed=17)
    with pytest.raises(ValueError):
        q.loss(np.zeros(3), [])
    with pytest.raises(ValueError):
        q.grad(np.zeros(3), [])


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


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 80), n0=st.integers(0, 6), n1=st.integers(0, 6),
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


@pytest.mark.parametrize("zo, fo, m, message", [
    ([[0, 1], [1, 2]], [], 3, "disjoint and cover"),  # a repeated id
    ([[0], [1]], [[0, 1, 2]], 3, "disjoint and cover"),  # a missing id
    ([[0, 1], [2, 3]], [], 3, "disjoint and cover"),  # an id out of range
    ([[0, 1], [2, -1]], [], 3, "disjoint and cover"),  # a negative id
    ([[0.0, 1.0], [2.0]], [], 3, "disjoint and cover"),  # non-integer ids
    ([[0, 1, 2, 3], [4]], [], 5, "differ by at most 1"),
])
def test_partition_rejects_bad_shards(zo, fo, m, message):
    with pytest.raises(ValueError, match=message):
        DataPartition(zo_shards=[np.array(s) for s in zo], fo_shards=[np.array(s) for s in fo],
                      n_samples=m)


def test_variance_profile_constant_for_additive_noise():
    # with no Hessian jitter the gradient noise is the same at every point
    q = make_quadratic(d=3, cond=4.0, seed=32, n_samples=20, grad_noise=0.7,
                       hessian_jitter=0.0)
    part = partition_data(q.n_samples, 0, 4, seed=33)
    a = np.sqrt([q.gradient_variance(q.x_star, shard) for shard in part.fo_shards])
    b = np.sqrt([q.gradient_variance(q.x_star + 5.0, shard) for shard in part.fo_shards])
    assert np.allclose(a, b, atol=1e-10)


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("header", [False, True])
def test_csv_non_finite_value_names_first_row(tmp_path, value, header):
    path = tmp_path / "data.csv"
    rows = ["1.0,2.0,1", f"1.0,{value},-1", f"{value},2.0,1"]
    path.write_text("\n".join(["x0,x1,label"] * header + rows) + "\n")
    with pytest.raises(DatasetFormatError, match=f"row {2 + header}: non-finite value"):
        load_csv_dataset(path, has_header=header)


@pytest.mark.parametrize("value, message", [("abc", "could not convert"), ("nan", "non-finite")])
@pytest.mark.parametrize("header", [False, True])
def test_csv_errors_name_the_file_line_past_blank_lines(tmp_path, value, message, header):
    path = tmp_path / "blank.csv"
    lines = ["x0,x1,label", ""] * header + ["1.0,2.0,1", "", "", f"1.0,{value},1"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=f"row {len(lines)}: {message}"):
        load_csv_dataset(path, has_header=header)


def test_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0,1\n1.0,2.0\n")
    with pytest.raises(DatasetFormatError, match="row 2"):
        load_csv_dataset(path)
