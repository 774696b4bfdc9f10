import copy
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdopt.estimators import (FIRST_ORDER, ZO_CENTRAL, ZO_FORWARD, ZO_ONE_SIDED,
                              EstimatorConfig)
from hdopt.metrics import (
    CSV_COLUMNS,
    MetricsRecord,
    aggregate_seeds,
    gamma_of,
    sample_estimates,
    snapshot,
    validation_set,
    window_weights,
    write_aggregate_csv,
    write_metrics_csv,
)
from hdopt.objectives import (
    Dataset,
    make_blobs_dataset,
    make_logistic,
    make_nonconvex,
    make_quadratic,
    partition_data,
)
from hdopt.protocol import (
    Population,
    PopulationConfig,
    Schedule,
    init_population,
    step_window,
)

from conftest import read_metrics_csv, scalar_mc_stats, stack_models
from oracles import snapshot_reference, weighted_average_reference


def make_population(models, objective=None, estimator=None, shards=None):
    objective = objective or make_quadratic(d=len(models[0]), cond=2.0, seed=0)
    estimator = estimator or EstimatorConfig(kind=FIRST_ORDER, batch_size=1)
    n = len(models)
    shards = [np.arange(objective.n_samples)] * n if shards is None else shards
    cfg = PopulationConfig(n0=0, n1=n, schedule=Schedule(eta_max=0.1), c=1.0, fo=estimator)
    return Population([(cfg, 0)], objective, np.array(models, dtype=float), shards)


# ---------------------------------------------------------------------------
# mu and gamma


def test_mu_of_identical_models():
    pop = make_population([[1.0, 2.0]] * 3)
    assert np.array_equal(pop.flat.mean(axis=0), [1.0, 2.0])


def test_mu_hand_value_and_permutation_invariance():
    pop = make_population([[2.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(pop.flat.mean(axis=0), [1.0, 0.0])
    models = np.random.default_rng(1).standard_normal((5, 3))
    a = make_population(models).flat.mean(axis=0)
    b = make_population(models[::-1]).flat.mean(axis=0)
    assert np.allclose(a, b, atol=1e-15)


def test_gamma_examples():
    assert gamma_of(make_population([[1.0, 1.0]] * 4).flat) == 0.0
    assert gamma_of(make_population([[0.0, 0.0], [2.0, 0.0]]).flat) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_gamma_translation_invariant(seed):
    rng = np.random.default_rng(seed)
    models = rng.standard_normal((4, 3))
    shift = rng.standard_normal(3)
    g0 = gamma_of(make_population(models).flat)
    g1 = gamma_of(make_population(models + shift).flat)
    assert g0 == pytest.approx(g1, abs=1e-10)


def test_gamma_and_mu_are_pure():
    pop = make_population(np.random.default_rng(2).standard_normal((4, 3)))
    assert gamma_of(pop.flat) == gamma_of(pop.flat)
    assert np.array_equal(pop.flat.mean(axis=0), pop.flat.mean(axis=0))


# ---------------------------------------------------------------------------
# M_t^G


def mt_g(pop, rng):
    """The one seed's mt_g at eta = 0.1, as a record samples it from ``rng``."""
    return snapshot(pop, 0, 0.1, mtg_rngs=[rng])[0].mt_g


def test_mtg_zero_at_noiseless_optimum():
    q = make_quadratic(d=3, cond=2.0, seed=3, grad_noise=0.0, hessian_jitter=0.0)
    est = EstimatorConfig(kind=FIRST_ORDER, batch_size=q.n_samples)
    pop = make_population([q.x_star] * 4, objective=q, estimator=est)
    assert mt_g(pop, np.random.default_rng(0)) == pytest.approx(0.0, abs=1e-20)


def test_mtg_single_agent_full_batch():
    # two identical agents: M^G, a mean over agents, is the one agent's ||g||^2
    q = make_quadratic(d=3, cond=2.0, seed=4)
    est = EstimatorConfig(kind=FIRST_ORDER, batch_size=q.n_samples)
    x = q.x_star + np.array([1.0, -1.0, 0.5])
    pop = make_population([x, x], objective=q, estimator=est)
    g = q.grad(x)
    assert mt_g(pop, np.random.default_rng(0)) == pytest.approx(float(g @ g), abs=1e-12)


def test_mtg_mc_average_matches_closed_form():
    # frozen all-FO population, batch size 1: E[M^G] is exactly the mean of
    # per-sample squared gradient norms over each agent's shard
    q = make_quadratic(d=4, cond=5.0, seed=5, n_samples=16, grad_noise=1.0)
    part = partition_data(q.n_samples, 0, 3, seed=6)
    rng = np.random.default_rng(7)
    models = [q.x_star + rng.standard_normal(4) for _ in range(3)]
    est = EstimatorConfig(kind=FIRST_ORDER, batch_size=1)
    pop = make_population(models, objective=q, estimator=est, shards=part.fo_shards)
    exact = np.mean([
        np.mean(np.sum(q.grad_rows(np.broadcast_to(x, (shard.shape[0], q.d)), shard[:, None]) ** 2,
                       axis=1))
        for x, shard in zip(pop.flat, pop.shards)])
    mrng = np.random.default_rng(8)
    vals = np.array([mt_g(pop, mrng) for _ in range(10**4)])
    mean, se = scalar_mc_stats(vals)
    assert abs(mean - exact) <= 3 * se


def zo_population(kind):
    """A stack of 2 seeds of 2 zeroth-order agents of ``kind`` and 1 first-order one."""
    q = make_quadratic(d=3, cond=2.0, seed=4, n_samples=12)
    cfg = PopulationConfig(n0=2, n1=1, schedule=Schedule(eta_max=0.1), c=1.0,
                           zo=EstimatorConfig(kind=kind, batch_size=2, rv=3),
                           fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=2))
    part = partition_data(q.n_samples, 2, 1, seed=1)
    X0 = np.random.default_rng(2).standard_normal((2, q.d))
    return init_population(cfg, q, [part] * 2, X0, [0, 1])


@pytest.mark.parametrize("kind", [ZO_ONE_SIDED, ZO_CENTRAL])
def test_biased_population_samples_nothing_at_zero_eta(kind):
    # nu = eta / c has no value at eta = 0: no estimate, and no stream draws
    pop = zo_population(kind)
    rngs = [np.random.default_rng(s) for s in (3, 4)]
    untouched = copy.deepcopy(rngs)
    assert sample_estimates(pop, rngs, 2, 0.0) is None
    assert [r.random() for r in rngs] == [r.random() for r in untouched]
    assert [rec.mt_g for rec in snapshot(pop, 0, 0.0, mtg_rngs=rngs)] == [None, None]
    assert sample_estimates(pop, rngs, 2, 0.1).shape == (2, 6, 3)


@pytest.mark.parametrize("kind", [ZO_FORWARD, "fo_only"])
def test_forward_and_first_order_populations_sample_at_zero_eta(kind):
    pop = (make_population(np.random.default_rng(5).standard_normal((3, 3)))
           if kind == "fo_only" else zo_population(kind))
    S, n, d = stack_models(pop).shape
    rngs = [np.random.default_rng(s) for s in range(S)]
    untouched = copy.deepcopy(rngs)
    G = sample_estimates(pop, rngs, 2, 0.0)
    assert G.shape == (2, S * n, d) and np.isfinite(G).all()
    assert [r.random() for r in rngs] != [r.random() for r in untouched]


# ---------------------------------------------------------------------------
# weighted average


def fold(mus, etas, ell, n):
    """The weighted average as run folds it, one step per window: the
    ratio-form state (q, avg) of window_weights, from q = 0."""
    q, avg = 0.0, np.zeros(np.shape(mus[0]))
    for mu, eta in zip(mus, etas):
        prod, weight, _ = window_weights([eta], ell, n)
        q = q * prod + weight
        avg += (weight * mu - weight * avg) / q
    return avg


def test_weighted_average_first_step_is_mu0():
    mu0 = np.array([3.0, -1.0])
    assert np.array_equal(fold([mu0], [0.1], ell=1.0, n=4), [3.0, -1.0])
    assert np.array_equal(weighted_average_reference([mu0], [0.1], ell=1.0, n=4), [3.0, -1.0])


def test_weighted_average_zero_eta_is_running_mean():
    mus = [np.array([float(k)]) for k in range(6)]
    running = np.mean([m[0] for m in mus])
    assert fold(mus, [0.0] * 6, ell=1.0, n=2)[0] == pytest.approx(running, abs=1e-12)
    assert weighted_average_reference(mus, [0.0] * 6, ell=1.0, n=2)[0] == pytest.approx(
        running, abs=1e-12)
    # a window of k steps at rate 0 folds its k means at weight 1 each, no drift
    prod, weight, w = window_weights(np.zeros(6), ell=1.0, n=2)
    assert (prod, weight) == (1.0, 6.0) and not w.any()


def test_weighted_average_two_step_hand_value():
    # eta ell / 2n = 0.5 gives weights (2, 4): y = (2 mu0 + 4 mu1) / 6
    mus, hand = [np.array([1.0]), np.array([4.0])], (2 * 1.0 + 4 * 4.0) / 6.0
    assert fold(mus, [1.0, 1.0], ell=1.0, n=1)[0] == pytest.approx(hand, abs=1e-12)
    assert weighted_average_reference(mus, [1.0, 1.0], ell=1.0, n=1)[0] == pytest.approx(
        hand, abs=1e-12)


def test_weighted_average_matches_direct_weights():
    rng = np.random.default_rng(9)
    mus = rng.standard_normal((40, 3))
    eta, ell, n = 0.3, 2.0, 8
    T = len(mus)
    w = (1.0 - eta * ell / (2 * n)) ** (-np.arange(1, T + 1, dtype=float))
    assert w[0] >= 1.0 and np.all(np.diff(w) > 0)
    direct = (w[:, None] * mus).sum(axis=0) / w.sum()
    assert np.allclose(fold(mus, [eta] * T, ell, n), direct, atol=1e-12)
    assert np.allclose(weighted_average_reference(mus, [eta] * T, ell, n), direct, atol=1e-12)
    assert (w / w.sum()).sum() == pytest.approx(1.0, abs=1e-12)


def test_weighted_average_rejects_nonconvex_use():
    # ell > 0 only, and each rate's shrink 1 - eta ell / 2n in (0, 1]
    for etas, ell in [([0.1], 0.0), ([0.1, 4.0], 1.0), ([-0.1], 1.0)]:
        with pytest.raises(ValueError):
            window_weights(etas, ell, n=2)


# ---------------------------------------------------------------------------
# validation metrics


def logistic_fixture():
    feats = np.array([[2.0, 0.0], [-2.0, 0.0], [3.0, 1.0], [-3.0, -1.0]])
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    ds = Dataset(features=feats, labels=labels)
    return make_logistic(ds, lam=0.1), ds


def test_validation_identical_agents_equal_single():
    lg, ds = logistic_fixture()
    x = np.array([1.0, 0.0])
    pop = make_population([x] * 3, objective=lg)
    loss, acc = lg.validate(pop.flat, *validation_set(lg, ds.features, ds.labels))
    single_loss, single_acc = lg.validate(x[None], *validation_set(lg, ds.features, ds.labels))
    assert loss == pytest.approx(single_loss)
    assert acc == pytest.approx(single_acc)


def test_validation_perfect_classifier_accuracy_one():
    lg, ds = logistic_fixture()
    _, acc = lg.validate(np.array([[5.0, 0.0]]), *validation_set(lg, ds.features, ds.labels))
    assert acc == 1.0


def test_validation_regression_reports_nan_accuracy():
    q = make_quadratic(d=2, cond=2.0, seed=10)
    loss, acc = q.validate(np.zeros((1, 2)), *validation_set(q, np.zeros((3, 2)), np.zeros(3)))
    assert np.isnan(acc)
    assert loss == pytest.approx(q.loss(np.zeros(2)))


def test_validation_empty_set_rejected():
    lg, _ = logistic_fixture()
    with pytest.raises(ValueError):
        lg.validate(np.array([[1.0, 0.0]]), *validation_set(lg, np.zeros((0, 2)), np.zeros(0)))


def test_validation_invariant_under_relabeling():
    lg, ds = logistic_fixture()
    models = np.random.default_rng(11).standard_normal((4, 2))
    val = validation_set(lg, ds.features, ds.labels)
    a = lg.validate(make_population(models, objective=lg).flat, *val)
    b = lg.validate(make_population(models[::-1], objective=lg).flat, *val)
    assert a == pytest.approx(b)


@pytest.mark.parametrize("labels, positive", [([0.0, 1.0, 0.0, 1.0], 0.0),
                                             ([3.0, 7.0, 3.0, 7.0], 3.0)])
def test_validation_maps_labels_with_positive_class(labels, positive):
    # the positive class sits on the +x side, so x = (1, 0) classifies every
    # point correctly under the training rule
    feats = np.array([[2.0, 0.0], [-2.0, 0.0], [3.0, 1.0], [-3.0, -1.0]])
    lg = make_logistic(Dataset(features=feats, labels=np.array(labels)), lam=0.1,
                       positive_class=positive)
    signed, ds = logistic_fixture()
    pop = make_population([[1.0, 0.0]] * 2, objective=lg)
    loss, acc = lg.validate(pop.flat, *validation_set(lg, feats, np.array(labels)))
    assert acc == 1.0
    want = signed.validate(make_population([[1.0, 0.0]] * 2, objective=signed).flat,
                           *validation_set(signed, ds.features, ds.labels))
    assert (loss, acc) == pytest.approx(want)
    assert lg.validate(np.array([[1.0, 0.0]]), *validation_set(lg, feats, np.array(labels))) \
        == pytest.approx(want)


# ---------------------------------------------------------------------------
# aggregation and CSV


def rec(step, gamma, pt=0.0):
    return MetricsRecord(step=step, parallel_time=pt, eta=0.1, gamma=gamma,
                         mu_loss_gap=None, grad_norm_sq_mu=0.5, mean_val_loss=None,
                         mean_val_acc=None, mt_g=None, function_evals_total=7)


def test_aggregate_single_series_zero_stderr():
    steps, mean, stderr = aggregate_seeds([[rec(0, 1.0), rec(10, 2.0)]])
    assert np.array_equal(steps, [0, 10])
    assert np.all(stderr == 0.0)


def test_aggregate_two_series_hand_values():
    a = [rec(0, 1.0)]
    b = [rec(0, 3.0)]
    steps, mean, stderr = aggregate_seeds([a, b])
    gamma_col = CSV_COLUMNS.index("gamma") - 1
    assert mean[0, gamma_col] == pytest.approx(2.0)
    assert stderr[0, gamma_col] == pytest.approx(1.0)


def test_aggregate_permutation_invariant():
    rng = np.random.default_rng(12)
    series = [[rec(0, float(rng.standard_normal())), rec(5, float(rng.standard_normal()))]
              for _ in range(4)]
    s1 = aggregate_seeds(series)
    s2 = aggregate_seeds(series[::-1])
    assert np.allclose(s1[1], s2[1], equal_nan=True)
    assert np.allclose(s1[2], s2[2], equal_nan=True)


def test_aggregate_of_an_inf_column_warns_nothing():
    # inf - inf inside the standard error is NaN, written as an empty field,
    # with no RuntimeWarning
    a = [rec(0, 1.0)]
    b = [rec(0, float("inf"))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, mean, stderr = aggregate_seeds([a, b])
    gamma_col = CSV_COLUMNS.index("gamma") - 1
    assert mean[0, gamma_col] == np.inf and np.isnan(stderr[0, gamma_col])


def test_aggregate_misaligned_steps_rejected():
    with pytest.raises(ValueError):
        aggregate_seeds([[rec(0, 1.0)], [rec(5, 1.0)]])


def test_metrics_csv_round_trip(tmp_path):
    records = [rec(0, 1.25), rec(10, 0.5, pt=2.5)]
    path = tmp_path / "m.csv"
    write_metrics_csv(path, records)
    header, mat = read_metrics_csv(path)
    assert header == list(CSV_COLUMNS)
    assert open(path).readline().strip() == ",".join(CSV_COLUMNS)
    assert mat.shape == (2, len(CSV_COLUMNS))
    assert mat[0, CSV_COLUMNS.index("gamma")] == 1.25
    assert np.isnan(mat[0, CSV_COLUMNS.index("mu_loss_gap")])  # empty field
    assert mat[1, CSV_COLUMNS.index("function_evals_total")] == 7


def test_aggregate_csv_schema(tmp_path):
    steps, mean, stderr = aggregate_seeds([[rec(0, 1.0)], [rec(0, 3.0)]])
    path = tmp_path / "agg.csv"
    write_aggregate_csv(path, steps, mean, stderr)
    header = open(path).readline().strip().split(",")
    assert header[0] == "step"
    assert "gamma_mean" in header and "gamma_stderr" in header
    assert len(header) == 1 + 2 * (len(CSV_COLUMNS) - 1)


def test_snapshot_fields():
    q = make_quadratic(d=3, cond=2.0, seed=13)
    pop = make_population([q.x_star + 1.0, q.x_star - 1.0], objective=q)
    r, = snapshot(pop, step=4, eta=0.2)
    assert r.step == 4 and r.eta == 0.2
    assert r.gamma == pytest.approx(3.0)
    assert r.mu_loss_gap == pytest.approx(q.loss(q.x_star) - q.f_star, abs=1e-12)
    assert r.mean_val_loss is None and r.mt_g is None


@pytest.mark.parametrize("objective", ["quadratic", "logistic", "nonconvex"])
def test_snapshot_of_a_stack_equals_the_one_seed_formulas(objective):
    # three seeds apart in models and evaluation counts, after a window of
    # steps: each seed's record holds, field by field, the bits of the
    # formulas applied to that seed alone
    if objective == "quadratic":
        spec, val = make_quadratic(d=4, cond=5.0, seed=3, n_samples=30), None
    else:
        pool = make_blobs_dataset(80, 4, seed=4, scale=2.0)
        train = Dataset(features=pool.features[:50], labels=pool.labels[:50])
        spec = make_logistic(train, lam=0.05) if objective == "logistic" else make_nonconvex(train)
        val = validation_set(spec, pool.features[50:], pool.labels[50:])
    cfg = PopulationConfig(n0=2, n1=3, schedule=Schedule(eta_max=0.05),
                           zo=EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=2, rv=3),
                           fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=2))
    pop = init_population(cfg, spec, [partition_data(spec.n_samples, 2, 3, seed=s)
                                      for s in range(3)],
                          [np.random.default_rng(s).standard_normal(spec.d) for s in range(3)],
                          [0] * 3, T=7)
    step_window(pop, np.full(7, 0.05))
    records = snapshot(pop, step=7, eta=0.05, val=val)
    assert len(records) == 3
    for s, rec in enumerate(records):
        ref = snapshot_reference(pop, s, step=7, eta=0.05, val=val)
        for name, got, want in zip(CSV_COLUMNS, rec, ref):
            assert got == want, (s, name)


def test_csv_bytes(tmp_path):
    # the exact text of both writers: an int is its digits, a float its
    # repr, None and NaN an empty field; inf and -0.0 are written as such
    nan, inf = float("nan"), float("inf")
    a = [MetricsRecord(0, 0.0, 0.1, 1 / 3, None, inf, nan, -0.0, None, 0),
         MetricsRecord(10, 2.5, 0.05, 0.1 + 0.2, 2.0, 1e-300, 0.75, 1.0, 3.0, 123456789)]
    b = [MetricsRecord(0, 0.0, 0.1, 2 / 3, None, inf, nan, 0.0, None, 0),
         MetricsRecord(10, 2.5, 0.05, 0.5, 4.0, 1e-300, 0.25, 0.0, 5.0, 123456791)]
    write_metrics_csv(tmp_path / "a.csv", a)
    write_aggregate_csv(tmp_path / "agg.csv", *aggregate_seeds([a, b]))
    assert (tmp_path / "a.csv").read_text() == (
        "step,parallel_time,eta,gamma,mu_loss_gap,grad_norm_sq_mu,mean_val_loss,"
        "mean_val_acc,mt_g,function_evals_total\n"
        "0,0.0,0.1,0.3333333333333333,,inf,,-0.0,,0\n"
        "10,2.5,0.05,0.30000000000000004,2.0,1e-300,0.75,1.0,3.0,123456789\n")
    assert (tmp_path / "agg.csv").read_text() == (
        "step,parallel_time_mean,parallel_time_stderr,eta_mean,eta_stderr,gamma_mean,"
        "gamma_stderr,mu_loss_gap_mean,mu_loss_gap_stderr,grad_norm_sq_mu_mean,"
        "grad_norm_sq_mu_stderr,mean_val_loss_mean,mean_val_loss_stderr,mean_val_acc_mean,"
        "mean_val_acc_stderr,mt_g_mean,mt_g_stderr,function_evals_total_mean,"
        "function_evals_total_stderr\n"
        "0,0.0,0.0,0.1,0.0,0.5,0.16666666666666666,,,inf,,,,0.0,0.0,,,0.0,0.0\n"
        "10,2.5,0.0,0.05,0.0,0.4,0.09999999999999998,3.0,1.0,1e-300,0.0,0.5,0.25,0.5,0.5,"
        "4.0,1.0,123456790.0,1.0\n")
