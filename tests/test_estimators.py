import numpy as np
import pytest
from scipy import stats as sps

from hdopt.estimators import (
    FIRST_ORDER,
    ZO_CENTRAL,
    ZO_FORWARD,
    ZO_ONE_SIDED,
    EstimatorConfig,
    estimate_rows,
)
from hdopt.metrics import sample_estimates
from hdopt.objectives import (
    make_blobs_dataset,
    make_logistic,
    make_nonconvex,
    make_quadratic,
)

from hdopt.protocol import Population, PopulationConfig, Schedule

from conftest import scalar_mc_stats, vector_mc_stats
from oracles import LinearObjective, estimate_gradient, forward_literal


def logistic_instance(d=3, n=40, lam=0.1, seed=5):
    return make_logistic(make_blobs_dataset(n, d, seed=seed), lam=lam)


def estimate_first_order(spec, shard, x, batch_size, rng):
    return estimate_gradient(spec, shard, x, EstimatorConfig(FIRST_ORDER, batch_size), rng)


def mc_estimates(fn, calls, seed):
    rng = np.random.default_rng(seed)
    return np.array([fn(rng).vector for _ in range(calls)])


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(kind="newton")
    with pytest.raises(ValueError):
        EstimatorConfig(kind=ZO_CENTRAL, rv=0)


# ---------------------------------------------------------------------------
# first order


def test_first_order_full_shard_is_exact_local_gradient():
    q = make_quadratic(d=4, cond=3.0, seed=1, n_samples=16)
    shard = np.arange(8)
    rng = np.random.default_rng(0)
    x = np.ones(4)
    est = estimate_first_order(q, shard, x, batch_size=8, rng=rng)
    assert np.allclose(est.vector, q.grad(x, shard), atol=1e-12)
    assert est.function_evals == 8


def test_first_order_mc_mean_matches_shard_gradient():
    lg = logistic_instance()
    shard = np.arange(20)
    x = np.array([0.3, -0.2, 0.5])
    draws = mc_estimates(lambda r: estimate_first_order(lg, shard, x, 2, r), 10**5, seed=2)
    mean, se = vector_mc_stats(draws)
    assert np.linalg.norm(mean - lg.grad(x, shard)) <= 3 * se


def test_first_order_deterministic_given_seed():
    lg = logistic_instance()
    shard = np.arange(20)
    x = np.zeros(3)
    a = estimate_first_order(lg, shard, x, 4, np.random.default_rng(7)).vector
    b = estimate_first_order(lg, shard, x, 4, np.random.default_rng(7)).vector
    assert np.array_equal(a, b)


def test_first_order_rejects_empty_shard():
    q = make_quadratic(d=3, cond=2.0, seed=3)
    with pytest.raises(ValueError):
        estimate_first_order(q, np.array([], dtype=int), np.zeros(3), 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# one-sided biased estimator


def test_one_sided_linear_exact_per_draw():
    # for a linear objective each draw equals (a . u) u, independent of nu
    lin = LinearObjective(np.array([1.0, 0.0]))
    cfg = EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=1, rv=3)
    x = np.zeros(2)
    a = estimate_gradient(lin, np.array([0]), x, cfg, np.random.default_rng(11), nu=1e-3)
    b = estimate_gradient(lin, np.array([0]), x, cfg, np.random.default_rng(11), nu=10.0)
    assert np.allclose(a.vector, b.vector, atol=1e-9)
    assert a.function_evals == 1 * (3 + 1)


def test_one_sided_mean_on_quadratic_recovers_gradient():
    # smoothing leaves quadratic gradients unchanged, so the mean is grad f
    q = make_quadratic(d=5, cond=1.0, seed=4, grad_noise=0.0)
    shard = np.arange(q.n_samples)
    x = q.x_star + np.array([1.0, -0.5, 0.2, 0.0, 2.0])
    cfg = EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=q.n_samples, rv=1000)
    draws = mc_estimates(lambda r: estimate_gradient(q, shard, x, cfg, r, nu=0.05), 1000, seed=5)
    mean, se = vector_mc_stats(draws)
    assert np.linalg.norm(mean - q.grad(x)) <= 3 * se


def test_one_sided_mean_matches_independent_smoothed_gradient_oracle():
    lg = logistic_instance(d=3, n=20, lam=0.1, seed=6)
    x = np.array([0.4, -0.3, 0.1])
    nu = 0.5
    # independent oracle: grad f_nu = E[(f(x + nu u) - f(x)) / nu * u], f written out directly
    A, y, lam = lg.A, lg.y, lg.reg

    def full_loss_rows(X):
        Z = -(y[None, :] * (X @ A.T))
        return np.logaddexp(0.0, Z).mean(axis=1) + 0.5 * lam * np.sum(X * X, axis=1)

    f0 = full_loss_rows(x[None, :])[0]
    rng = np.random.default_rng(7)
    total = np.zeros(3)
    total_sq = np.zeros(3)
    n_oracle = 10**7
    chunk = 10**5
    for _ in range(n_oracle // chunk):
        U = rng.standard_normal((chunk, 3))
        contrib = (((full_loss_rows(x[None, :] + nu * U) - f0) / nu))[:, None] * U
        total += contrib.sum(axis=0)
        total_sq += (contrib ** 2).sum(axis=0)
    oracle = total / n_oracle
    oracle_se = np.sqrt(np.maximum(total_sq / n_oracle - oracle**2, 0).sum() / n_oracle)

    shard = np.arange(20)
    cfg = EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=20, rv=100)
    draws = mc_estimates(lambda r: estimate_gradient(lg, shard, x, cfg, r, nu=nu), 2000, seed=8)
    mean, se = vector_mc_stats(draws)
    assert np.linalg.norm(mean - oracle) <= 3 * np.hypot(se, oracle_se)
    # and the smoothed target genuinely differs from the raw gradient here
    assert np.linalg.norm(oracle - lg.grad(x)) > 6 * np.hypot(se, oracle_se)


def test_one_sided_requires_positive_nu():
    q = make_quadratic(d=3, cond=2.0, seed=9)
    cfg = EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=2, rv=1)
    with pytest.raises(ValueError):
        estimate_gradient(q, np.arange(4), np.zeros(3), cfg, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# central biased estimator


def test_central_linear_exact_per_draw():
    lin = LinearObjective(np.array([2.0, -1.0, 0.5]))
    x = np.array([1.0, 1.0, 1.0])
    cfg = EstimatorConfig(kind=ZO_CENTRAL, batch_size=1, rv=4)
    a = estimate_gradient(lin, np.array([0]), x, cfg, np.random.default_rng(13), nu=1e-4)
    b = estimate_gradient(lin, np.array([0]), x, cfg, np.random.default_rng(13), nu=5.0)
    assert np.allclose(a.vector, b.vector, atol=1e-9)
    assert a.function_evals == 1 * 2 * 4


def test_central_one_dim_quadratic_identity():
    # per draw the output is x * u^2 exactly, so it is nu-independent,
    # shares x's sign, and averages to x
    q = make_quadratic(d=1, cond=1.0, seed=14, grad_noise=0.0)
    x = q.x_star + 2.0
    shard = np.arange(q.n_samples)
    outs = []
    for s in range(4000):
        cfg = EstimatorConfig(kind=ZO_CENTRAL, batch_size=q.n_samples, rv=1)
        est = estimate_gradient(q, shard, x, cfg, np.random.default_rng(s), nu=0.7)
        est2 = estimate_gradient(q, shard, x, cfg, np.random.default_rng(s), nu=0.001)
        assert est.vector == pytest.approx(est2.vector, abs=1e-8)
        assert est.vector[0] * 2.0 >= 0.0  # x u^2 shares the sign of (x - x*)
        outs.append(est.vector[0])
    mean, se = scalar_mc_stats(np.array(outs))
    assert abs(mean - 2.0) <= 3 * se


def test_central_variance_decreases_with_rv():
    lg = logistic_instance(d=4, n=30, lam=0.1, seed=15)
    shard = np.arange(30)
    x = np.full(4, 0.25)
    trials = 10**4

    def variance_for(rv, seed):
        cfg = EstimatorConfig(kind=ZO_CENTRAL, batch_size=2, rv=rv)
        draws = mc_estimates(lambda r: estimate_gradient(lg, shard, x, cfg, r, nu=0.05), trials,
                             seed)
        centered = draws - draws.mean(axis=0)
        sq = np.sum(centered * centered, axis=1)
        return scalar_mc_stats(sq)

    v8, se8 = variance_for(8, seed=16)
    v128, se128 = variance_for(128, seed=17)
    assert v128 < v8 - 3 * np.hypot(se8, se128)


# ---------------------------------------------------------------------------
# unbiased forward estimator


def test_forward_zero_gradient_gives_zero_vector():
    q = make_quadratic(d=4, cond=2.0, seed=18, grad_noise=0.0, hessian_jitter=0.0)
    shard = np.arange(q.n_samples)
    cfg = EstimatorConfig(kind=ZO_FORWARD, batch_size=q.n_samples, rv=8)
    est = estimate_gradient(q, shard, q.x_star, cfg, np.random.default_rng(19))
    assert np.allclose(est.vector, 0.0, atol=1e-12)
    assert est.function_evals == q.n_samples * 8


def test_forward_one_dim_mean_recovers_derivative():
    q = make_quadratic(d=1, cond=1.0, seed=20, grad_noise=0.0)
    x = q.x_star + 1.5
    shard = np.arange(q.n_samples)
    cfg = EstimatorConfig(kind=ZO_FORWARD, batch_size=q.n_samples, rv=1)
    draws = mc_estimates(
        lambda r: estimate_gradient(q, shard, x, cfg, r), 20000, seed=21)
    mean, se = vector_mc_stats(draws)
    assert abs(mean[0] - 1.5) <= 3 * se


def test_forward_mc_mean_matches_gradient_logistic_d10():
    lg = logistic_instance(d=10, n=60, lam=0.1, seed=22)
    shard = np.arange(60)
    x = np.random.default_rng(23).standard_normal(10) * 0.5
    cfg = EstimatorConfig(kind=ZO_FORWARD, batch_size=4, rv=100)
    draws = mc_estimates(
        lambda r: estimate_gradient(lg, shard, x, cfg, r), 10**4, seed=24)
    mean, se = vector_mc_stats(draws)
    assert np.linalg.norm(mean - lg.grad(x, shard)) <= 3 * se


def test_forward_agrees_with_first_order_across_objectives():
    ds = make_blobs_dataset(30, 4, seed=25)
    objectives = [
        make_quadratic(d=4, cond=5.0, seed=26, n_samples=30),
        make_logistic(ds, lam=0.2),
        make_nonconvex(ds),
    ]
    rng = np.random.default_rng(27)
    for pair in range(20):
        spec = objectives[pair % 3]
        x = rng.standard_normal(spec.d)
        shard = np.arange(spec.n_samples)
        cfg = EstimatorConfig(kind=ZO_FORWARD, batch_size=4, rv=50)
        fwd = mc_estimates(
            lambda r: estimate_gradient(spec, shard, x, cfg, r), 400, seed=100 + pair)
        fo = mc_estimates(
            lambda r: estimate_first_order(spec, shard, x, 4, r), 4000, seed=200 + pair)
        mean_f, se_f = vector_mc_stats(fwd)
        mean_g, se_g = vector_mc_stats(fo)
        assert np.linalg.norm(mean_f - mean_g) <= 3 * np.hypot(se_f, se_g)


# ---------------------------------------------------------------------------
# the forward estimator's exact law


def forward_law_holds(G, g, rv):
    """Whether the estimates G (N, d) of the gradient g pass each moment of
    the forward law under the 3-stderr rule: (E G = g,
    E |G|^2 = (rv + d + 1) / rv |g|^2)."""
    mean, se = vector_mc_stats(G)
    m2, se2 = scalar_mc_stats((G * G).sum(axis=1))
    return (bool(np.linalg.norm(mean - g) <= 3 * se),
            bool(abs(m2 - (rv + g.shape[0] + 1) / rv * (g @ g)) <= 3 * se2))


def assert_projections_match(G, literal, g, rng):
    """Two-sample KS tests of G against the literal estimates along g and two
    random unit directions."""
    for w in (g, rng.standard_normal(g.shape[0]), rng.standard_normal(g.shape[0])):
        w = w / np.linalg.norm(w)
        assert sps.ks_2samp(G @ w, literal @ w).pvalue > 1e-3


@pytest.mark.parametrize("rv, d", [(1, 1), (1, 5), (4, 1), (4, 5)])
def test_forward_estimates_follow_the_literal_law(rv, d):
    # the kernel's estimates from (v, z) inputs against the literal mean of rv
    # directional derivatives; the negative control, the law without its
    # orthogonal projection, c g + sqrt(c) |g| z, has the right mean but the
    # second moment (rv + d + 2) / rv |g|^2, and must fail
    rng = np.random.default_rng(40 + 10 * rv + d)
    g, N = rng.standard_normal(d), 200_000
    U = rng.standard_normal((N, rv + d))
    cfg = EstimatorConfig(kind=ZO_FORWARD, batch_size=1, rv=rv)
    G = estimate_rows(LinearObjective(g), cfg, np.zeros((N, d)), np.zeros((N, 1), dtype=np.intp), U)
    literal = forward_literal(np.broadcast_to(g, (N, d)), rng.standard_normal((N, rv, d)))
    assert forward_law_holds(literal, g, rv) == (True, True)
    assert forward_law_holds(G, g, rv) == (True, True)
    assert_projections_match(G, literal, g, rng)
    c = (U[:, :rv] ** 2).sum(axis=1)[:, None]
    control = (c * g + np.sqrt(c) * np.linalg.norm(g) * U[:, rv:]) / rv
    assert forward_law_holds(control, g, rv) == (True, False)


def test_sampled_forward_estimates_follow_the_literal_law():
    # through the population's draw layout: full-batch agents fix each agent's
    # g, and sample_estimates lays out every row's (v, z)
    q = make_quadratic(d=5, cond=3.0, seed=42, n_samples=12)
    rv, N = 4, 100_000
    cfg = PopulationConfig(n0=2, n1=0, schedule=Schedule(eta_max=0.1),
                           zo=EstimatorConfig(kind=ZO_FORWARD, batch_size=6, rv=rv))
    rng = np.random.default_rng(43)
    shards = [np.arange(6), np.arange(6, 12)]
    pop = Population([(cfg, 0)], q, rng.standard_normal((2, q.d)), shards)
    G = sample_estimates(pop, [np.random.default_rng(44)], N, 0.1)
    for a, shard in enumerate(shards):
        g = q.grad(pop.flat[a], shard)
        literal = forward_literal(np.broadcast_to(g, (N, q.d)), rng.standard_normal((N, rv, q.d)))
        assert forward_law_holds(G[:, a], g, rv) == (True, True)
        assert_projections_match(G[:, a], literal, g, rng)


def test_forward_rows_with_a_zero_gradient_give_exact_zeros():
    # |g| = 0 divides by 1, not 0: exact zeros, and no floating-point warning
    cfg = EstimatorConfig(kind=ZO_FORWARD, batch_size=1, rv=3)
    U = np.random.default_rng(45).standard_normal((6, 3 + 4))
    with np.errstate(all="raise"):
        G = estimate_rows(LinearObjective(np.zeros(4)), cfg, np.zeros((6, 4)),
                          np.zeros((6, 1), dtype=np.intp), U)
    assert np.array_equal(G, np.zeros((6, 4)))


def test_forward_rows_whose_squared_gradient_norm_underflows_stay_finite():
    # components near 1e-170 square to 0: |g| reads 0 where g is not
    cfg = EstimatorConfig(kind=ZO_FORWARD, batch_size=1, rv=3)
    U = np.random.default_rng(46).standard_normal((6, 3 + 4))
    G = estimate_rows(LinearObjective(np.array([1e-170, -2e-170, 3e-170, 0.0])), cfg,
                      np.zeros((6, 4)), np.zeros((6, 1), dtype=np.intp), U)
    assert np.isfinite(G).all()


class _GradientIsTheModel:
    """Objective stub whose batch gradient at a model is the model itself."""

    def grad_rows(self, X, B):
        return X.copy()


@pytest.mark.parametrize("scale", [2.0**500, 2.0**520, 2.0**1000])
def test_forward_rows_whose_squared_gradient_norm_overflows_scale_exactly(scale):
    # g . g overflows past about 1e154 (2^512); the estimate is linear in g,
    # and scaling by a power of two is exact, so it must scale bit for bit,
    # also beside rows of g = a in the same call, which keep their bits
    cfg = EstimatorConfig(kind=ZO_FORWARD, batch_size=1, rv=3)
    rng = np.random.default_rng(47)
    a, U = rng.standard_normal(4), rng.standard_normal((6, 3 + 4))
    X, B = np.zeros((6, 4)), np.zeros((6, 1), dtype=np.intp)
    G = estimate_rows(LinearObjective(a), cfg, X, B, U)
    scaled = estimate_rows(LinearObjective(a * scale), cfg, X, B, U)
    assert np.isfinite(scaled).all() and np.array_equal(scaled, scale * G)
    scales = np.array([1.0, scale] * 3)[:, None]
    assert np.array_equal(estimate_rows(_GradientIsTheModel(), cfg, scales * a, B, U), scales * G)


# ---------------------------------------------------------------------------
# shared properties


def test_estimator_dispatch_and_determinism():
    lg = logistic_instance()
    shard = np.arange(20)
    x = np.array([0.1, 0.2, -0.3])
    for kind in (FIRST_ORDER, ZO_ONE_SIDED, ZO_CENTRAL, ZO_FORWARD):
        cfg = EstimatorConfig(kind=kind, batch_size=2, rv=4)
        a = estimate_gradient(lg, shard, x, cfg, np.random.default_rng(31), nu=0.05)
        b = estimate_gradient(lg, shard, x, cfg, np.random.default_rng(31), nu=0.05)
        assert np.array_equal(a.vector, b.vector)
        assert a.kind == kind


def test_nu_override_takes_effect():
    # a (k, 1) column of radii, one per row, acts as the scalar radius would
    lg = logistic_instance()
    x = np.zeros((2, 3))
    cfg = EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=2, rv=4)
    rng = np.random.default_rng(33)
    B, U = rng.integers(0, 20, (2, 2)), rng.standard_normal((2, 4, 3))
    a = estimate_rows(lg, cfg, x, B, U, 0.5)
    b = estimate_rows(lg, cfg, x, B, U, np.full((2, 1), 0.5))
    assert np.array_equal(a, b)


def test_gaussian_norm_moment_bounds():
    rng = np.random.default_rng(35)
    for d in (1, 10, 100):
        U = rng.standard_normal((200000, d))
        sq = np.sum(U * U, axis=1)
        m2, se2 = scalar_mc_stats(sq)
        m4, se4 = scalar_mc_stats(sq * sq)
        assert m2 <= (d + 2) + 3 * se2
        assert m4 <= (d + 4) ** 2 + 3 * se4


def test_smoothing_bias_bound_on_probes():
    lg = logistic_instance(d=3, n=20, lam=0.1, seed=36)
    shard = np.arange(20)
    nu = 0.1
    bound = 0.5 * nu * lg.L * (lg.d + 3) ** 1.5
    rng = np.random.default_rng(37)
    for _ in range(3):
        x = rng.standard_normal(3)
        cfg = EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=20, rv=50)
        draws = mc_estimates(lambda r: estimate_gradient(lg, shard, x, cfg, r, nu=nu), 2000,
                             seed=int(rng.integers(2**31)))
        mean, se = vector_mc_stats(draws)
        assert np.linalg.norm(mean - lg.grad(x)) <= bound + 3 * se


def test_single_draw_second_moment_bound():
    lg = logistic_instance(d=4, n=30, lam=0.1, seed=38)
    shard = np.arange(15)
    x = np.full(4, 0.3)
    nu = 0.05
    grad_i = lg.grad(x, shard)
    s_sq = lg.gradient_variance(x, shard)
    bound = 0.5 * nu**2 * lg.L**2 * (lg.d + 6) ** 3 \
        + 2 * (lg.d + 4) * (float(grad_i @ grad_i) + s_sq)
    cfg = EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=1, rv=1)
    draws = mc_estimates(lambda r: estimate_gradient(lg, shard, x, cfg, r, nu=nu), 30000,
                         seed=39)
    vals = np.sum(draws * draws, axis=1)
    mean, se = scalar_mc_stats(vals)
    assert mean <= bound + 3 * se
