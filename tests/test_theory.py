import json

import numpy as np
import pytest

from hdopt import theory
from hdopt.estimators import FIRST_ORDER, ZO_ONE_SIDED, EstimatorConfig
from hdopt.objectives import (
    LinearObjective,
    make_blobs_dataset,
    make_logistic,
    make_nonconvex,
    make_quadratic,
    partition_data,
)
from hdopt.protocol import PopulationConfig, Schedule, init_population, run
from hdopt.theory import (
    BoundCheckReport,
    check_bias_aggregate,
    check_gamma_recursion,
    check_gradcheck_all,
    check_smoothing_grad_bias,
    check_smoothing_value_gap,
    check_zo_second_moment,
    check_zo_variance_bound,
    format_report_line,
    load_report,
    probe_points,
    write_report,
)


def logistic_instance(d=5, n=60, seed=4):
    return make_logistic(make_blobs_dataset(n, d, seed=seed), lam=0.1)


def hybrid_population(spec, n0=2, n1=2, seed=5, steps=30, eta=0.1):
    part = partition_data(spec.n_samples, n0, n1, seed=seed)
    cfg = PopulationConfig(n0=n0, n1=n1, schedule=Schedule(eta_max=eta), T=steps,
                           scheduler_mode="uniform_pair", seed=seed, metric_cadence=10**9,
                           zo=EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=4, rv=4),
                           fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=4))
    x0 = (spec.x_star if spec.x_star is not None else np.zeros(spec.d)) + np.ones(spec.d)
    pop = init_population(cfg, spec, part, x0)
    run(pop, cfg)
    return pop


# ---------------------------------------------------------------------------
# smoothing checks


def test_value_gap_quadratic_analytic_exact():
    q = make_quadratic(d=10, cond=10.0, seed=1)
    report = check_smoothing_value_gap(q, nu=0.05, probes=probe_points(q, 3, 0))
    assert report.passed and report.stderr == 0.0
    assert report.measured == pytest.approx(0.5 * 0.05**2 * q.lam.sum(), abs=1e-15)
    assert report.measured <= report.bound  # zero-tolerance analytic case


def test_value_gap_vanishes_with_nu():
    q = make_quadratic(d=6, cond=3.0, seed=2)
    small = check_smoothing_value_gap(q, nu=1e-6, probes=probe_points(q, 1, 0))
    assert small.measured < 1e-10


def test_value_gap_logistic_probe_passes():
    lg = logistic_instance()
    report = check_smoothing_value_gap(lg, nu=0.05, probes=probe_points(lg, 2, 3),
                                       samples=200_000, seed=7)
    assert report.passed, report


def test_grad_bias_quadratic_exactly_zero():
    q = make_quadratic(d=8, cond=4.0, seed=3)
    report = check_smoothing_grad_bias(q, nu=0.1, probes=probe_points(q, 2, 0))
    assert report.passed and report.measured == 0.0 and report.stderr == 0.0


def test_grad_bias_bound_scales_with_dimension():
    nu = 0.1
    reports = {}
    for d in (2, 10):
        q = make_quadratic(d=d, cond=5.0, seed=4)
        reports[d] = check_smoothing_grad_bias(q, nu=nu, probes=probe_points(q, 1, 0))
    ratio = reports[10].bound / reports[2].bound
    assert ratio == pytest.approx(((10 + 3) / (2 + 3)) ** 1.5, rel=1e-12)


def test_grad_bias_logistic_probe_passes():
    lg = logistic_instance()
    report = check_smoothing_grad_bias(lg, nu=0.05, probes=probe_points(lg, 2, 5),
                                       samples=200_000, seed=8)
    assert report.passed, report


# ---------------------------------------------------------------------------
# second moment / variance


def test_second_moment_linear_matches_exact_gaussian_moment():
    # noiseless linear: E||(a.u) u||^2 = (d + 2) ||a||^2 exactly
    a = np.array([1.5, -2.0, 0.5, 1.0])
    lin = LinearObjective(a)
    report = check_zo_second_moment(lin, np.array([0]), nu=0.1, x=np.zeros(4),
                                    samples=300_000, seed=9)
    exact = (4 + 2) * float(a @ a)
    assert report.passed
    assert abs(report.measured - exact) <= 3 * report.stderr
    assert report.bound == pytest.approx(2 * (4 + 4) * float(a @ a))


def test_second_moment_bound_tightens_as_nu_vanishes():
    lg = logistic_instance()
    shard = np.arange(30)
    x = np.zeros(5)
    wide = check_zo_second_moment(lg, shard, nu=0.5, x=x, samples=1000, seed=10)
    tight = check_zo_second_moment(lg, shard, nu=1e-4, x=x, samples=1000, seed=10)
    assert tight.bound < wide.bound
    assert tight.bound == pytest.approx(2 * (lg.d + 4) * (float(lg.grad(x, shard) @ lg.grad(x, shard))
                                                          + lg.gradient_variance(x, shard)), rel=1e-4)


def test_second_moment_logistic_passes():
    lg = logistic_instance()
    report = check_zo_second_moment(lg, np.arange(30), nu=0.05,
                                    x=probe_points(lg, 1, 11)[0], samples=100_000, seed=12)
    assert report.passed, report


def test_variance_bound_linear_and_logistic():
    a = np.array([2.0, 1.0, -1.0])
    lin = LinearObjective(a)
    rep = check_zo_variance_bound(lin, np.array([0]), nu=0.1, x=np.ones(3),
                                  samples=200_000, seed=13)
    # exact variance: E||(a.u)u - a||^2 = (d + 1) ||a||^2
    assert abs(rep.measured - (3 + 1) * float(a @ a)) <= 3 * rep.stderr
    assert rep.passed
    lg = logistic_instance()
    rep = check_zo_variance_bound(lg, np.arange(30), nu=0.05,
                                  x=probe_points(lg, 1, 14)[0], samples=100_000, seed=15)
    assert rep.passed, rep


# ---------------------------------------------------------------------------
# aggregate bias


def test_bias_aggregate_zero_without_zo_agents():
    q = make_quadratic(d=4, cond=3.0, seed=16)
    pop = hybrid_population(q, n0=0, n1=4)
    report = check_bias_aggregate(pop, nu=0.05, samples=1000, seed=17)
    assert report.measured == 0.0 and report.passed


def test_bias_aggregate_quadratic_statistically_zero():
    q = make_quadratic(d=4, cond=3.0, seed=18)
    pop = hybrid_population(q, n0=2, n1=2)
    report = check_bias_aggregate(pop, nu=0.05, samples=100_000, seed=19)
    assert report.passed
    assert report.measured <= 3 * report.stderr  # smoothing cannot bias a quadratic


def test_bias_aggregate_logistic_hybrid_passes():
    lg = logistic_instance()
    pop = hybrid_population(lg, n0=2, n1=2)
    report = check_bias_aggregate(pop, nu=0.05, samples=50_000, seed=20)
    assert report.passed, report


# ---------------------------------------------------------------------------
# variance-potential recursion


def test_gamma_recursion_identical_models():
    q = make_quadratic(d=4, cond=3.0, seed=21, grad_noise=0.0, hessian_jitter=0.0)
    part = partition_data(q.n_samples, 0, 4, seed=22)
    cfg = PopulationConfig(n0=0, n1=4, schedule=Schedule(eta_max=0.05), T=1,
                           seed=23, fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=4))
    pop = init_population(cfg, q, part, q.x_star + np.ones(4))
    report = check_gamma_recursion(q, pop, eta=0.05, replicas=400, seed=24)
    assert report.passed
    assert report.detail["gamma_t"] == 0.0


def test_gamma_recursion_pure_averaging_matches_enumeration():
    q = make_quadratic(d=3, cond=2.0, seed=25)
    pop = hybrid_population(q, n0=0, n1=3, steps=20)
    from hdopt.theory import expected_gamma_pure_averaging
    from hdopt.metrics import compute_gamma

    gamma_t = compute_gamma(pop)
    exact = gamma_t * (3 - 2) / (3 - 1)
    assert expected_gamma_pure_averaging(pop.X) == pytest.approx(exact, abs=1e-12)
    report = check_gamma_recursion(q, pop, eta=0.0, replicas=500, seed=26)
    assert report.passed
    assert abs(report.measured - exact) <= 3 * report.stderr


def test_gamma_recursion_hybrid_quadratic_passes():
    q = make_quadratic(d=5, cond=5.0, seed=27)
    pop = hybrid_population(q, n0=2, n1=2, steps=40, eta=0.05)
    report = check_gamma_recursion(q, pop, eta=0.05, replicas=1200, seed=28)
    assert report.passed, report
    assert report.measured <= report.bound + 3 * report.stderr


# ---------------------------------------------------------------------------
# gradient checks and report plumbing


@pytest.mark.parametrize("make", [
    lambda: make_quadratic(d=6, cond=5.0, seed=29),
    lambda: logistic_instance(),
    lambda: make_nonconvex(make_blobs_dataset(40, 4, seed=30)),
])
def test_gradcheck_each_objective(make):
    report = check_gradcheck_all(make(), points=100, seed=31)
    assert report.passed, report


def test_mc_mean_chunked_matvec_sums_match_direct_moments(monkeypatch):
    monkeypatch.setattr(theory, "_CHUNK", 7)
    rng = np.random.default_rng(36)
    C, U = rng.standard_normal(20), rng.standard_normal((20, 3))
    for vector in (True, False):
        served = []

        def draw(size):
            lo = sum(served)
            served.append(size)
            return C[lo:lo + size].copy(), U[lo:lo + size].copy() if vector else None

        mean, se = theory._mc_mean(20, draw)
        assert served == [7, 7, 6]
        V = C[:, None] * U if vector else C
        np.testing.assert_allclose(mean, V.mean(axis=0), rtol=1e-12)
        assert se == pytest.approx(np.sqrt(np.sum(V.var(axis=0)) / 20), rel=1e-12)


def test_zo_sampler_gathers_base_losses_per_draw():
    lg = logistic_instance()
    shard, nu = np.arange(5, 35), 0.05
    x = probe_points(lg, 1, 37)[0]
    coeff, U = theory._zo_sampler(lg, shard, x, nu, np.random.default_rng(38))(1000)
    rng = np.random.default_rng(38)  # replay: batch ids, then directions
    ids = shard[rng.integers(0, shard.shape[0], size=1000)]
    U_ref = rng.standard_normal((1000, lg.d))
    ref = (lg.loss_pairs(x + nu * U_ref, ids)
           - lg.loss_pairs(np.broadcast_to(x, U_ref.shape), ids)) / nu
    assert np.array_equal(U, U_ref)
    np.testing.assert_allclose(coeff, ref, rtol=1e-12, atol=1e-12)


def test_checks_reproducible_bit_exact():
    lg = logistic_instance()
    probes = probe_points(lg, 1, 32)
    a = check_smoothing_value_gap(lg, nu=0.05, probes=probes, samples=20_000, seed=33)
    b = check_smoothing_value_gap(lg, nu=0.05, probes=probes, samples=20_000, seed=33)
    assert a.measured == b.measured and a.stderr == b.stderr


def test_analytic_verdict_independent_of_samples():
    q = make_quadratic(d=4, cond=2.0, seed=34)
    probes = probe_points(q, 2, 35)
    a = check_smoothing_value_gap(q, nu=0.1, probes=probes, samples=10)
    b = check_smoothing_value_gap(q, nu=0.1, probes=probes, samples=10**6)
    assert a.measured == b.measured and a.passed == b.passed


def test_report_round_trip(tmp_path):
    reports = [BoundCheckReport(name="x", measured=1.0, bound=2.0, stderr=0.1,
                                passed=True, samples=10, seed=3, detail={"nu": 0.1})]
    path = tmp_path / "report.json"
    write_report(path, reports)
    back = load_report(path)
    assert back == reports
    raw = json.load(open(path))
    assert raw[0]["pass"] is True
    line = format_report_line(back[0])
    assert line.startswith("[PASS]") and "measured=" in line


def test_report_pass_rule_consistency():
    r = BoundCheckReport(name="r", measured=1.0, bound=0.9, stderr=0.05,
                         passed=1.0 <= 0.9 + 3 * 0.05, samples=5, seed=0)
    assert r.passed == (r.measured <= r.bound + 3 * r.stderr)
