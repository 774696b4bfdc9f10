import json
import sys
import tracemalloc

import numpy as np
import pytest

from hdopt import theory
from hdopt.estimators import FIRST_ORDER, ZO_CENTRAL, ZO_FORWARD, ZO_ONE_SIDED, EstimatorConfig
from hdopt.objectives import (
    LogisticObjective,
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
    probe_points,
    write_report,
)

from conftest import stack_models
from oracles import LinearObjective, gamma_recursion_reference


def logistic_instance(d=5, n=60, seed=4):
    return make_logistic(make_blobs_dataset(n, d, seed=seed), lam=0.1)


def hybrid_population(spec, n0=2, n1=2, seed=5, steps=30, eta=0.1, zo_kind=ZO_ONE_SIDED,
                      momentum=0.0, batch=4, rv=4):
    part = partition_data(spec.n_samples, n0, n1, seed=seed)
    cfg = PopulationConfig(n0=n0, n1=n1, schedule=Schedule(eta_max=eta), momentum=momentum,
                           zo=EstimatorConfig(kind=zo_kind, batch_size=batch, rv=rv),
                           fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=batch))
    x0 = (spec.x_star if spec.x_star is not None else np.zeros(spec.d)) + np.ones(spec.d)
    pop = init_population(cfg, spec, [part], [x0], [seed], T=steps,
                          scheduler_mode="uniform_pair", metric_cadence=10**9)
    run(pop)
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
    cfg = PopulationConfig(n0=0, n1=4, schedule=Schedule(eta_max=0.05),
                           fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=4))
    pop = init_population(cfg, q, [part], [q.x_star + np.ones(4)], [23], T=1)
    report = check_gamma_recursion(pop, eta=0.05, replicas=400, seed=24)
    assert report.passed
    assert report.detail["gamma_t"] == 0.0


def test_gamma_recursion_pure_averaging_matches_enumeration():
    q = make_quadratic(d=3, cond=2.0, seed=25)
    pop = hybrid_population(q, n0=0, n1=3, steps=20)
    from hdopt.theory import expected_gamma_pure_averaging
    from hdopt.metrics import gamma_of

    gamma_t = gamma_of(pop.flat)
    exact = gamma_t * (3 - 2) / (3 - 1)
    assert expected_gamma_pure_averaging(pop.flat) == pytest.approx(exact, abs=1e-12)
    report = check_gamma_recursion(pop, eta=0.0, replicas=500, seed=26)
    assert report.passed
    assert abs(report.measured - exact) <= 3 * report.stderr


def test_gamma_recursion_hybrid_quadratic_passes():
    q = make_quadratic(d=5, cond=5.0, seed=27)
    pop = hybrid_population(q, n0=2, n1=2, steps=40, eta=0.05)
    report = check_gamma_recursion(pop, eta=0.05, replicas=1200, seed=28)
    assert report.passed, report
    assert report.measured <= report.bound + 3 * report.stderr


def test_gamma_recursion_at_eta_zero_samples_no_mtg_on_a_biased_population():
    # a one-sided agent has no smoothing radius at eta = 0; the M^G term's
    # coefficient is 0 there, so no M^G is sampled, as in run()
    q = make_quadratic(d=5, cond=5.0, seed=27)
    pop = hybrid_population(q, n0=2, n1=2, steps=40, eta=0.05)
    report = check_gamma_recursion(pop, eta=0.0, replicas=600, seed=29)
    gamma_t, n = report.detail["gamma_t"], pop.units[0].n
    assert report.detail["mean_mtg"] is None
    assert report.bound == (1.0 - 1.0 / (2.0 * n)) * gamma_t
    assert report.passed, report
    assert abs(report.measured - gamma_t * (n - 2) / (n - 1)) <= 3 * report.stderr


@pytest.mark.parametrize("n0, n1, eta", [(0, 4, 0.05), (3, 0, 0.0)],
                         ids=["first_order", "one_sided_at_eta_zero"])
def test_gamma_recursion_rejects_a_multi_seed_stack(n0, n1, eta):
    # the check treats the population as one: a stack of two seeds must be
    # refused, not mixed into one population of 2 n agents
    q = make_quadratic(d=4, cond=3.0, seed=21)
    cfg = PopulationConfig(n0=n0, n1=n1, schedule=Schedule(eta_max=0.05),
                           zo=EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=2) if n0 else None,
                           fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=2) if n1 else None)
    parts = [partition_data(q.n_samples, n0, n1, seed=s) for s in (1, 2)]
    X0 = np.random.default_rng(3).standard_normal((2, q.d))
    pop = init_population(cfg, q, parts, X0, [4, 5], T=1)
    with pytest.raises(ValueError, match="S = 2"):
        check_gamma_recursion(pop, eta=eta, replicas=50, seed=6)


def _recursion_case(spec, n0, n1, zo_kind=ZO_ONE_SIDED, momentum=0.0, batch=4):
    return lambda: hybrid_population(spec(), n0, n1, steps=25, eta=0.05, zo_kind=zo_kind,
                                     momentum=momentum, batch=batch, rv=3)


def _quad(n_samples=64):
    return lambda: make_quadratic(d=5, cond=5.0, seed=27, n_samples=n_samples)


RECURSION_CASES = {  # (population, eta)
    "first_order-n2": (_recursion_case(_quad(), 0, 2), 0.05),
    "first_order-n5-momentum-eta0": (_recursion_case(_quad(), 0, 5, momentum=0.9), 0.0),
    "one_sided-n5-momentum": (_recursion_case(_quad(), 5, 0, momentum=0.9), 0.05),
    "central-n8": (_recursion_case(_quad(), 8, 0, ZO_CENTRAL), 0.05),
    "forward-hybrid-n8": (_recursion_case(_quad(), 4, 4, ZO_FORWARD), 0.05),
    "central-hybrid-n5-momentum": (_recursion_case(_quad(), 2, 3, ZO_CENTRAL, 0.9), 0.05),
    "one_sided-hybrid-n2-eta0": (_recursion_case(_quad(), 1, 1), 0.0),
    "forward-hybrid-n8-momentum-eta0": (_recursion_case(_quad(), 3, 5, ZO_FORWARD, 0.9), 0.0),
    "one_sided-hybrid-n5-logistic": (_recursion_case(logistic_instance, 3, 2, momentum=0.9,
                                                     batch=1), 0.05),
    # every shard drawn whole: no agent draws minibatch ids
    "one_sided-hybrid-n4-whole-shards": (_recursion_case(_quad(8), 2, 2), 0.05),
    # zeroth-order shards of 3, 3 and 2 ids
    "forward-hybrid-n5-uneven-shards": (_recursion_case(_quad(8), 3, 2, ZO_FORWARD, batch=2),
                                        0.05),
}


@pytest.mark.parametrize("case", RECURSION_CASES)
@pytest.mark.parametrize("block", [None, 1000], ids=["default-blocks", "small-blocks"])
def test_gamma_recursion_matches_the_one_replica_at_a_time_reference(case, block, monkeypatch):
    make, eta = RECURSION_CASES[case]
    pop = make()
    if block is not None:  # several replica blocks, the last one partial
        monkeypatch.setattr(theory, "_REPLICA_BLOCK", block)
    got = check_gamma_recursion(pop, eta, replicas=300, seed=11)
    want = gamma_recursion_reference(pop, eta, replicas=300, seed=11)

    def fields(report):
        out = report.to_dict()
        out.update(out.pop("detail"))
        return out

    # floats to 1e-12 relative, for one named rounding: the reference makes
    # each estimate alone, a (1, d) product that BLAS runs as a gemv, where
    # the batched pass runs it as a row of a gemm, and the two can differ in
    # the last bits
    assert fields(got) == pytest.approx(fields(want), rel=1e-12, abs=0.0)


def test_gamma_recursion_python_calls_per_replica():
    # the suite's population: the draws and the arithmetic are made per block
    # of replicas, so the calls a replica adds are a fraction of one
    pop = theory._suite_population(theory._suite_quadratic(7), 7, 0.1)
    count = [0]

    def hook(frame, event, arg):
        if event == "call" or event == "c_call":
            count[0] += 1

    def calls(replicas):
        count[0] = 0
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            check_gamma_recursion(pop, 0.1, replicas, seed=7)
        finally:
            sys.setprofile(previous)
        return count[0]

    per_replica = (calls(400) - calls(200)) / 200
    assert per_replica < 2, per_replica


def test_gamma_recursion_memory_is_bounded_per_replica_block():
    # C4's population: forward agents with rv = 16 directions, batches of 8.
    # One pass over all 20,000 replicas would hold 150 MB of directions alone.
    q = make_quadratic(d=10, cond=10.0, seed=1, n_samples=64, grad_noise=0.15,
                       hessian_jitter=0.5)
    pop = hybrid_population(q, n0=4, n1=4, steps=100, eta=0.05, zo_kind=ZO_FORWARD, batch=8,
                            rv=16)
    tracemalloc.start()
    try:
        check_gamma_recursion(pop, 0.05, replicas=20_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


# ---------------------------------------------------------------------------
# negative controls


class ZeroGradientLogistic(LogisticObjective):
    """The logistic objective reporting zero gradients and L = ell = 1e-6:
    a wrong gradient and wrong constants, which every check must catch."""

    def __init__(self, dataset, lam):
        super().__init__(dataset, lam)
        self.L = self.ell = 1e-6

    def grad_rows(self, X, B=None):
        return np.zeros(X.shape)


@pytest.mark.parametrize("honest", [True, False], ids=["honest", "zero_gradient"])
def test_checks_fail_on_a_wrong_gradient_and_pass_on_the_right_one(honest):
    # the same six calls, on real data: each check can fail, and does only
    # when the objective lies
    data = make_blobs_dataset(60, 5, seed=4)
    spec = make_logistic(data, lam=0.1) if honest else ZeroGradientLogistic(data, lam=0.1)
    probes = probe_points(spec, 2, 40)
    far = probes + 2.0  # where the gradient is far from zero
    pop = hybrid_population(spec, steps=0)
    stack_models(pop)[:] = probe_points(spec, pop.units[0].n, 43) + 2.0
    nu, shard, samples = 1e-3, np.arange(30), 20_000
    reports = [check_gradcheck_all(spec, seed=44),
               check_smoothing_value_gap(spec, 0.05, probes, samples, seed=45),
               check_smoothing_grad_bias(spec, nu, far, samples, seed=46),
               check_zo_second_moment(spec, shard, nu, far[0], samples, seed=47),
               check_zo_variance_bound(spec, shard, nu, far[0], samples, seed=48),
               check_bias_aggregate(pop, nu, samples, seed=49)]
    assert [r.passed for r in reports] == [honest] * 6, reports


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
    ref = (lg.loss_rows((x + nu * U_ref)[:, None], ids[:, None])[:, 0]
           - lg.loss_rows(np.broadcast_to(x, (1000, 1, lg.d)), ids[:, None])[:, 0]) / nu
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
    back = [BoundCheckReport(**{"passed" if k == "pass" else k: v for k, v in r.items()})
            for r in json.load(open(path))]
    assert back == reports
    raw = json.load(open(path))
    assert raw[0]["pass"] is True
    line = format_report_line(back[0])
    assert line.startswith("[PASS]") and "measured=" in line


def test_report_pass_rule_consistency():
    r = BoundCheckReport(name="r", measured=1.0, bound=0.9, stderr=0.05,
                         passed=1.0 <= 0.9 + 3 * 0.05, samples=5, seed=0)
    assert r.passed == (r.measured <= r.bound + 3 * r.stderr)
