import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from hdopt.estimators import (
    FIRST_ORDER,
    ZO_CENTRAL,
    ZO_FORWARD,
    ZO_ONE_SIDED,
    EstimatorConfig,
    estimate_rows,
)
from hdopt.metrics import gamma_of
from hdopt.objectives import make_quadratic, partition_data
from hdopt.protocol import (
    Population,
    PopulationConfig,
    Schedule,
    draw_matching,
    draw_pairs,
    draw_row_inputs,
    eta_at,
    init_population,
    interact,
    plan_layers,
    run,
    step_window,
)
from hdopt.theory import expected_gamma_pure_averaging

from conftest import stack_models
from oracles import gaussian_shape


def quadratic_pop(n0, n1, seed=0, eta=0.05, T=100, mode="uniform_pair", momentum=0.0,
                  batch=4, rv=4, cadence=10, grad_noise=1.0, d=6, S=1):
    """A stack of the S seeds seed, seed + 1, ..."""
    q = make_quadratic(d=d, cond=5.0, seed=3, n_samples=32, grad_noise=grad_noise)
    seeds = range(seed, seed + S)
    parts = [partition_data(q.n_samples, n0, n1, seed=s + 1) for s in seeds]
    cfg = PopulationConfig(
        n0=n0, n1=n1, schedule=Schedule(eta_max=eta), momentum=momentum,
        zo=EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=batch, rv=rv) if n0 else None,
        fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=batch) if n1 else None)
    x0 = q.x_star + np.ones(d)
    return q, cfg, init_population(cfg, q, parts, [x0] * S, seeds, T=T, scheduler_mode=mode,
                                   metric_cadence=cadence)


def two_agents(spec, models, est):
    """A first-order pair over the full data."""
    shard = np.arange(spec.n_samples)
    cfg = PopulationConfig(n0=0, n1=2, schedule=Schedule(eta_max=0.1), c=1.0, fo=est)
    return Population([(cfg, 0)], spec, np.array(models, dtype=float), [shard, shard])


PAIR = (np.array([0]), np.array([1]))  # the pair (0, 1)


def interact_layer(pop, I, J, eta):
    """One interact call on the pairs (I[p], J[p]) as one layer, planned as
    step_window plans a layer; ``eta`` is one rate or one per pair, and the
    inputs are drawn from the agents' streams."""
    rows, A, partner, (slices,), at = plan_layers(pop, I, J, np.array([I.shape[0]]))
    if type(eta) is np.ndarray:  # per row, its pair's rate
        R = np.empty((rows.shape[0], 1))
        R[at, 0] = eta
        eta = R
    if type(eta) is not np.ndarray and eta == 0.0:
        return interact(pop, rows, partner, eta)
    return interact(pop, rows, partner, eta, slices,
                    *draw_row_inputs(pop, A, (pop.rngs, pop.dir_rngs)),
                    np.empty((rows.shape[0], pop.flat.shape[1])))


# ---------------------------------------------------------------------------
# init


def test_init_population_gamma_zero():
    _, _, pop = quadratic_pop(2, 2)
    assert gamma_of(stack_models(pop)) == 0.0
    (unit,) = pop.units
    assert unit.n == 4 and unit.cfg.n0 == 2 and unit.n - unit.cfg.n0 == 2


def test_init_boundary_populations_accepted():
    _, _, pure_fo = quadratic_pop(0, 8)
    _, _, pure_zo = quadratic_pop(8, 0)
    assert pure_fo.units[0].n == 8 and pure_zo.units[0].n == 8


@pytest.mark.parametrize("n0, n1", [(0, 3), (3, 0), (2, 3)])
def test_estimator_table_gives_every_row_of_a_stack_its_agents_config(n0, n1):
    # in every seed of a stack, agent i uses zo when i < n0 and fo otherwise,
    # at b (rv + 1) = 20 evaluations an estimate (one-sided) or b = 4
    pop, n = quadratic_pop(n0, n1, batch=4, rv=4, S=3)[2], n0 + n1
    zo, fo = pop.units[0].cfg.zo, pop.units[0].cfg.fo
    assert pop.groups == [cfg for cfg in (zo, fo) if cfg is not None]
    assert [pop.groups[g] for g in pop.group.tolist()] == [
        zo if g % n < n0 else fo for g in range(3 * n)]
    assert pop.cost.tolist() == [20 if g % n < n0 else 4 for g in range(3 * n)]


@pytest.mark.parametrize("n0, n, seeds", [(3, 4, [0]), (2, 5, [0]), (2, 4, [0, 1])],
                         ids=["partition", "agents", "seeds"])
def test_init_rejects_mismatched_partition(n0, n, seeds):
    # a partition of 2 + 2 shards for a config of n0 + n1 = 4 agents; X of
    # one seed of n agents; a seed value per seed of X
    q = make_quadratic(d=3, cond=2.0, seed=1)
    part = partition_data(q.n_samples, 2, 2, seed=0)
    cfg = PopulationConfig(n0=n0, n1=4 - n0, schedule=Schedule(eta_max=0.1),
                           zo=EstimatorConfig(kind=ZO_ONE_SIDED),
                           fo=EstimatorConfig(kind=FIRST_ORDER))
    with pytest.raises(ValueError):
        if n == 4:
            init_population(cfg, q, [part], [np.zeros(3)], seeds)
        else:
            Population([(cfg, s) for s in seeds], q, np.zeros((n, 3)),
                       [*part.zo_shards, *part.fo_shards])


def test_population_rejects_an_estimator_kind_on_the_wrong_side():
    # only agents 0..n0-1 own a direction stream, so fo must be first-order
    for zo, fo in ((FIRST_ORDER, FIRST_ORDER), (ZO_ONE_SIDED, ZO_ONE_SIDED)):
        with pytest.raises(ValueError, match="zo needs a zeroth-order kind"):
            PopulationConfig(n0=2, n1=2, schedule=Schedule(eta_max=0.1),
                             zo=EstimatorConfig(kind=zo), fo=EstimatorConfig(kind=fo))


def test_population_config_validation():
    with pytest.raises(ValueError):
        PopulationConfig(n0=0, n1=1, schedule=Schedule(eta_max=0.1))
    with pytest.raises(ValueError):
        PopulationConfig(n0=2, n1=2, schedule=Schedule(eta_max=0.1), momentum=1.0,
                         zo=EstimatorConfig(kind=ZO_ONE_SIDED),
                         fo=EstimatorConfig(kind=FIRST_ORDER))
    for c in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="c must be"):
            PopulationConfig(n0=0, n1=2, schedule=Schedule(eta_max=0.1), c=c,
                             fo=EstimatorConfig(kind=FIRST_ORDER))
    with pytest.raises(ValueError, match="zo needs a zeroth-order kind"):
        PopulationConfig(n0=2, n1=0, schedule=Schedule(eta_max=0.1),
                         zo=EstimatorConfig(kind=FIRST_ORDER))


@pytest.mark.parametrize("setting, message", [
    ({"T": -1}, "T must be >= 0"), ({"metric_cadence": 0}, "metric_cadence must be >= 1"),
    ({"scheduler_mode": "uniform"}, "unknown scheduler mode")], ids=["T", "cadence", "mode"])
def test_a_stack_rejects_bad_settings(setting, message):
    # T, the scheduler mode and the cadence are the stack's, checked where it is built
    q = make_quadratic(d=3, cond=2.0, seed=1)
    cfg = PopulationConfig(n0=0, n1=2, schedule=Schedule(eta_max=0.1),
                           fo=EstimatorConfig(kind=FIRST_ORDER))
    with pytest.raises(ValueError, match=message):
        init_population(cfg, q, [partition_data(q.n_samples, 0, 2, seed=0)], [np.zeros(3)], [0],
                        **setting)


# ---------------------------------------------------------------------------
# single interaction


def test_interact_noiseless_optimum_is_fixed_point():
    q = make_quadratic(d=3, cond=2.0, seed=5, grad_noise=0.0, hessian_jitter=0.0)
    est = EstimatorConfig(kind=FIRST_ORDER, batch_size=q.n_samples)
    pop = two_agents(q, [q.x_star, q.x_star], est)
    interact_layer(pop, *PAIR, 0.1)
    assert np.allclose(pop.flat[0], q.x_star, atol=1e-12)
    assert np.allclose(pop.flat[1], q.x_star, atol=1e-12)
    assert pop.interactions == 1


def test_interact_zero_eta_is_pure_averaging():
    q = make_quadratic(d=2, cond=2.0, seed=6)
    est = EstimatorConfig(kind=FIRST_ORDER, batch_size=1)
    pop = two_agents(q, [[2.0, 0.0], [0.0, 0.0]], est)
    interact_layer(pop, *PAIR, 0.0)
    assert np.array_equal(pop.flat[0], [1.0, 0.0])
    assert np.array_equal(pop.flat[1], [1.0, 0.0])
    assert not pop.evals.any()
    pop.flat[0, 0] = 5.0  # the two models do not share storage
    assert pop.flat[1, 0] == 1.0


def test_interact_hand_arithmetic_one_dim():
    # f(x) = x^2 / 2 around 0: both agents at 2.0 step to 1.8, average 1.8
    q = make_quadratic(d=1, cond=1.0, seed=7, grad_noise=0.0)
    est = EstimatorConfig(kind=FIRST_ORDER, batch_size=q.n_samples)
    x0 = q.x_star + 2.0
    pop = two_agents(q, [x0, x0], est)
    interact_layer(pop, *PAIR, 0.1)
    assert pop.flat[0, 0] == pytest.approx(q.x_star[0] + 1.8, abs=1e-12)
    assert pop.flat[1, 0] == pytest.approx(q.x_star[0] + 1.8, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -0.05])
def test_interact_rejects_a_per_pair_rate_that_is_not_positive(bad):
    # a biased zeroth-order kind needs nu = eta / c > 0, per pair as for one rate
    _, _, pop = quadratic_pop(4, 0)
    with pytest.raises(ValueError, match="nu > 0"):
        # the pairs (0, 2) and (1, 3)
        interact_layer(pop, np.array([0, 1]), np.array([2, 3]), np.array([0.05, bad]))


def test_interact_dimension_mismatch():
    q = make_quadratic(d=2, cond=2.0, seed=8)
    est = EstimatorConfig(kind=FIRST_ORDER, batch_size=1)
    with pytest.raises(ValueError):
        two_agents(q, [np.zeros(3), np.zeros(3)], est)


def replayed_estimate(pop, a, nu):
    """Agent a's next estimate, from copies of its streams: minibatch ids
    from rngs[a], then for a zeroth-order agent Gaussians from dir_rngs[a]."""
    unit = pop.units[0].cfg
    cfg = unit.zo if a < unit.n0 else unit.fo
    shard = pop.shards[a]
    m, b = shard.shape[0], cfg.batch_size
    ids = shard if m == b else shard[copy.deepcopy(pop.rngs[a]).integers(0, m, size=b)]
    U = None if a >= unit.n0 else copy.deepcopy(pop.dir_rngs[a]).standard_normal(
        (1, *gaussian_shape(cfg, pop.flat.shape[1])))
    return estimate_rows(pop.objective, cfg, pop.flat[a:a + 1], ids[None], U, nu)[0]


def test_mean_update_identity():
    _, cfg, pop = quadratic_pop(2, 2, seed=9, T=0)
    n = pop.units[0].n
    for t in range(200):
        mu_before = pop.flat.mean(axis=0)
        # the pair and both estimates, replayed from copies of the streams
        (i,), (j,) = draw_pairs(copy.deepcopy(pop.scheduler_rngs[0]), n, 1)
        nu = 0.05 / pop.c
        g = [replayed_estimate(pop, a, nu) for a in (i, j)]
        step_window(pop, [0.05])
        mu_after = pop.flat.mean(axis=0)
        expected = mu_before - (0.05 / n) * (g[0] + g[1])
        assert np.allclose(mu_after, expected, atol=1e-12)


def test_averaging_substep_never_increases_gamma():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 6))
        stepped = rng.standard_normal((n, d))  # models after the local steps
        (i,), (j,) = draw_pairs(rng, n, 1)
        averaged = stepped.copy()
        avg = 0.5 * (stepped[i] + stepped[j])
        averaged[i] = avg
        averaged[j] = avg
        assert gamma_of(averaged) <= gamma_of(stepped) + 1e-14


def test_momentum_zero_matches_raw_updates():
    # filtering with m = 0 is exactly the raw estimate, bit for bit
    rng = np.random.default_rng(11)
    for _ in range(100):
        buf = rng.standard_normal(5)
        g = rng.standard_normal(5)
        assert np.array_equal(0.0 * buf + (1.0 - 0.0) * g, g)
    _, _, pop_a = quadratic_pop(2, 2, seed=12, momentum=0.0, T=0)
    _, _, pop_b = quadratic_pop(2, 2, seed=12, momentum=0.0, T=0)
    for _ in range(50):
        step_window(pop_a, [0.05])
        step_window(pop_b, [0.05])
    assert np.array_equal(stack_models(pop_a), stack_models(pop_b))


def test_momentum_buffers_persist_and_are_not_averaged():
    _, _, pop = quadratic_pop(0, 4, seed=13, momentum=0.5, T=0)
    for _ in range(30):
        step_window(pop, [0.05])
    bufs = pop.M
    assert not np.allclose(bufs, bufs[0])  # buffers stay agent-local


# ---------------------------------------------------------------------------
# schedulers


def test_pair_n2_always_single_pair():
    rng = np.random.default_rng(14)
    I, J = draw_pairs(rng, 2, 100)
    assert np.array_equal(np.minimum(I, J), np.zeros(100))
    assert np.array_equal(np.maximum(I, J), np.ones(100))


def test_pair_frequencies_uniform_chi_square():
    rng = np.random.default_rng(150)
    n = 4
    I, J = draw_pairs(rng, n, 10**6)
    assert np.all(I != J)
    _, counts = np.unique(np.minimum(I, J) * n + np.maximum(I, J), return_counts=True)
    assert len(counts) == n * (n - 1) // 2
    _, p = sps.chisquare(counts)
    assert p > 0.01


def test_matching_n4_uniform_over_three_matchings():
    rng = np.random.default_rng(16)
    counts = {frozenset([(0, 1), (2, 3)]): 0,
              frozenset([(0, 2), (1, 3)]): 0,
              frozenset([(0, 3), (1, 2)]): 0}
    for _ in range(10**5):
        (I,), (J,) = draw_matching(rng, 4, 1)
        pairs = frozenset(tuple(sorted(p)) for p in zip(I, J))
        counts[pairs] += 1
    _, p = sps.chisquare(list(counts.values()))
    assert p > 0.01


def test_matching_odd_n_idles_one_uniform_agent():
    rng = np.random.default_rng(17)
    idle_counts = np.zeros(5, dtype=int)
    for _ in range(10**5):
        (I,), (J,) = draw_matching(rng, 5, 1)
        pairs = list(zip(I, J))
        used = {int(a) for p in pairs for a in p}
        assert len(pairs) == 2 and len(used) == 4
        idle = (set(range(5)) - used).pop()
        idle_counts[idle] += 1
    _, p = sps.chisquare(idle_counts)
    assert p > 0.01


def test_matching_step_leaves_idle_agent_unchanged():
    _, cfg, pop = quadratic_pop(0, 5, seed=18, mode="random_matching", T=0)
    before = pop.flat.copy()
    (I,), (J,) = draw_matching(copy.deepcopy(pop.scheduler_rngs[0]), 5, 1)
    idle = (set(range(5)) - set(I.tolist()) - set(J.tolist())).pop()
    idle_rng = copy.deepcopy(pop.rngs[idle].bit_generator.state)
    step_window(pop, [0.05])
    assert np.array_equal(pop.flat[idle], before[idle])
    assert pop.rngs[idle].bit_generator.state == idle_rng  # made no estimate
    assert pop.interactions == 2


def test_matching_n2_equals_uniform_pair():
    _, _, pop_m = quadratic_pop(0, 2, seed=19, mode="random_matching", T=0)
    _, _, pop_u = quadratic_pop(0, 2, seed=19, T=0)
    step_window(pop_m, [0.05])
    step_window(pop_u, [0.05])
    # same agent rng streams, same single pair: identical models
    assert np.array_equal(stack_models(pop_m), stack_models(pop_u))


# ---------------------------------------------------------------------------
# schedules


def test_eta_constant_mode():
    s = Schedule(eta_max=0.3)
    assert eta_at(s, 0) == 0.3
    assert eta_at(s, 10**6) == 0.3


def test_eta_warmup_midpoint_and_cosine_endpoint():
    s = Schedule(eta_max=0.2, mode="warmup_cosine", eta_min=0.01,
                 warmup_steps=100, total_steps=400)
    assert eta_at(s, 50) == pytest.approx(0.1)
    assert eta_at(s, 0) == 0.0
    assert eta_at(s, 100) == pytest.approx(0.2)
    assert eta_at(s, 400) == pytest.approx(0.01)
    assert eta_at(s, 10**6) == pytest.approx(0.01)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(eta_max=-0.1)
    with pytest.raises(ValueError):
        Schedule(eta_max=0.1, eta_min=0.2)
    with pytest.raises(ValueError):
        Schedule(eta_max=0.1, mode="warmup_cosine", warmup_steps=10, total_steps=10)
    with pytest.raises(ValueError):
        eta_at(Schedule(eta_max=0.1), -1)


@settings(max_examples=60, deadline=None)
@given(step=st.integers(0, 10**6), warmup=st.integers(1, 500),
       total=st.integers(501, 2000), eta_max=st.floats(1e-6, 1.0),
       eta_min_frac=st.floats(0.0, 1.0))
def test_eta_bounded_property(step, warmup, total, eta_max, eta_min_frac):
    s = Schedule(eta_max=eta_max, mode="warmup_cosine", eta_min=eta_min_frac * eta_max,
                 warmup_steps=warmup, total_steps=total)
    eta = eta_at(s, step)
    assert 0.0 <= eta <= eta_max + 1e-15


# ---------------------------------------------------------------------------
# run loop


def test_run_zero_steps_yields_initial_metrics_only():
    _, cfg, pop = quadratic_pop(2, 2, seed=20, T=0)
    result = run(pop)
    assert len(result.records[0]) == 1
    assert result.records[0][0].step == 0
    assert result.records[0][0].gamma == 0.0


def test_run_zero_eta_pure_gossip_contracts_gamma():
    _, cfg, pop = quadratic_pop(0, 4, seed=21, eta=0.0, T=200, mode="random_matching",
                                cadence=1)
    # start from distinct models
    rng = np.random.default_rng(22)
    pop.flat[:] = rng.standard_normal(stack_models(pop).shape)
    mu0 = pop.flat.mean(axis=0)
    result = run(pop)
    gammas = [r.gamma for r in result.records[0]]
    assert all(g2 <= g1 + 1e-15 for g1, g2 in zip(gammas, gammas[1:]))
    assert gammas[-1] <= 1e-12 * gammas[0]
    assert np.allclose(pop.flat.mean(axis=0), mu0, atol=1e-12)


def test_run_deterministic_given_seed():
    _, cfg_a, pop_a = quadratic_pop(2, 2, seed=23, T=120)
    _, cfg_b, pop_b = quadratic_pop(2, 2, seed=23, T=120)
    res_a = run(pop_a)
    res_b = run(pop_b)
    assert res_a.records == res_b.records


@pytest.mark.parametrize("kind", [ZO_ONE_SIDED, ZO_CENTRAL, ZO_FORWARD])
def test_run_samples_mtg_from_a_warmup_at_eta_zero(kind):
    # a warmup starts at eta = 0, where the biased kinds have no smoothing
    # radius: their mt_g is recorded empty there, and the run goes on
    q = make_quadratic(d=6, cond=5.0, seed=3, n_samples=32)
    schedule = Schedule(eta_max=0.05, mode="warmup_cosine", warmup_steps=5, total_steps=20)
    cfg = PopulationConfig(n0=2, n1=2, schedule=schedule,
                           zo=EstimatorConfig(kind=kind, batch_size=4, rv=4),
                           fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=4))
    pop = init_population(cfg, q, [partition_data(q.n_samples, 2, 2, seed=29)], [q.x_star + 1.0],
                          [28], T=20, metric_cadence=5)
    (records,) = run(pop, sample_mtg=True).records
    assert records[0].eta == 0.0 and all(r.eta > 0 for r in records[1:])
    assert [r.mt_g is not None for r in records] == [
        r.eta > 0 or kind == ZO_FORWARD for r in records]


def test_run_matching_clock_accounting():
    _, cfg, pop = quadratic_pop(0, 6, seed=24, T=10, mode="random_matching", cadence=5)
    result = run(pop)
    assert pop.interactions == 10 * 3
    assert result.records[0][-1].parallel_time == pytest.approx(30 / 6)


def test_gamma_recursion_over_replicas():
    # variance-potential step bound at a de-synchronized state, >= 1000 replicas
    q, cfg, pop = quadratic_pop(2, 2, seed=25, T=40)
    run(pop)
    from hdopt.theory import check_gamma_recursion

    report = check_gamma_recursion(pop, eta=0.05, replicas=1000, seed=26)
    assert report.passed, report


def test_pure_averaging_gamma_enumeration_matches_formula():
    rng = np.random.default_rng(27)
    for n in (3, 4, 5):
        models = rng.standard_normal((n, 3))
        gamma_t = gamma_of(models)
        expected = gamma_t * (n - 2) / (n - 1)
        assert expected_gamma_pure_averaging(models) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(start=st.integers(0, 3000), count=st.integers(1, 600), warmup=st.integers(0, 500),
       span=st.integers(1, 2000), eta_max=st.floats(0.0, 1.0),
       eta_min_frac=st.floats(0.0, 1.0), cosine=st.booleans())
def test_eta_array_form_equals_scalar_form(start, count, warmup, span, eta_max,
                                           eta_min_frac, cosine):
    s = Schedule(eta_max=eta_max, mode="warmup_cosine" if cosine else "constant",
                 eta_min=eta_min_frac * eta_max, warmup_steps=warmup,
                 total_steps=warmup + span)
    steps = np.arange(start, start + count)
    etas = eta_at(s, steps)
    scalar = np.array([eta_at(s, int(t)) for t in steps])
    assert etas.shape == (count,) and etas.dtype == np.float64
    if cosine:  # within one unit in the last place
        assert np.all(np.abs(etas - scalar) <= np.spacing(np.maximum(etas, scalar)))
    else:
        assert np.array_equal(etas, scalar)
