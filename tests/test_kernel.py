"""The batched interaction kernel against the per-pair reference, and its
algebraic properties."""

import copy
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdopt import estimators, protocol
from hdopt.estimators import FIRST_ORDER, ZO_CENTRAL, ZO_FORWARD, ZO_ONE_SIDED, EstimatorConfig
from hdopt.metrics import gamma_of
from hdopt.objectives import (
    Dataset,
    make_blobs_dataset,
    make_logistic,
    make_nonconvex,
    make_quadratic,
    partition_data,
)
from hdopt.protocol import (
    DivergedError,
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

from conftest import stack_models
from oracles import weighted_average_reference
from pairwise_reference import reference_run

RTOL = 1e-12


def _objective(name):
    if name == "quadratic":
        return make_quadratic(d=6, cond=5.0, seed=3, n_samples=40), None
    pool = make_blobs_dataset(100, 5, seed=4, scale=2.0)
    train = Dataset(features=pool.features[:60], labels=pool.labels[:60])
    val = (pool.features[60:], pool.labels[60:])
    if name == "logistic":
        return make_logistic(train, lam=0.05), val
    return make_nonconvex(train), val


# (n0, n1, zeroth-order kind); n = 5 leaves one agent idle per matching
POPULATIONS = {
    "fo": (0, 4, ZO_ONE_SIDED),
    "one_sided": (4, 0, ZO_ONE_SIDED),
    "central": (4, 0, ZO_CENTRAL),
    "forward": (4, 0, ZO_FORWARD),
    "hybrid_one_sided": (3, 2, ZO_ONE_SIDED),
    "hybrid_forward": (2, 4, ZO_FORWARD),
}


def _config(n0, n1, kind, mode, eta, momentum, T=40):
    """(config, stack settings); ``eta`` is a constant rate or a Schedule."""
    schedule = eta if isinstance(eta, Schedule) else Schedule(eta_max=eta)
    return PopulationConfig(
        n0=n0, n1=n1, schedule=schedule, momentum=momentum,
        zo=EstimatorConfig(kind=kind, batch_size=3, rv=5) if n0 else None,
        fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=3) if n1 else None), dict(
            T=T, scheduler_mode=mode, metric_cadence=10)


def _assert_records_match(records, expected):
    assert len(records) == len(expected)
    for rec, ref in zip(records, expected):
        for got, want in zip(rec, ref):
            if want is None:
                assert got is None
            else:
                assert abs(got - want) <= RTOL * max(abs(got), abs(want)), (rec, ref)


def _compare(objective, population, mode, eta, momentum):
    spec, val = _objective(objective)
    n0, n1, kind = POPULATIONS[population]
    cfg, stack = _config(n0, n1, kind, mode, eta, momentum)
    part = partition_data(spec.n_samples, n0, n1, seed=11)
    x0 = np.random.default_rng(12).standard_normal(spec.d)
    pop = init_population(cfg, spec, [part], [x0], [7], **stack)
    result = run(pop, val_features=None if val is None else val[0],
                 val_labels=None if val is None else val[1], sample_mtg=True)
    expected, ref = reference_run(cfg, spec, part, x0, 7, val=val, **stack)
    _assert_records_match(result.records[0], expected)
    models = ref.models()
    assert np.allclose(stack_models(pop), models, rtol=RTOL, atol=RTOL * np.abs(models).max())
    if momentum:
        buffers = np.array([a.momentum_buffer for a in ref.agents])
        assert np.allclose(pop.M, buffers, rtol=RTOL, atol=RTOL * np.abs(buffers).max())


@pytest.mark.parametrize("mode", ["uniform_pair", "random_matching"])
@pytest.mark.parametrize("population", sorted(POPULATIONS))
@pytest.mark.parametrize("objective", ["quadratic", "logistic", "sigmoid_sq"])
def test_run_matches_per_pair_reference(objective, population, mode):
    for momentum in (0.0, 0.9):
        _compare(objective, population, mode, eta=0.05, momentum=momentum)


@pytest.mark.parametrize("mode", ["uniform_pair", "random_matching"])
def test_run_zero_eta_matches_per_pair_reference(mode):
    for objective in ("quadratic", "logistic"):
        _compare(objective, "hybrid_one_sided", mode, eta=0.0, momentum=0.9)


@pytest.mark.parametrize("mode", ["uniform_pair", "random_matching"])
@pytest.mark.parametrize("population", ["hybrid_forward", "hybrid_one_sided"])
@pytest.mark.parametrize("objective", ["quadratic", "logistic"])
def test_run_cosine_matches_per_pair_reference(objective, population, mode):
    # step 0 (warmup) and the steps from total_steps on run at eta = 0, so the
    # first and last windows mix zero and nonzero rates
    schedule = Schedule(eta_max=0.05, mode="warmup_cosine", warmup_steps=5, total_steps=35)
    _compare(objective, population, mode, schedule, momentum=0.9)


def _population(n0, n1, kind, momentum, seed, spec=None):
    spec = spec or make_quadratic(d=4, cond=3.0, seed=2, n_samples=24)
    cfg, stack = _config(n0, n1, kind, "random_matching", 0.05, momentum, T=5)
    part = partition_data(spec.n_samples, n0, n1, seed=seed)
    x0 = np.random.default_rng(seed).standard_normal(spec.d)
    pop = init_population(cfg, spec, [part], [x0], [seed], **stack)
    run(pop)
    return pop


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 9), d=st.integers(1, 5), steps=st.integers(1, 12),
       matching=st.booleans(), seed=st.integers(0, 2**31 - 1))
def test_zero_eta_keeps_mean_exactly_and_never_raises_gamma(n, d, steps, matching, seed):
    # integer-valued models keep every average and sum exact in binary
    # floating point, so the mean is preserved bit for bit
    spec = make_quadratic(d=d, cond=2.0, seed=1, n_samples=64)
    n0 = n // 2
    cfg, stack = _config(n0, n - n0, ZO_ONE_SIDED, "random_matching", 0.0, 0.0)
    pop = init_population(cfg, spec, [partition_data(spec.n_samples, n0, n - n0, seed=seed)],
                          [np.zeros(d)], [seed], **stack)
    rng = np.random.default_rng(seed)
    stack_models(pop)[:] = rng.integers(-8, 9, size=(n, d))
    states = [copy.deepcopy(r.bit_generator.state) for r in [*pop.rngs, *pop.dir_rngs]]
    mu0 = pop.flat.mean(axis=0)
    for _ in range(steps):
        gamma = gamma_of(pop.flat)
        if matching:
            (I,), (J,) = draw_matching(rng, n, 1)
        else:
            I, J = np.split(rng.choice(n, size=2, replace=False), 2)
        rows, _, partner, _, _ = plan_layers(pop, I, J, np.array([I.shape[0]]))
        interact(pop, rows, partner, 0.0)
        assert np.array_equal(pop.flat.mean(axis=0), mu0)
        assert gamma_of(pop.flat) <= gamma + 1e-12 * (1.0 + gamma)
    assert not pop.evals.any()
    # eta = 0 draws nothing, neither minibatch ids nor directions
    assert [r.bit_generator.state for r in [*pop.rngs, *pop.dir_rngs]] == states


@settings(max_examples=40, deadline=None)
@given(n0=st.integers(0, 5), n1=st.integers(0, 5),
       kind=st.sampled_from([ZO_ONE_SIDED, ZO_CENTRAL, ZO_FORWARD]),
       momentum=st.sampled_from([0.0, 0.9]), logistic=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
def test_batched_matching_equals_sequential_pairs(n0, n1, kind, momentum, logistic, seed):
    if n0 + n1 < 2:
        return
    spec = make_logistic(make_blobs_dataset(40, 4, seed=3), lam=0.1) if logistic else None
    batched = _population(n0, n1, kind, momentum, seed, spec)
    sequential = copy.deepcopy(batched)
    (I,), (J,) = draw_matching(np.random.default_rng(seed), batched.units[0].n, 1)
    evals = batched.evals.copy()  # the counts of the run that made the population
    # both runs take the same inputs: pair p's rows are at[:, p] of the batch
    k = I.shape[0]
    rows, A, partner, (slices,), at = plan_layers(batched, I, J, np.array([k]))
    B, U = draw_row_inputs(batched, A)
    interact(batched, rows, partner, 0.05, slices, B, U, np.empty((2 * k, batched.flat.shape[1])))
    zrow = batched.zo[rows].cumsum() - 1  # per zeroth-order row, its row of U
    for p in range(k):
        one, _, pair, (one_slices,), one_at = plan_layers(sequential, I[p:p + 1], J[p:p + 1],
                                                          np.array([1]))
        r = np.empty(2, dtype=np.intp)
        r[one_at[:, 0]] = at[:, p]  # the pair's rows of the batch, in its own rows' order
        interact(sequential, one, pair, 0.05, one_slices, B[r],
                 None if U is None else U[zrow[r][batched.zo[rows[r]]]],
                 np.empty((2, batched.flat.shape[1])))
    scale = np.abs(stack_models(sequential)).max()
    assert np.allclose(stack_models(batched), stack_models(sequential), rtol=RTOL,
                       atol=RTOL * scale)
    if momentum:
        assert np.allclose(batched.M, sequential.M, rtol=RTOL,
                           atol=RTOL * np.abs(sequential.M).max())
    # the kernel counts no evaluations: step_window does, once per window
    assert np.array_equal(batched.evals, evals) and np.array_equal(sequential.evals, evals)
    assert batched.interactions == sequential.interactions


def _states(pop):
    """The scheduler's stream, each agent's id stream, then each zeroth-order
    agent's direction stream."""
    return [r.bit_generator.state for r in [*pop.scheduler_rngs, *pop.rngs, *pop.dir_rngs]]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), zo_share=st.floats(0.0, 1.0),
       kind=st.sampled_from([ZO_ONE_SIDED, ZO_CENTRAL, ZO_FORWARD]),
       momentum=st.sampled_from([0.0, 0.9]), full_batch=st.booleans(),
       logistic=st.booleans(), matching=st.booleans(),
       etas=st.one_of(
           # one rate for the window, or a rate per step with zeros mixed in
           st.builds(lambda eta, steps: [eta] * steps, st.sampled_from([0.0, 0.05]),
                     st.integers(1, 40)),
           st.lists(st.one_of(st.just(0.0), st.floats(0.001, 0.05)), min_size=1, max_size=40)),
       seed=st.integers(0, 2**31 - 1))
def test_window_equals_its_steps(n, zo_share, kind, momentum, full_batch, logistic, matching,
                                 etas, seed):
    # a window of steps runs as layers of disjoint pairs at per-pair rates and
    # draws first-order minibatches in bulk: it must equal the steps one by one
    spec = (make_logistic(make_blobs_dataset(40, 4, seed=3), lam=0.1) if logistic
            else make_quadratic(d=4, cond=3.0, seed=2, n_samples=40))
    n0 = int(round(zo_share * n))
    rng = np.random.default_rng(seed)
    b, rv = 3, 4
    # with full_batch every shard holds exactly b ids, so no minibatch is drawn
    shards = [rng.choice(spec.n_samples, size=b if full_batch else int(rng.integers(b, 12)),
                         replace=False) for _ in range(n)]
    mode = "random_matching" if matching else "uniform_pair"
    cfg = PopulationConfig(
        n0=n0, n1=n - n0, schedule=Schedule(eta_max=0.05), c=2.0, momentum=momentum,
        zo=EstimatorConfig(kind=kind, batch_size=b, rv=rv) if n0 else None,
        fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=b) if n0 < n else None)
    window = Population([(cfg, seed)], spec, rng.standard_normal((n, spec.d)), shards,
                        scheduler_mode=mode)
    one_by_one = copy.deepcopy(window)
    before = _states(window)
    # the agents of the pairs that step at a nonzero rate, and each agent's
    # count of such steps, from a replay of the schedule
    replay, moved = copy.deepcopy(window.scheduler_rngs[0]), {-1}
    stepped = np.zeros(n, dtype=np.int64)
    for eta in etas:
        I, J = map(np.ravel, (draw_matching if matching else draw_pairs)(replay, n, 1))
        if eta:
            moved.update(I.tolist() + J.tolist())
            stepped[np.concatenate((I, J))] += 1
    step_window(window, etas)
    for eta in etas:
        step_window(one_by_one, [eta])
    assert _states(window) == _states(one_by_one)
    # an eta = 0 step moves no agent stream: only the scheduler and the stepped agents draw
    owners = [-1, *range(n), *range(n0)]  # per stream of _states, its agent (-1: scheduler)
    assert [s for a, s in zip(owners, _states(window)) if a not in moved] == [
        s for a, s in zip(owners, before) if a not in moved]
    assert window.interactions == one_by_one.interactions
    assert np.array_equal(window.evals, one_by_one.evals)
    # one estimate per nonzero-rate step, at its kind's cost in function evaluations
    zo_cost = {ZO_ONE_SIDED: b * (rv + 1), ZO_CENTRAL: 2 * b * rv, ZO_FORWARD: b * rv}[kind]
    assert window.evals.tolist() == [(zo_cost if a < n0 else b) * stepped[a] for a in range(n)]
    assert window.interactions == len(etas) * (n // 2 if matching else 1)
    assert np.allclose(stack_models(window), stack_models(one_by_one), rtol=RTOL,
                       atol=RTOL * np.abs(stack_models(one_by_one)).max())
    if momentum:
        assert np.allclose(window.M, one_by_one.M, rtol=RTOL,
                           atol=RTOL * max(np.abs(one_by_one.M).max(), 1.0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), steps=st.integers(1, 50), seed=st.integers(0, 2**31 - 1))
def test_window_pairs_equal_scalar_draws(n, steps, seed):
    bulk, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    I, J = draw_pairs(bulk, n, steps)
    pairs = []
    for _ in range(steps):
        i, j = int(scalar.integers(n)), int(scalar.integers(n - 1))
        pairs.append((i, j + (j >= i)))
    assert list(zip(I.tolist(), J.tolist())) == pairs
    assert bulk.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("steps", [1, 7, 50])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 20, 21, 280])
def test_window_matchings_equal_per_step_permutations(n, steps):
    # one rng.permuted call on the window's rows must draw what steps calls of
    # rng.permutation(n) draw, and leave the stream where they leave it
    bulk, scalar = np.random.default_rng(n * steps), np.random.default_rng(n * steps)
    I, J = draw_matching(bulk, n, steps)
    perms = np.array([scalar.permutation(n) for _ in range(steps)])
    k = n // 2
    assert np.array_equal(I, perms[:, 0:2 * k:2]) and np.array_equal(J, perms[:, 1:2 * k:2])
    assert bulk.bit_generator.state == scalar.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(n0=st.integers(0, 4), n1=st.integers(0, 4), momentum=st.sampled_from([0.0, 0.9]),
       logistic=st.booleans(), eta=st.sampled_from([0.0, 0.05]), T=st.integers(1, 60),
       cadence=st.integers(1, 25), matching=st.booleans(), cosine=st.booleans(),
       warmup=st.integers(0, 10), total=st.integers(1, 80),
       eta_min=st.sampled_from([0.0, 0.01]), seed=st.integers(0, 2**31 - 1))
def test_window_weighted_average_equals_per_step_fold(n0, n1, momentum, logistic, eta, T,
                                                      cadence, matching, cosine, warmup,
                                                      total, eta_min, seed):
    # run() folds a window's pre-step means from the first mean and the steps'
    # estimates: it must equal the direct weights over the mean before every
    # single step
    if n0 + n1 < 2:
        n1 = 2
    spec = (make_logistic(make_blobs_dataset(40, 4, seed=3), lam=0.1) if logistic
            else make_quadratic(d=4, cond=3.0, seed=2, n_samples=40))
    if cosine:  # a total below T leaves a tail of steps at eta_min
        eta = Schedule(eta_max=0.05, mode="warmup_cosine", eta_min=eta_min,
                       warmup_steps=warmup, total_steps=warmup + total)
    mode = "random_matching" if matching else "uniform_pair"
    cfg, stack = _config(n0, n1, ZO_FORWARD, mode, eta, momentum, T=T)
    stack["metric_cadence"] = cadence
    x0 = np.random.default_rng(seed).standard_normal(spec.d)
    pop = init_population(cfg, spec, [partition_data(spec.n_samples, n0, n1, seed=5)], [x0],
                          [seed % 1000], **stack)
    one_by_one = copy.deepcopy(pop)
    result = run(pop, track_weighted_average=True)
    mus, etas = [], []
    for t in range(T):
        etas.append(eta_at(cfg.schedule, t))
        mus.append(one_by_one.flat.mean(axis=0))
        step_window(one_by_one, [etas[-1]])
    expected = weighted_average_reference(mus, etas, spec.ell, pop.units[0].n)
    assert len(mus) == T and result.weighted_average.shape == (1, spec.d)
    assert np.allclose(result.weighted_average[0], expected, rtol=RTOL,
                       atol=RTOL * np.abs(expected).max())
    assert np.allclose(stack_models(pop), stack_models(one_by_one), rtol=RTOL,
                       atol=RTOL * np.abs(stack_models(one_by_one)).max())


class _CountedStream:
    """A generator that counts the methods looked up on it, one per draw call."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.rng, name)


@pytest.mark.parametrize("cap", [None, 2 * 5 * 6], ids=["default", "one-step"])
@pytest.mark.parametrize("mode", ["uniform_pair", "random_matching"])
@pytest.mark.parametrize("population", ["hybrid_one_sided", "central"])
def test_metric_cadence_leaves_the_trajectory_unchanged(population, mode, cap, monkeypatch):
    # every stream draws the same numbers whether a window holds 1, 7 or 500
    # steps, and whether it runs whole or as sub-windows of one step (a cap of
    # 60 elements, below one step's footprint),
    # on a stack of 3 seeds (n = 5 idles one agent per matching); each seed's
    # scheduler stream makes one draw per (sub-)window
    if cap:
        monkeypatch.setattr(protocol, "_WINDOW_DIRECTIONS", cap)
    spec, _ = _objective("quadratic")
    n0, n1, kind = POPULATIONS[population]
    schedule = Schedule(eta_max=0.05, mode="warmup_cosine", warmup_steps=5, total_steps=500)
    parts = [partition_data(spec.n_samples, n0, n1, seed=11 + s) for s in range(3)]
    X0 = np.random.default_rng(12).standard_normal((3, spec.d))
    runs = []
    for cadence in (1, 7, 500):
        cfg, stack = _config(n0, n1, kind, mode, schedule, 0.9,
                                T=600 if mode == "uniform_pair" else 150)
        stack["metric_cadence"] = cadence
        pop = init_population(cfg, spec, parts, X0, [7, 8, 9], **stack)
        pop.scheduler_rngs = [_CountedStream(rng) for rng in pop.scheduler_rngs]
        run(pop)
        draws = pop.T if cap else -(-pop.T // cadence)
        assert [rng.calls for rng in pop.scheduler_rngs] == [draws] * 3
        runs.append(pop)
    for pop in runs[1:]:  # bit for bit, however the pairs are layered
        assert np.array_equal(stack_models(pop), stack_models(runs[0]))
        assert np.array_equal(pop.M, runs[0].M)
        assert np.array_equal(pop.evals, runs[0].evals)


def _count_input_draws(monkeypatch):
    """The (B, U) of every draw_row_inputs call step_window makes, in order."""
    draws = []

    def counted(pop, A):
        draws.append(draw_row_inputs(pop, A))
        return draws[-1]

    monkeypatch.setattr(protocol, "draw_row_inputs", counted)
    return draws


def test_a_paper_size_matching_window_draws_its_inputs_once(monkeypatch):
    # 256 zeroth-order and 24 first-order agents (140 pairs a step), rv = 16,
    # d = 20: ten steps' forward inputs, rv + d = 36 numbers for each of the
    # 2,560 zeroth-order rows (92,160 elements; none for first-order rows),
    # fit one window's draw
    spec = make_quadratic(d=20, cond=5.0, seed=3, n_samples=512)
    cfg = PopulationConfig(n0=256, n1=24, schedule=Schedule(eta_max=0.01),
                           zo=EstimatorConfig(kind=ZO_FORWARD, batch_size=1, rv=16),
                           fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=1))
    pop = init_population(cfg, spec, [partition_data(spec.n_samples, 256, 24, seed=1)],
                          [np.zeros(spec.d)], [2], T=10, scheduler_mode="random_matching",
                          metric_cadence=10)
    draws = _count_input_draws(monkeypatch)
    step_window(pop, np.full(10, 0.01))
    assert len(draws) == 1
    assert draws[0][1].shape == (10 * 256, 36)


@pytest.mark.parametrize("kinds", [(ZO_ONE_SIDED,), (ZO_ONE_SIDED, ZO_FORWARD)],
                         ids=["hybrid", "two-shapes"])
def test_input_draws_hold_gaussians_for_zeroth_order_rows_alone(kinds):
    # a hybrid stack of units (3 + 2 agents each): U has one row per kernel
    # row whose agent is zeroth-order, in row order, holding what the per-row
    # layout holds there (each agent's Gaussians, drawn in one call on its
    # direction stream); with two input shapes a row holds its Gaussians in
    # its leading entries
    spec = make_quadratic(d=4, cond=3.0, seed=2, n_samples=40)
    cfgs = [_config(3, 2, kind, "uniform_pair", 0.05, 0.0)[0] for kind in kinds for _ in range(2)]
    pop = init_population(cfgs, spec, [partition_data(spec.n_samples, 3, 2, seed=s)
                                       for s in range(len(cfgs))],
                          np.zeros((len(cfgs), spec.d)), range(len(cfgs)))
    A = np.random.default_rng(5).integers(-1, 5 * len(cfgs), size=300)
    streams = copy.deepcopy(pop.dir_rngs)
    B, U = draw_row_inputs(pop, A)
    zo = (A >= 0) & pop.zo[A]
    assert U.shape[0] == zo.sum()
    per_row = [None] * A.shape[0]  # the per-row layout, from copies of the streams
    for z, a in enumerate(np.flatnonzero(pop.zo).tolist()):
        rows = np.flatnonzero(A == a)
        cfg = pop.groups[pop.group[a]]
        for r, u in zip(rows, streams[z].standard_normal((rows.shape[0],
                                                           *cfg.input_shape(spec.d)))):
            per_row[r] = u
    for u, r in zip(U, np.flatnonzero(zo)):
        assert np.array_equal(u.ravel()[:per_row[r].size], per_row[r].ravel())
    assert all(per_row[r] is None for r in np.flatnonzero(~zo))


def _window_cap_draws(population, mode, cap, monkeypatch):
    """The draws of a run of ``population`` in windows of 10 steps on a stack
    of 2 seeds, its windows capped at ``cap`` elements for the whole stack."""
    monkeypatch.setattr(protocol, "_WINDOW_DIRECTIONS", cap)
    spec, _ = _objective("quadratic")
    n0, n1, kind = POPULATIONS[population]
    cfg, stack = _config(n0, n1, kind, mode, 0.05, 0.0)
    pop = init_population(cfg, spec, [partition_data(spec.n_samples, n0, n1, seed=s)
                                      for s in range(2)], np.ones((2, spec.d)), [3, 4], **stack)
    draws = _count_input_draws(monkeypatch)
    run(pop)
    # each sub-window's ids B, Gaussians U and estimates G (a row of d per
    # row of B) together stay within the stack's one budget
    assert all(B.size + U.size + B.shape[0] * spec.d <= cap for B, U in draws)
    return draws, pop


@pytest.mark.parametrize("mode", ["uniform_pair", "random_matching"])
def test_no_input_draw_exceeds_the_window_cap(mode, monkeypatch):
    # a kernel row takes d + b + rv d + 32 = 6 + 3 + 30 + 32 = 71 elements, so
    # a step of the 2-seed stack takes 2 * 71 per pair: 284 for one uniform
    # pair a seed, 568 for two matching pairs a seed.  A cap of 1,200 splits
    # each window of 10 steps into sub-windows of 4, 4 and 2 uniform steps, or
    # of 2 matching steps
    draws, pop = _window_cap_draws("hybrid_one_sided", mode, 1200, monkeypatch)
    assert len(draws) == (3 if mode == "uniform_pair" else 5) * pop.T // 10


@pytest.mark.parametrize("mode", ["uniform_pair", "random_matching"])
def test_no_forward_input_draw_exceeds_the_window_cap(mode, monkeypatch):
    # forward rows take rv + d = 11 inputs, not rv d = 30: 6 + 3 + 11 + 32 = 52
    # elements, so a step takes 208 for one uniform pair a seed and 624 for
    # three matching pairs a seed.  A cap of 1,200 makes sub-windows of 5
    # uniform steps, or of one matching step
    draws, pop = _window_cap_draws("hybrid_forward", mode, 1200, monkeypatch)
    assert len(draws) == (2 if mode == "uniform_pair" else 10) * pop.T // 10


def _window_peak(cfg, units, steps):
    """The tracemalloc peak of one uniform_pair step_window call of ``steps``
    steps at rate 0.05 on a stack of ``units`` seeds of ``cfg``."""
    spec, _ = _objective("quadratic")
    pop = init_population(cfg, spec, [partition_data(spec.n_samples, cfg.n0, cfg.n1, seed=s)
                                      for s in range(units)], np.ones((units, spec.d)),
                          range(units))
    etas = np.full(steps, 0.05)
    tracemalloc.start()
    try:
        step_window(pop, etas)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_window_stays_within_one_stack_wide_budget(monkeypatch):
    # a first-order stack, which draws no Gaussians, over 5,000 steps (25
    # sub-windows), and one-sided hybrid stacks of 1, 3 and 9 seeds over 600
    # steps: at a cap of 2^14 elements (128 KiB), one call's peak stays within
    # the cap's bytes and one fixed slack, whatever the units or the steps
    cap, slack = 1 << 14, 1 << 16
    monkeypatch.setattr(protocol, "_WINDOW_DIRECTIONS", cap)
    first_order = _config(0, 8, ZO_ONE_SIDED, "uniform_pair", 0.05, 0.0)[0]
    hybrid = _config(*POPULATIONS["hybrid_one_sided"], "uniform_pair", 0.05, 0.0)[0]
    peaks = [_window_peak(first_order, 1, 5000)] + [_window_peak(hybrid, units, 600)
                                                    for units in (1, 3, 9)]
    assert max(peaks) <= 8 * cap + slack, peaks


@pytest.mark.parametrize("cap", [protocol._WINDOW_DIRECTIONS, 180], ids=["default", "small-cap"])
@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("mode", ["uniform_pair", "random_matching"])
@pytest.mark.parametrize("objective", ["quadratic", "logistic", "nonconvex"])
def test_stack_equals_its_seeds_run_one_by_one(objective, mode, S, cap, monkeypatch):
    # mixed kinds with momentum, n = 5 (one agent idles per matching), windows
    # that hold zero-rate steps (the warmup's step 0, eta_min = 0 from step 35
    # on), mt_g samples, validation where there is a validation set and a
    # tracked weighted average where the objective is strongly convex: every
    # seed of a stack gets the numbers of its run alone, bit for bit, also when
    # a small cap splits each window into sub-windows
    monkeypatch.setattr(protocol, "_WINDOW_DIRECTIONS", cap)
    spec, val = _objective(objective)
    n0, n1, kind = POPULATIONS["hybrid_one_sided"]
    schedule = Schedule(eta_max=0.05, mode="warmup_cosine", warmup_steps=5, total_steps=35)
    options = dict(val_features=None if val is None else val[0],
                   val_labels=None if val is None else val[1], sample_mtg=True,
                   track_weighted_average=spec.ell > 0)
    cfg, stack = _config(n0, n1, kind, mode, schedule, 0.9)
    parts = [partition_data(spec.n_samples, n0, n1, seed=10 + s) for s in range(S)]
    X0 = [np.random.default_rng(s).standard_normal(spec.d) for s in range(S)]
    alone = [init_population(cfg, spec, [parts[s]], [X0[s]], [s], **stack) for s in range(S)]
    stacked = init_population(cfg, spec, parts, X0, range(S), **stack)
    result = run(stacked, **options)
    for s, pop in enumerate(alone):
        one = run(pop, **options)
        assert result.records[s] == one.records[0]
        if spec.ell > 0:
            assert np.array_equal(result.weighted_average[s], one.weighted_average[0])
        rows = slice(s * pop.units[0].n, (s + 1) * pop.units[0].n)
        assert np.array_equal(stack_models(stacked)[s], stack_models(pop)[0])
        assert np.array_equal(stacked.M[rows], pop.M)
        assert np.array_equal(stacked.evals[rows], pop.evals)
        assert stacked.interactions == S * pop.interactions


@pytest.mark.parametrize("mode", ["uniform_pair", "random_matching"])
def test_weighted_average_depends_on_neither_the_split_nor_the_stack(mode, monkeypatch):
    # each unit's pairs fold into the weighted-average drift in step order, so
    # a seed's weighted average keeps its bits whether its windows of 10 steps
    # run whole (default cap), split by a 3-seed stack's footprint at a cap of
    # 1,000 (2 uniform steps a sub-window, one matching step) or by its own (7
    # uniform steps, 3 matching steps), or run as one-step sub-windows (cap 180)
    spec, _ = _objective("quadratic")
    n0, n1, kind = POPULATIONS["hybrid_one_sided"]
    schedule = Schedule(eta_max=0.05, mode="warmup_cosine", warmup_steps=5, total_steps=35)
    cfg, stack = _config(n0, n1, kind, mode, schedule, 0.9)
    parts = [partition_data(spec.n_samples, n0, n1, seed=10 + s) for s in range(3)]
    X0 = [np.random.default_rng(s).standard_normal(spec.d) for s in range(3)]
    expected = [run(init_population(cfg, spec, [parts[s]], [X0[s]], [s], **stack),
                    track_weighted_average=True).weighted_average[0] for s in range(3)]
    for cap in (1000, 180):
        monkeypatch.setattr(protocol, "_WINDOW_DIRECTIONS", cap)
        stacked = run(init_population(cfg, spec, parts, X0, range(3), **stack),
                      track_weighted_average=True)
        for s in range(3):
            alone = run(init_population(cfg, spec, [parts[s]], [X0[s]], [s], **stack),
                        track_weighted_average=True)
            assert np.array_equal(alone.weighted_average[0], expected[s])
            assert np.array_equal(stacked.weighted_average[s], expected[s])


@pytest.mark.parametrize("mode", ["uniform_pair", "random_matching"])
@pytest.mark.parametrize("objective", ["quadratic", "logistic"])
def test_each_unit_of_a_mixed_stack_samples_the_mtg_of_its_run_alone(objective, mode):
    # four units sampling mt_g at every record, one estimate dispatch for all:
    # a one-sided hybrid under warmup_cosine with momentum 0.5, a forward unit
    # (rv = 4), a central unit at eta = 0 with c = 2.5 (a biased kind samples
    # nothing there, so its rows are skipped) and a first-order unit; three
    # zeroth-order input shapes, and c and momentum as per-row columns
    spec, val = _objective(objective)
    fo = EstimatorConfig(kind=FIRST_ORDER, batch_size=3)
    warmup = Schedule(eta_max=0.05, mode="warmup_cosine", warmup_steps=5, total_steps=35)
    stack = dict(T=40, scheduler_mode=mode, metric_cadence=10)
    cfgs = [PopulationConfig(n0=3, n1=2, schedule=warmup, momentum=0.5, fo=fo,
                             zo=EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=3, rv=5)),
            PopulationConfig(n0=4, n1=0, schedule=Schedule(eta_max=0.05),
                             zo=EstimatorConfig(kind=ZO_FORWARD, batch_size=2, rv=4)),
            PopulationConfig(n0=3, n1=1, schedule=Schedule(eta_max=0.0), c=2.5, fo=fo,
                             zo=EstimatorConfig(kind=ZO_CENTRAL, batch_size=3, rv=3)),
            PopulationConfig(n0=0, n1=4, schedule=Schedule(eta_max=0.05), fo=fo)]
    parts = [partition_data(spec.n_samples, cfg.n0, cfg.n1, seed=20 + u)
             for u, cfg in enumerate(cfgs)]
    X0 = np.random.default_rng(21).standard_normal((len(cfgs), spec.d))
    options = dict(val_features=None if val is None else val[0],
                   val_labels=None if val is None else val[1], sample_mtg=True)
    stacked = run(init_population(cfgs, spec, parts, X0, range(len(cfgs)), **stack),
                  **options)
    for u, cfg in enumerate(cfgs):
        alone = run(init_population(cfg, spec, [parts[u]], [X0[u]], [u], **stack), **options)
        assert stacked.records[u] == alone.records[0]
    assert [any(r.mt_g is not None for r in records) for records in stacked.records] == [
        True, True, False, True]


def test_a_diverged_stack_names_its_first_non_finite_seed():
    # at 1e300 the models are finite and the loss overflows; seed by seed in
    # stack order, a seed's models are checked, then its metrics, so a seed
    # with overflowing metrics comes before a later seed at inf
    spec, _ = _objective("quadratic")
    cfg, stack = _config(0, 4, ZO_ONE_SIDED, "uniform_pair", 0.05, 0.0)
    for scales, first in [((0.0, 1e300, 1e300), 1), ((1e300, np.inf), 0)]:
        pop = init_population(cfg, spec, [partition_data(spec.n_samples, 0, 4, seed=s)
                                          for s in range(len(scales))],
                              [np.full(spec.d, scale) for scale in scales], [7] * len(scales),
                              **stack)
        with pytest.raises(DivergedError, match="metrics are non-finite at step 0") as info:
            run(pop)
        assert info.value.unit == first


def test_a_layer_makes_two_calls_and_one_per_estimator_group():
    # a uniform_pair window on a stack of a one-sided hybrid unit and a
    # first-order unit, under sys.setprofile: the calls made from the frames
    # of interact and estimate_groups are the model gather, the dispatch and
    # one estimate_rows call per estimator group present in the layer
    spec, _ = _objective("quadratic")
    cfgs = [_config(*POPULATIONS[name][:2], ZO_ONE_SIDED, "uniform_pair", 0.05, 0.0)[0]
            for name in ("hybrid_one_sided", "fo")]
    pop = init_population(cfgs, spec, [partition_data(spec.n_samples, c.n0, c.n1, seed=s)
                                       for s, c in enumerate(cfgs)],
                          np.ones((2, spec.d)), [3, 4], T=40, scheduler_mode="uniform_pair")
    frames = {protocol.interact.__code__, estimators.estimate_groups.__code__}
    layers = []  # per layer: (groups present, calls made)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is protocol.interact.__code__:
            layers.append([np.unique(pop.group[frame.f_locals["rows"]]).shape[0], 0])
        caller = frame if event == "c_call" else frame.f_back if event == "call" else None
        if caller is not None and caller.f_code in frames:
            layers[-1][1] += 1

    sys.setprofile(hook)
    try:
        step_window(pop, np.full(40, 0.05))
    finally:
        sys.setprofile(None)
    assert len(layers) > 10 and any(groups == 2 for groups, _ in layers)
    assert all(calls <= 2 + groups for groups, calls in layers), layers
