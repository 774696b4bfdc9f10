"""Population dynamics: pair scheduling and interactions.

The (config, seed) units of an experiment form one stack, their models one
(N, d) array, run as one simulation.  An interaction between two agents of
a unit applies one local estimator step each (at the pre-interaction
models), then replaces both models with their average.
Two schedulers are provided: ``uniform_pair`` draws one unordered pair per
fine-grained step, ``random_matching`` pairs all agents via a uniformly
random perfect matching per step (one agent idles when n is odd).  They
differ only in how a window's pairs are drawn and layered: both run the
kernel, :func:`interact`, once per layer of a window's disjoint pairs.

Clock conventions: a unit's interactions count its pairwise interactions
(fine-grained time), its parallel time is interactions / n, and a matching
step counts as one simulation step but n // 2 interactions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .estimators import (FIRST_ORDER, EstimatorConfig, check_shard, draw_row_inputs,
                         estimate_groups, group_rows)
from . import metrics as _metrics

UNIFORM_PAIR = "uniform_pair"
RANDOM_MATCHING = "random_matching"
SCHEDULER_MODES = (UNIFORM_PAIR, RANDOM_MATCHING)

# purpose tags for deriving per-stream seeds from one master seed
TAG_AGENT = 1
TAG_SCHEDULER = 2
TAG_METRICS = 3
TAG_INIT = 4

# a window draws the inputs of all its estimates ahead; one whose footprint
# (Population.step_elements a step) would exceed this many 8-byte elements
# (8 MB) for the whole stack runs as sub-windows
_WINDOW_DIRECTIONS = 1 << 20


def derive_rng(*path):
    """Generator for a path of integers: (master seed, purpose tag, indices...)."""
    return np.random.default_rng(np.random.SeedSequence([int(p) for p in path]))


def fold_seed(*parts) -> int:
    """Deterministic 64-bit seed from a path of integers."""
    seq = np.random.SeedSequence([int(p) for p in parts])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Schedule:
    """Learning-rate schedule: constant, or linear warmup into cosine decay."""

    eta_max: float
    mode: str = "constant"
    eta_min: float = 0.0
    warmup_steps: int = 0
    total_steps: int = 0

    def __post_init__(self):
        if self.mode not in ("constant", "warmup_cosine"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if not 0.0 <= self.eta_min <= self.eta_max < math.inf:
            raise ValueError("need 0 <= eta_min <= eta_max < inf")
        if self.mode == "warmup_cosine":
            if self.warmup_steps < 0 or self.total_steps <= self.warmup_steps:
                raise ValueError("warmup_cosine needs 0 <= warmup_steps < total_steps")


def eta_at(schedule: Schedule, step):
    """Learning rate at a scheduler step, or an array of them at an array of steps."""
    step = np.asarray(step)
    if (step < 0).any():
        raise ValueError("step must be >= 0")
    if schedule.mode == "constant":
        eta = np.full(step.shape, schedule.eta_max)
    else:
        warmup, span = schedule.warmup_steps, schedule.total_steps - schedule.warmup_steps
        progress = np.minimum((step - warmup) / span, 1.0)
        eta = np.where(step < warmup, schedule.eta_max * step / max(warmup, 1),
                       schedule.eta_min + 0.5 * (schedule.eta_max - schedule.eta_min)
                       * (1.0 + np.cos(np.pi * progress)))
    return eta if step.ndim else float(eta)


@dataclass
class PopulationConfig:
    n0: int
    n1: int
    schedule: Schedule
    momentum: float = 0.0
    c: float | None = None  # nu = eta / c; defaults to sqrt(d)
    zo: EstimatorConfig | None = None
    fo: EstimatorConfig | None = None
    label: str = ""

    def __post_init__(self):
        if self.n0 < 0 or self.n1 < 0 or self.n0 + self.n1 < 2:
            raise ValueError("need n0, n1 >= 0 with n0 + n1 >= 2")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.c is not None and not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.n0 > 0 and self.zo is None:
            raise ValueError("n0 > 0 requires a zeroth-order estimator config")
        if self.n1 > 0 and self.fo is None:
            raise ValueError("n1 > 0 requires a first-order estimator config")
        if (self.zo and self.zo.kind == FIRST_ORDER) or (self.fo and self.fo.kind != FIRST_ORDER):
            raise ValueError("zo needs a zeroth-order kind and fo the first-order kind")


class DivergedError(RuntimeError):
    """Raised when unit ``unit`` of a run's stack has non-finite models or
    metrics at its record of step ``step``."""

    def __init__(self, message, unit=0, step=0):
        super().__init__(message)
        self.unit, self.step = unit, step


class Unit(NamedTuple):
    """One config run from one seed value in a stack: its n = cfg.n0 + cfg.n1
    agents are the stack's global rows start..start + n - 1."""

    cfg: PopulationConfig
    seed: int
    n: int
    start: int


@dataclass
class Population:
    """A stack of units run as one simulation, each unit one config from one
    seed value.  ``units`` is given as (cfg, seed) pairs and kept as
    :class:`Unit` tuples, unit by unit in global rows: unit u's agent i has
    the model flat[start + i] of the (N, d) array ``flat``.  The stack's
    settings hold for every unit: its runs take ``T`` steps of its
    ``scheduler_mode``, recording every ``metric_cadence`` steps.

    Agent g (a global row) belongs to unit ``unit[g]``, owns ``shards[g]``,
    has made ``evals[g]`` function evaluations and uses the estimator
    ``groups[group[g]]``, at ``cost[g]`` evaluations an estimate: one table
    entry per distinct EstimatorConfig, its unit's cfg.zo for agents i < n0
    and cfg.fo for the others.  Unit u's agent i draws minibatch ids from the
    stream (seed, TAG_AGENT, i), ``rngs[g]``, and, when zeroth-order,
    Gaussians from (seed, TAG_AGENT, i, 1), ``dir_rngs[g]`` (None for a
    first-order agent); the unit draws pairs from (seed,
    TAG_SCHEDULER), ``scheduler_rngs[u]``, and metrics samples from (seed,
    TAG_METRICS), ``metrics_rngs[u]``, at the rates of
    ``schedules[schedule[u]]`` (one entry per distinct Schedule).  ``c``
    (cfg.c, or sqrt(d) when that is None) and ``momentum`` are floats when
    every unit shares them, else (N, 1) columns of each row's unit's value;
    ``M`` holds the momentum buffers (row g for agent g) when a momentum is
    > 0, else None.  ``interactions`` counts the pairs of all units.  Per unit,
    ``starts`` holds its first row and ``pairs`` its pairs per step;
    ``blocks`` lists the runs of consecutive units of one n as (first row,
    end row, n).  ``step_elements`` is the stack's memory a window step, in
    8-byte elements: the one budget by which :func:`step_window` splits
    every window of every unit."""

    units: list
    objective: object
    flat: np.ndarray
    shards: list
    T: int = 1
    scheduler_mode: str = UNIFORM_PAIR
    metric_cadence: int = 10
    M: np.ndarray | None = field(init=False)
    evals: np.ndarray = field(init=False)
    interactions: int = field(init=False)

    def __post_init__(self):
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if self.scheduler_mode not in SCHEDULER_MODES:
            raise ValueError(f"unknown scheduler mode {self.scheduler_mode!r}")
        if self.metric_cadence < 1:
            raise ValueError("metric_cadence must be >= 1")
        d = self.objective.d
        self.flat = np.ascontiguousarray(self.flat, dtype=float)
        units, N = [], 0
        for cfg, seed in self.units:
            units.append(Unit(cfg, seed, cfg.n0 + cfg.n1, N))
            N += cfg.n0 + cfg.n1
        if not (units and self.flat.shape == (N, d) and len(self.shards) == N):
            raise ValueError("need a (cfg, seed) per unit, (N, d) models of the objective's d "
                             "for the units' N agents and a shard per agent")
        self.units = units
        self.starts = np.array([u.start for u in units])
        self.unit = np.repeat(np.arange(len(units)), [u.n for u in units])
        self.blocks = []
        for u in units:
            if self.blocks and self.blocks[-1][2] == u.n:
                self.blocks[-1] = (self.blocks[-1][0], u.start + u.n, u.n)
            else:
                self.blocks.append((u.start, u.start + u.n, u.n))
        self.groups, group = [], []
        for u in units:
            for est, m in ((u.cfg.zo, u.cfg.n0), (u.cfg.fo, u.cfg.n1)):
                if m:
                    if est not in self.groups:
                        self.groups.append(est)
                    group += [self.groups.index(est)] * m
        self.group = np.array(group, dtype=np.intp)
        self.cost = np.array([est.evals for est in self.groups]).take(self.group)
        self.shards = [check_shard(shard, self.groups[g].batch_size)
                       for g, shard in zip(self.group.tolist(), self.shards)]
        self.schedules = list(dict.fromkeys(u.cfg.schedule for u in units))
        self.schedule = np.array([self.schedules.index(u.cfg.schedule) for u in units])
        self.c = self._per_row([math.sqrt(d) if u.cfg.c is None else u.cfg.c for u in units])
        self.momentum = self._per_row([u.cfg.momentum for u in units])
        uniform = self.scheduler_mode == UNIFORM_PAIR
        self.pairs = np.array([1 if uniform else u.n // 2 for u in units])
        # a window's footprint a step in 8-byte elements: per pair, two kernel
        # rows, each an estimate (d), minibatch ids (the largest batch), the
        # widest zeroth-order inputs and 32 elements of the window's per-pair
        # index arrays (tracemalloc: about 12 a row, 23 with a weighted-average
        # drift at d = 10)
        self.step_elements = 2 * int(self.pairs.sum()) * (
            d + max(est.batch_size for est in self.groups)
            + max([math.prod(est.input_shape(d)) for est in self.groups
                   if est.kind != FIRST_ORDER], default=0) + 32)
        self.rngs = [derive_rng(u.seed, TAG_AGENT, i) for u in units for i in range(u.n)]
        self.dir_rngs = [derive_rng(u.seed, TAG_AGENT, i, 1) if i < u.cfg.n0 else None
                         for u in units for i in range(u.n)]
        self.scheduler_rngs = [derive_rng(u.seed, TAG_SCHEDULER) for u in units]
        self.metrics_rngs = [derive_rng(u.seed, TAG_METRICS) for u in units]
        self.evals = np.zeros(N, dtype=np.int64)
        self.M = np.zeros_like(self.flat) if any(u.cfg.momentum > 0.0 for u in units) else None
        self.interactions = 0

    def _per_row(self, values):
        """One value per unit as a float when all agree, else as a column per row."""
        if all(v == values[0] for v in values):
            return float(values[0])
        return np.array(values, dtype=float).take(self.unit)[:, None]


def init_population(cfg, spec, partitions, X0, seeds, **settings) -> Population:
    """One stack of the units (cfg, seeds[u]), in order, or (cfg[u], seeds[u])
    when ``cfg`` is a list of one config per unit: unit u's agents all start
    at X0[u] and own the shards of partitions[u]; its agents 0..n0-1 are
    zeroth-order, the rest first-order (streams: :class:`Population`).
    ``settings`` are the stack's T, scheduler_mode and metric_cadence, each
    :class:`Population`'s default when not given."""
    seeds = list(seeds)
    cfgs = cfg if isinstance(cfg, list) else [cfg] * len(seeds)
    if not len(cfgs) == len(partitions) == len(X0) == len(seeds):
        raise ValueError("need a config, a partition, a start and a seed value per unit")
    if any(len(p.zo_shards) != c.n0 or len(p.fo_shards) != c.n1 for c, p in zip(cfgs, partitions)):
        raise ValueError("partition shard counts do not match n0 / n1")
    X = np.repeat(np.asarray(X0, dtype=float), [c.n0 + c.n1 for c in cfgs], axis=0)
    return Population(list(zip(cfgs, seeds)), spec, X,
                      [x for p in partitions for x in (*p.zo_shards, *p.fo_shards)], **settings)


def interact(pop: Population, rows, partner, eta, slices=(), B=None, U=None, G=None):
    """The disjoint pairs of kernel rows (r, partner[r]), row r for the
    global row rows[r], interact at once: every agent takes one local
    estimator step from its pre-interaction model, then both agents of a
    pair adopt the average of their stepped models.  The rows come from
    :func:`plan_layers`, which orders them by estimator group.

    ``eta`` is one rate for every pair, or a column of one positive rate per
    row, both rows of a pair at the pair's rate; an agent's smoothing radius
    is nu = eta / c, its momentum and c its unit's.  The estimates are
    written to G, one row per kernel row, by :func:`estimate_groups` over
    ``slices``, the rows' groups as contiguous runs of rows, from inputs drawn
    beforehand (:func:`draw_row_inputs`), one array each per estimator group:
    a slice (cfg, g, a, b, ua, ub) estimates rows a:b over the minibatch ids
    B[g][ua:ub] and, when zeroth-order, the Gaussians U[g][ua:ub].
    Momentum filters each estimate through the agent's persistent buffer
    (g <- m g + (1 - m) G), and G holds the filtered estimates; buffers are
    never exchanged.  eta = 0 is pure gossip averaging and reads no input.
    The kernel counts no evaluations.
    """
    X = pop.flat
    S = X.take(rows, axis=0)  # the pre-interaction models
    if type(eta) is np.ndarray or eta != 0.0:
        estimate_groups(pop.objective, slices, S, B, U,
                        eta / (pop.c if type(pop.c) is float else pop.c[rows]), G)
        if pop.M is not None:
            m = pop.momentum if type(pop.momentum) is float else pop.momentum[rows]
            G[...] = pop.M.take(rows, axis=0) * m + (1.0 - m) * G
            pop.M[rows] = G
        S -= eta * G
    S += S[partner]
    S *= 0.5
    X[rows] = S
    pop.interactions += rows.shape[0] // 2


def plan_layers(pop, I, J, counts, live=None):
    """The kernel rows of layers of disjoint pairs (I[p], J[p]) of global
    rows, the pairs sorted by layer, counts[l] of them in layer l, as
    :func:`interact` takes them: (rows, A, partner, slices, at).  Layer l,
    the pairs [s, e), is rows[2s:2e]: the agents I[s:e], then J[s:e],
    ordered by estimator group (:func:`~hdopt.estimators.group_rows`), so
    each group's rows keep that order.  partner[r] is the row of r's partner,
    counted from the first row of their layer, and pair p's rows are
    at[0, p] (I[p]) and at[1, p] (J[p]).  A is ``rows`` with -1 for the rows
    of a pair whose ``live`` is false, one that makes no estimate, and
    slices[l] is layer l's :func:`estimate_groups` slices over the inputs
    ``draw_row_inputs(pop, A, streams)``.  One layer of pairs is
    counts = [len(I)]."""
    rows = np.concatenate((I, J))
    A = rows if live is None else np.where(np.concatenate((live, live)), rows, -1)
    layer = np.arange(counts.shape[0]).repeat(counts)
    order, slices = group_rows(pop, A, np.concatenate((layer, layer)), counts.shape[0])
    at = order.argsort().reshape(2, -1)  # the inverse of order
    partner = np.empty_like(order)
    partner[at] = at[::-1]
    partner -= (2 * (counts.cumsum() - counts)).repeat(2 * counts)
    return rows[order], A[order], partner, slices, at


def draw_pairs(rng, n, steps):
    """``steps`` unordered pairs (I[p], J[p]), each uniform over the n (n - 1) / 2
    choices: the draws of ``steps`` scalar pairs ``rng.integers(n)``,
    ``rng.integers(n - 1)``, value for value, from one call on the bounds."""
    D = rng.integers(0, np.tile((n, n - 1), steps))
    I, J = D[0::2], D[1::2]
    J += J >= I
    return I, J


def draw_matching(rng, n, steps):
    """``steps`` uniformly random perfect matchings as two (steps, n // 2)
    index arrays (I, J), step t's pair p being (I[t, p], J[t, p]); odd n
    leaves one uniform idle agent a step.  The draws of ``steps`` calls
    ``rng.permutation(n)``, value for value, from one call."""
    perm = rng.permuted(np.arange(n)[None].repeat(steps, axis=0), axis=1)
    return perm[:, 0:n - 1:2], perm[:, 1:n:2]


def step_window(pop: Population, etas, weights=None):
    """``etas.shape[-1]`` steps of the stack's scheduler on every unit, step t
    of unit u at rate etas[pop.schedule[u], t] (etas (K, steps), row k for
    ``pop.schedules[k]``), or at etas[t] for every unit (etas (steps,)).

    The window runs as consecutive sub-windows of as many steps as fit the
    stack's one element budget, _WINDOW_DIRECTIONS over ``pop.step_elements``
    (at least one step).  Each unit draws a sub-window's pairs with one call
    on its own stream (:func:`draw_pairs` or :func:`draw_matching`, at its
    own n).  Disjoint pairs commute, so a sub-window runs as layers of them,
    one :func:`interact` each, layer l being the union of the units' layers
    l: a matching step is a layer, and a ``uniform_pair`` pair goes one layer
    after the last earlier pair sharing an agent with it (one at rate 0 among
    nonzero ones in a layer of its own).  Layers run at the sub-window's one
    rate, or at a column of per-row rates when its pairs' rates differ.  The
    inputs of every estimate come from one :func:`draw_row_inputs` call ahead
    of the layers: each agent draws in one call the minibatch ids of its
    nonzero-rate steps, and a zeroth-order agent their Gaussians in another.
    Each stream draws nothing else, so the numbers are those of the steps one
    by one, unit by unit, wherever the window splits.  The sub-window's
    kernel rows form one array, planned once by :func:`plan_layers`: the
    layer of pairs [s, e) is rows [2s, 2e), ordered by estimator group, whose
    inputs are its slices' rows of the window's per-group arrays B and U,
    and whose estimates go to rows [2s, 2e) of one (rows, d) array.
    ``pop.evals`` adds the sub-window's estimates at once.

    With ``weights`` (units, steps) it returns, row u for unit u, the sum over
    the unit's pairs p of weights[u, t] (G_I + G_J)[p], t being p's step,
    which moves the unit's mean by -etas[t] / n (G_I + G_J)[p].  The pairs add
    into one accumulator in (unit, step) order, so the sum depends neither on
    the split nor on the layering.
    """
    etas = np.asarray(etas, dtype=float)
    etas = etas.reshape(-1, etas.shape[-1])
    drift = None if weights is None else np.zeros((len(pop.units), pop.flat.shape[1]))
    h = max(1, _WINDOW_DIRECTIONS // pop.step_elements)
    for t in range(0, etas.shape[1], h):
        _sub_window(pop, etas[:, t:t + h], None if weights is None else weights[:, t:t + h], drift)
    return drift


def _sub_window(pop, etas, weights, drift):
    """One sub-window of :func:`step_window`, at rates etas (K, steps): adds
    its pairs' weighted estimates to ``drift`` when that is not None.  Its
    arrays die on return, before the next sub-window allocates its own."""
    N, d = pop.flat.shape
    uniform = pop.scheduler_mode == UNIFORM_PAIR
    steps = etas.shape[1]
    # unit by unit, each unit's pairs in step order, in global rows
    draw = draw_pairs if uniform else draw_matching
    I, J = [np.concatenate(drawn, axis=None) for drawn in zip(
        *[draw(rng, u.n, steps) for u, rng in zip(pop.units, pop.scheduler_rngs)])]
    counts = steps * pop.pairs  # per unit, its pairs
    unit, m = np.arange(counts.shape[0]).repeat(counts), pop.pairs.repeat(counts)
    I += pop.starts.repeat(counts)
    J += pop.starts.repeat(counts)
    T = (np.arange(I.shape[0]) - (counts.cumsum() - counts).repeat(counts)) // m  # per pair, its step
    E = etas[0, T] if etas.shape[0] == 1 else etas[pop.schedule.take(unit), T]  # and its rate
    L = T  # a matching step is a layer
    if uniform:
        depth, L = [0] * N, [0] * I.shape[0]  # per agent, layers joined; per pair, its layer
        for p, (i, j) in enumerate(zip(I.tolist(), J.tolist())):
            l = depth[i] if depth[i] > depth[j] else depth[j]
            depth[i] = depth[j] = l + 1
            L[p] = l
        L = np.asarray(L)
    mixed = not (etas == etas[0, 0]).all()
    if mixed:  # a pair at rate 0 among nonzero ones goes in a layer of its own
        L = np.unique(2 * L + (E == 0.0), return_inverse=True)[1]
    # sorted by layer, a layer's pairs are a slice, unit by unit; an agent's
    # stay in step order
    order = L.argsort(kind="stable")
    counts = np.bincount(L)
    rows, A, partner, slices, at = plan_layers(pop, I[order], J[order], counts,
                                               E[order] != 0.0 if mixed else None)
    firsts, ends = (2 * (counts.cumsum() - counts)).tolist(), (2 * counts.cumsum()).tolist()
    rate = float(etas[0, 0])  # every layer's, unless mixed
    layer_etas = [rate] * counts.shape[0]
    B = U = G = None
    if mixed or rate:
        if mixed:  # per row, its pair's rate, as a column
            R = np.empty((rows.shape[0], 1))
            R[at, 0] = E[order]
            layer_etas = [R[a:b] if R[a, 0] else 0.0 for a, b in zip(firsts, ends)]
        pop.evals += np.bincount(A + 1, minlength=N + 1)[1:] * pop.cost  # once per sub-window
        B, U = draw_row_inputs(pop, A, (pop.rngs, pop.dir_rngs))
        G = np.empty((rows.shape[0], d))
    for a, b, eta, layer in zip(firsts, ends, layer_etas, slices):
        interact(pop, rows[a:b], partner[a:b], eta, layer, B, U, G if G is None else G[a:b])
    if drift is not None and G is not None:  # the pairs that made estimates, in (unit, step) order
        i, j = at[:, order.argsort()]
        p = np.flatnonzero(E) if mixed else slice(None)
        S = G[i[p]]
        S += G[j[p]]
        S *= weights[unit[p], T[p], None]
        np.add.at(drift, unit[p], S)


@dataclass
class RunResult:
    records: list  # per unit, its records
    weighted_average: np.ndarray | None = None  # (units, d), row u for unit u


def _rates(pop, step):
    """The rates of the stack's schedules at ``step`` (one, or an array of
    them), row k for ``pop.schedules[k]``."""
    return np.array([eta_at(schedule, step) for schedule in pop.schedules])


def run(pop: Population, *, val_features=None, val_labels=None, sample_mtg: bool = False,
        track_weighted_average: bool = False) -> RunResult:
    """Execute the stack's ``pop.T`` scheduler steps on every unit, one
    :func:`step_window` per record interval, recording each unit's metrics
    every ``pop.metric_cadence`` steps (plus the initial and final states),
    each unit at the rates of its own schedule.

    Validation labels are mapped once, by the objective's training rule.
    One :func:`~hdopt.metrics.snapshot` of the whole stack records every unit.
    With ``sample_mtg`` each record samples ``mt_g``, unit u from its stream
    ``pop.metrics_rngs[u]`` (:func:`~hdopt.metrics.sample_estimates`, which
    samples none at eta = 0 for a unit of a biased zeroth-order kind).
    With ``track_weighted_average`` (strongly convex objectives only) each
    unit's weighted average of the pre-step means is kept in the ratio form
    (q, avg) of :func:`~hdopt.metrics.window_weights` (None when T = 0); a
    window's means follow from its first one and the steps' estimates.
    Raises :class:`DivergedError` for the first unit in stack order whose
    record finds a non-finite model, or a non-finite gamma, loss gap,
    gradient norm or validation loss; its models are checked before its
    metrics.
    """
    spec, T, cadence = pop.objective, pop.T, pop.metric_cadence
    val = None
    if val_features is not None:
        val = _metrics.validation_set(spec, val_features, val_labels)
    units = len(pop.units)
    q = avg = None
    if track_weighted_average and T:
        q, avg = np.zeros((units, 1)), np.zeros((units, spec.d))
    records = [[] for _ in range(units)]

    def record(step, eta):
        finite = np.logical_and.reduceat(np.isfinite(pop.flat).all(axis=1), pop.starts)
        recs = _metrics.snapshot(pop, step, eta, val, pop.metrics_rngs if sample_mtg else None)
        for u, rec in enumerate(recs):
            if not finite[u]:
                raise DivergedError(f"models are non-finite at step {step}", u, step)
            # 0 * v is 0 for a finite v and NaN otherwise, so the sum cannot overflow
            if not math.isfinite(0.0 * rec.gamma + 0.0 * rec.grad_norm_sq_mu + 0.0
                                 * (rec.mu_loss_gap or 0.0) + 0.0 * (rec.mean_val_loss or 0.0)):
                raise DivergedError(f"metrics are non-finite at step {step}", u, step)
            records[u].append(rec)

    # an overflow leaves an inf or a NaN, which record reports as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, _rates(pop, 0)[pop.schedule])
        for t in range(0, T, cadence):
            etas = _rates(pop, np.arange(t, min(t + cadence, T)))
            if avg is None:
                step_window(pop, etas)
            else:
                prod, weight, w = map(np.array, zip(*[
                    _metrics.window_weights(etas[k], spec.ell, u.n)
                    for u, k in zip(pop.units, pop.schedule.tolist())]))
                prod, weight = prod[:, None], weight[:, None]
                mu = weight * _metrics.unit_means(pop)  # from the first pre-step means
                mu -= step_window(pop, etas, w) / np.array([[u.n] for u in pop.units])
                q = q * prod + weight
                avg += (mu - weight * avg) / q
            record(t + etas.shape[1], etas[pop.schedule, -1])
    return RunResult(records, avg)
