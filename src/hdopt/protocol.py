"""Population dynamics: pair scheduling and interactions.

The models of all n agents are the rows of one (n, d) array.  An
interaction between two agents applies one local estimator step each (at
the pre-interaction models), then replaces both models with their average.
Two schedulers are provided: ``uniform_pair`` draws one unordered pair per
fine-grained step, ``random_matching`` pairs all agents via a uniformly
random perfect matching per step (one agent idles when n is odd).  Both run
the same kernel, :func:`interact`, over k disjoint pairs: a layer of a window
of ``uniform_pair`` steps, or the n // 2 pairs of a ``random_matching`` step.

Clock conventions: ``interactions`` counts pairwise interactions
(fine-grained time), parallel time is interactions / n, and a matching step
counts as one simulation step but n // 2 interactions.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .estimators import EstimatorConfig, check_shard, estimate_rows
from . import metrics as _metrics

UNIFORM_PAIR = "uniform_pair"
RANDOM_MATCHING = "random_matching"
SCHEDULER_MODES = (UNIFORM_PAIR, RANDOM_MATCHING)

# purpose tags for deriving per-stream seeds from one master seed
TAG_AGENT = 1
TAG_SCHEDULER = 2
TAG_METRICS = 3
TAG_INIT = 4


def derive_rng(seed, *path):
    """Child generator for (master seed, purpose tag, indices...)."""
    entropy = [int(v) for v in (list(np.atleast_1d(seed)) + list(path))]
    return np.random.default_rng(np.random.SeedSequence(entropy))


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
        if self.eta_max < 0 or self.eta_min < 0 or self.eta_min > self.eta_max:
            raise ValueError("need 0 <= eta_min <= eta_max")
        if self.mode == "warmup_cosine":
            if self.warmup_steps < 0 or self.total_steps <= self.warmup_steps:
                raise ValueError("warmup_cosine needs 0 <= warmup_steps < total_steps")


def eta_at(schedule: Schedule, step: int) -> float:
    """Learning rate at a scheduler step."""
    if step < 0:
        raise ValueError("step must be >= 0")
    if schedule.mode == "constant":
        return schedule.eta_max
    if step < schedule.warmup_steps:
        return schedule.eta_max * step / schedule.warmup_steps
    span = schedule.total_steps - schedule.warmup_steps
    progress = min((step - schedule.warmup_steps) / span, 1.0)
    return schedule.eta_min + 0.5 * (schedule.eta_max - schedule.eta_min) * (
        1.0 + math.cos(math.pi * progress)
    )


@dataclass
class PopulationConfig:
    n0: int
    n1: int
    schedule: Schedule
    T: int = 1
    scheduler_mode: str = UNIFORM_PAIR
    momentum: float = 0.0
    c: float | None = None  # nu = eta / c; defaults to sqrt(d)
    seed: int = 0
    metric_cadence: int = 10
    zo: EstimatorConfig | None = None
    fo: EstimatorConfig | None = None

    def __post_init__(self):
        if self.n0 < 0 or self.n1 < 0 or self.n0 + self.n1 < 2:
            raise ValueError("need n0, n1 >= 0 with n0 + n1 >= 2")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.scheduler_mode not in SCHEDULER_MODES:
            raise ValueError(f"unknown scheduler mode {self.scheduler_mode!r}")
        if self.c is not None and self.c <= 0:
            raise ValueError("c must be positive")
        if self.metric_cadence < 1:
            raise ValueError("metric_cadence must be >= 1")
        if self.n0 > 0 and self.zo is None:
            raise ValueError("n0 > 0 requires a zeroth-order estimator config")
        if self.n1 > 0 and self.fo is None:
            raise ValueError("n1 > 0 requires a first-order estimator config")


class DivergedError(RuntimeError):
    """Raised when a run's models become non-finite."""


@dataclass
class Population:
    """Agent i's model is row i of ``X`` (n, d); it owns ``shards[i]`` and
    draws from ``rngs[i]``.  Agents 0..n0-1 use the zeroth-order estimator
    ``zo``, the others the first-order ``fo``.  ``M`` holds the momentum
    buffers, one row per agent, and exists only when momentum > 0."""

    objective: object
    X: np.ndarray
    shards: list
    rngs: list
    n0: int
    zo: EstimatorConfig | None
    fo: EstimatorConfig | None
    c: float
    momentum: float
    scheduler_mode: str
    scheduler_rng: np.random.Generator
    metrics_rng: np.random.Generator
    M: np.ndarray | None = None
    interactions: int = 0
    function_evals: int = 0
    sim_steps: int = 0

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        n = self.X.shape[0]
        if self.X.ndim != 2 or self.X.shape[1] != self.objective.d:
            raise ValueError("models must form an (n, d) array matching the objective")
        if len(self.shards) != n or len(self.rngs) != n or not 0 <= self.n0 <= n:
            raise ValueError("need one shard and one rng per agent and 0 <= n0 <= n")
        # the estimator groups, in agent order: (config, agent ids)
        self.groups = [(cfg, rows) for cfg, rows in
                       ((self.zo, np.arange(self.n0)), (self.fo, np.arange(self.n0, n)))
                       if rows.shape[0]]
        if any(cfg is None for cfg, _ in self.groups):
            raise ValueError("every agent needs an estimator config")
        self.shards = [check_shard(self.shards[i], cfg.batch_size)
                       for cfg, rows in self.groups for i in rows]
        if self.momentum > 0.0 and self.M is None:
            self.M = np.zeros_like(self.X)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def n1(self):
        return self.X.shape[0] - self.n0

    def clone(self, seed=None):
        """Independent copy; ``seed`` reseeds every rng stream in the copy."""
        if seed is None:
            rngs = copy.deepcopy(self.rngs)
            sched, met = copy.deepcopy(self.scheduler_rng), copy.deepcopy(self.metrics_rng)
        else:
            rngs = [derive_rng(seed, TAG_AGENT, i) for i in range(self.n)]
            sched, met = derive_rng(seed, TAG_SCHEDULER), derive_rng(seed, TAG_METRICS)
        return Population(objective=self.objective, X=self.X.copy(), shards=self.shards,
                          rngs=rngs, n0=self.n0, zo=self.zo, fo=self.fo, c=self.c,
                          momentum=self.momentum, scheduler_mode=self.scheduler_mode,
                          scheduler_rng=sched, metrics_rng=met,
                          M=None if self.M is None else self.M.copy(),
                          interactions=self.interactions,
                          function_evals=self.function_evals, sim_steps=self.sim_steps)


def init_population(cfg: PopulationConfig, spec, partition, x0) -> Population:
    """All agents start at x0; agents 0..n0-1 are zeroth-order, the rest
    first-order."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.d,):
        raise ValueError("x0 dimension does not match the objective")
    if len(partition.zo_shards) != cfg.n0 or len(partition.fo_shards) != cfg.n1:
        raise ValueError("partition shard counts do not match n0 / n1")
    n = cfg.n0 + cfg.n1
    c = cfg.c if cfg.c is not None else math.sqrt(spec.d)
    return Population(objective=spec, X=np.tile(x0, (n, 1)),
                      shards=list(partition.zo_shards) + list(partition.fo_shards),
                      rngs=[derive_rng(cfg.seed, TAG_AGENT, i) for i in range(n)],
                      n0=cfg.n0, zo=cfg.zo if cfg.n0 else None,
                      fo=cfg.fo if cfg.n1 else None, c=c, momentum=cfg.momentum,
                      scheduler_mode=cfg.scheduler_mode,
                      scheduler_rng=derive_rng(cfg.seed, TAG_SCHEDULER),
                      metrics_rng=derive_rng(cfg.seed, TAG_METRICS))


def interact(pop: Population, I, J, eta: float, B=None):
    """The disjoint pairs (I[p], J[p]) interact at once: every agent takes
    one local estimator step from its pre-interaction model, then both agents
    of a pair adopt the average of their stepped models.

    The estimates of each estimator kind come from one call over all its
    agents.  ``B``, when given, holds minibatch ids drawn in advance, row r
    for agent ``concat(I, J)[r]``; only the first-order agents' rows are
    read.  Momentum filters each estimate through the agent's persistent
    buffer (g <- m g + (1 - m) G); buffers are never exchanged.  eta = 0
    degenerates to pure gossip averaging and skips the estimator calls.
    Returns the applied estimates, rows as in ``B``, or None when eta = 0.
    """
    X = pop.X
    k = I.shape[0]
    rows = np.concatenate((I, J))
    S = X.take(rows, axis=0)  # the 2k pre-interaction models; pair p is rows (p, k + p)
    G = None
    if eta != 0.0:
        nu = eta / pop.c
        spec, shards, rngs = pop.objective, pop.shards, pop.rngs
        zo = rows < pop.n0
        n_zo = np.count_nonzero(zo)
        if n_zo == 0 or n_zo == 2 * k:  # a single estimator kind
            G, evals = estimate_rows(spec, pop.zo if n_zo else pop.fo, S, rows,
                                     shards, rngs, nu, None if n_zo else B)
        else:  # one call per kind over its rows
            if k == 1:  # one agent of each kind: slices select without copies
                z = 0 if zo[0] else 1
                parts = ((pop.zo, slice(z, z + 1)), (pop.fo, slice(1 - z, 2 - z)))
            else:
                parts = ((pop.zo, zo.nonzero()[0]), (pop.fo, (~zo).nonzero()[0]))
            G = np.empty_like(S)
            evals = 0
            for cfg, sel in parts:
                G[sel], e = estimate_rows(spec, cfg, S[sel], rows[sel], shards, rngs, nu,
                                          None if B is None or cfg is pop.zo else B[sel])
                evals += e
        if pop.M is not None:
            G = pop.M.take(rows, axis=0) * pop.momentum + (1.0 - pop.momentum) * G
            pop.M[rows] = G
        pop.function_evals += evals
        S -= eta * G
    S[:k] += S[k:]
    S[:k] *= 0.5
    S[k:] = S[:k]
    X[rows] = S
    pop.interactions += k
    return G


def draw_pairs(rng, n, steps):
    """``steps`` unordered pairs (I[p], J[p]), each uniform over the n (n - 1) / 2
    choices: the draws of ``steps`` scalar pairs ``rng.integers(n)``,
    ``rng.integers(n - 1)``, value for value, from one call on the bounds."""
    if steps == 1:  # two scalar draws cost less than one call on array bounds
        i, j = rng.integers(n), rng.integers(n - 1)
        D = np.array((i, j + (j >= i)))
        return D[:1], D[1:]
    D = rng.integers(0, np.tile((n, n - 1), steps))
    I, J = D[0::2], D[1::2]
    J += J >= I
    return I, J


def draw_matching(rng, n):
    """Uniformly random perfect matching as two index arrays (I, J), pair p
    being (I[p], J[p]); odd n leaves one uniform idle agent."""
    perm = rng.permutation(n)
    k = n // 2
    return perm[0:2 * k:2], perm[1:2 * k:2]


def step_uniform_pair(pop: Population, eta: float, steps: int = 1, weights=None):
    """``steps`` fine-grained steps, in each a uniformly chosen pair interacts.

    Steps that share no agent commute, so the window runs as layers of disjoint
    pairs, one :func:`interact` call per layer, each pair one layer after the last
    earlier pair that shares an agent with it.  Each first-order agent draws the
    minibatch ids of all its estimates in the window in one call.  Every agent
    draws from its own generator, so the numbers are those of the steps one by one.
    With ``weights`` (one per step) it returns the sum over steps p of
    weights[p] (G_I + G_J)[p], the pair's applied estimates: step p moves the
    mean by -eta / n (G_I + G_J)[p].
    """
    n = pop.X.shape[0]
    if n < 2:
        raise ValueError("need at least two agents")
    I, J = draw_pairs(pop.scheduler_rng, n, steps)
    if steps == 1 and weights is None:  # one pair; its agents draw their minibatches in the kernel
        interact(pop, I, J, eta)
        pop.sim_steps += 1
        return
    depth, L = {}, []  # agent -> layers joined so far; per pair, its layer
    for i, j in zip(I.tolist(), J.tolist()):
        l = max(depth.get(i, 0), depth.get(j, 0))
        depth[i] = depth[j] = l + 1
        L.append(l)
    B = None  # the first-order minibatch ids, rows 2p and 2p + 1 for agents I[p] and J[p]
    if eta != 0.0 and pop.fo is not None:
        b = pop.fo.batch_size
        B = np.empty((2 * steps, b), dtype=np.intp)
        A = np.stack((I, J), axis=1).ravel()  # the agents in step order
        for a in depth:
            if a >= pop.n0:
                shard, rows = pop.shards[a], np.flatnonzero(A == a)
                m = shard.shape[0]
                B[rows] = shard if m == b else shard[pop.rngs[a].integers(0, m, (rows.size, b))]
    # sorted by layer, each layer's pairs are a slice; B[s, p] for the agent of side s
    order = np.argsort(L, kind="stable")
    I, J = I[order], J[order]
    if B is not None:
        B = B.reshape(steps, 2, b)[order].transpose(1, 0, 2)
    if weights is not None:
        weights = weights[order]
    drift = None if weights is None else np.zeros(pop.X.shape[1])
    start = 0
    for end in np.cumsum(np.bincount(L)).tolist():
        G = interact(pop, I[start:end], J[start:end], eta,
                     None if B is None else B[:, start:end].reshape(-1, b))
        if drift is not None and G is not None:
            drift += weights[start:end] @ (G[:end - start] + G[end - start:])
        start = end
    pop.sim_steps += steps
    return drift


def step_matching(pop: Population, eta: float) -> None:
    """One simulation step: all pairs of a random perfect matching interact."""
    if pop.X.shape[0] < 2:
        raise ValueError("need at least two agents")
    I, J = draw_matching(pop.scheduler_rng, pop.X.shape[0])
    interact(pop, I, J, eta)
    pop.sim_steps += 1


@dataclass
class RunResult:
    records: list
    population: Population
    weighted_average: np.ndarray | None = None


def run(pop: Population, cfg: PopulationConfig, *, val_features=None, val_labels=None,
        sample_mtg: bool = False, track_weighted_average: bool = False) -> RunResult:
    """Execute cfg.T scheduler steps, recording metrics every
    cfg.metric_cadence steps (plus the initial and final states).

    Validation labels are mapped once, by the objective's training rule.
    With ``track_weighted_average`` (strongly convex objectives only) the
    exponentially weighted average of the pre-step means is maintained; in a
    window its means follow from the first one and the steps' estimates.
    Raises :class:`DivergedError` when a record finds a non-finite model.
    """
    spec = pop.objective
    schedule = cfg.schedule
    step_fn = step_matching if pop.scheduler_mode == RANDOM_MATCHING else step_uniform_pair
    val = None
    if val_features is not None:
        val = _metrics.validation_set(spec, val_features, val_labels)
    wavg = None
    if track_weighted_average:
        if spec.ell <= 0:
            raise ValueError("weighted averaging requires a strongly convex objective")
        wavg = _metrics.WeightedAverageState(dim=spec.d)

    records = []

    def record(step, eta):
        if not np.isfinite(pop.X).all():
            raise DivergedError(f"models are non-finite at step {step}")
        records.append(_metrics.snapshot(pop, step=step, eta=eta, val=val,
                                         mtg_rng=pop.metrics_rng if sample_mtg else None))

    record(0, eta_at(schedule, 0))
    n, T, cadence = pop.n, cfg.T, cfg.metric_cadence
    # uniform_pair runs whole record intervals when no step needs its own eta
    window = step_fn is step_uniform_pair and schedule.mode == "constant"
    t = 0
    while t < T:
        eta = eta_at(schedule, t)
        steps = min(cadence - t % cadence, T - t) if window else 1
        mu = None if wavg is None else np.add.reduce(pop.X, axis=0) / n  # the (first) pre-step mean
        weight = 1.0
        if not window:
            step_fn(pop, eta)
        elif wavg is None:
            step_uniform_pair(pop, eta, steps)
        else:
            v, u = _metrics.window_weights(eta, spec.ell, n, steps)
            weight = v.sum()
            mu = weight * mu - eta / n * step_uniform_pair(pop, eta, steps, u)
        if wavg is not None:
            _metrics.weighted_average_update(wavg, mu, eta, spec.ell, n, weight, steps)
        t += steps
        if t % cadence == 0 or t == T:
            record(t, eta)
    return RunResult(records=records, population=pop,
                     weighted_average=None if wavg is None else wavg.value())
