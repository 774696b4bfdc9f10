"""Population dynamics: pair scheduling and interactions.

The models of all n agents are the rows of one (n, d) array.  An
interaction between two agents applies one local estimator step each (at
the pre-interaction models), then replaces both models with their average.
Two schedulers are provided: ``uniform_pair`` draws one unordered pair per
fine-grained step, ``random_matching`` pairs all agents via a uniformly
random perfect matching per step (one agent idles when n is odd).  Both run
the same kernel, :func:`interact`, over k disjoint pairs: k = 1 for
``uniform_pair``, k = n // 2 for ``random_matching``.

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


def interact(pop: Population, I, J, eta: float) -> None:
    """The disjoint pairs (I[p], J[p]) interact at once: every agent takes
    one local estimator step from its pre-interaction model, then both agents
    of a pair adopt the average of their stepped models.

    The estimates of each estimator kind come from one call over all its
    agents.  Momentum filters each estimate through the agent's persistent
    buffer (g <- m g + (1 - m) G); buffers are never exchanged.  eta = 0
    degenerates to pure gossip averaging and skips the estimator calls.
    """
    X = pop.X
    k = I.shape[0]
    rows = np.concatenate((I, J))
    S = X.take(rows, axis=0)  # the 2k pre-interaction models; pair p is rows (p, k + p)
    if eta != 0.0:
        nu = eta / pop.c
        spec, shards, rngs = pop.objective, pop.shards, pop.rngs
        zo = rows < pop.n0
        n_zo = np.count_nonzero(zo)
        if n_zo == 0 or n_zo == 2 * k:  # a single estimator kind
            G, evals = estimate_rows(spec, pop.zo if n_zo else pop.fo, S, rows,
                                     shards, rngs, nu)
        else:  # one call per kind over its rows
            if k == 1:  # one agent of each kind: slices select without copies
                z = 0 if zo[0] else 1
                parts = ((pop.zo, slice(z, z + 1)), (pop.fo, slice(1 - z, 2 - z)))
            else:
                parts = ((pop.zo, zo), (pop.fo, ~zo))
            G = np.empty_like(S)
            evals = 0
            for cfg, sel in parts:
                G[sel], e = estimate_rows(spec, cfg, S[sel], rows[sel], shards, rngs, nu)
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


def draw_pair(rng, n):
    """Unordered pair uniform over the n (n - 1) / 2 choices."""
    i = rng.integers(n)
    j = rng.integers(n - 1)
    if j >= i:
        j += 1
    return int(i), int(j)


def draw_matching(rng, n):
    """Uniformly random perfect matching as two index arrays (I, J), pair p
    being (I[p], J[p]); odd n leaves one uniform idle agent."""
    perm = rng.permutation(n)
    k = n // 2
    return perm[0:2 * k:2], perm[1:2 * k:2]


def step_uniform_pair(pop: Population, eta: float) -> None:
    """One fine-grained step: a single uniformly chosen pair interacts."""
    if pop.X.shape[0] < 2:
        raise ValueError("need at least two agents")
    pair = np.array(draw_pair(pop.scheduler_rng, pop.X.shape[0]))
    interact(pop, pair[:1], pair[1:], eta)
    pop.sim_steps += 1


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
    exponentially weighted average of the pre-step means is maintained.
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
    n = pop.n
    for t in range(cfg.T):
        eta = eta_at(schedule, t)
        if wavg is not None:
            mu = np.add.reduce(pop.X, axis=0) / n  # the pre-step mean
            _metrics.weighted_average_update(wavg, mu, eta, spec.ell, n)
        step_fn(pop, eta)
        if (t + 1) % cfg.metric_cadence == 0 or t + 1 == cfg.T:
            record(t + 1, eta)
    return RunResult(records=records, population=pop,
                     weighted_average=None if wavg is None else wavg.value())
