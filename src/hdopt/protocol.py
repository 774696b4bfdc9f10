"""Population dynamics: pair scheduling and interactions.

The models of S seeds of n agents form one (S, n, d) array, run as one
simulation.  An interaction between two agents of a seed applies one local
estimator step each (at the pre-interaction models), then replaces both
models with their average.
Two schedulers are provided: ``uniform_pair`` draws one unordered pair per
fine-grained step, ``random_matching`` pairs all agents via a uniformly
random perfect matching per step (one agent idles when n is odd).  They
differ only in how a window's pairs are drawn and layered: both run the
kernel, :func:`interact`, once per layer of a window's disjoint pairs.

Clock conventions: a seed's interactions count its pairwise interactions
(fine-grained time), its parallel time is interactions / n, and a matching
step counts as one simulation step but n // 2 interactions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import (FIRST_ORDER, EstimatorConfig, check_shard, draw_row_inputs,
                         estimate_rows)
from . import metrics as _metrics

UNIFORM_PAIR = "uniform_pair"
RANDOM_MATCHING = "random_matching"
SCHEDULER_MODES = (UNIFORM_PAIR, RANDOM_MATCHING)

# purpose tags for deriving per-stream seeds from one master seed
TAG_AGENT = 1
TAG_SCHEDULER = 2
TAG_METRICS = 3
TAG_INIT = 4

# a window draws the inputs of all its estimates ahead; one whose zeroth-order
# Gaussians would exceed this many float64 elements per seed (8 MB) runs as
# sub-windows
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
    T: int = 1
    scheduler_mode: str = UNIFORM_PAIR
    momentum: float = 0.0
    c: float | None = None  # nu = eta / c; defaults to sqrt(d)
    metric_cadence: int = 10
    zo: EstimatorConfig | None = None
    fo: EstimatorConfig | None = None
    label: str = ""

    def __post_init__(self):
        if self.n0 < 0 or self.n1 < 0 or self.n0 + self.n1 < 2:
            raise ValueError("need n0, n1 >= 0 with n0 + n1 >= 2")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.scheduler_mode not in SCHEDULER_MODES:
            raise ValueError(f"unknown scheduler mode {self.scheduler_mode!r}")
        if self.c is not None and not 0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.metric_cadence < 1:
            raise ValueError("metric_cadence must be >= 1")
        if self.n0 > 0 and self.zo is None:
            raise ValueError("n0 > 0 requires a zeroth-order estimator config")
        if self.n1 > 0 and self.fo is None:
            raise ValueError("n1 > 0 requires a first-order estimator config")
        if (self.zo and self.zo.kind == FIRST_ORDER) or (self.fo and self.fo.kind != FIRST_ORDER):
            raise ValueError("zo needs a zeroth-order kind and fo the first-order kind")


class DivergedError(RuntimeError):
    """Raised when seed ``seed`` of a run's stack has non-finite models or metrics."""

    def __init__(self, message, seed=0):
        super().__init__(message)
        self.seed = seed


@dataclass
class Population:
    """S seeds of n = cfg.n0 + cfg.n1 agents: seed s's agent i has the model
    X[s, i], global row g = s n + i of the (S n, d) view ``flat``.  Agent g
    owns ``shards[g]``, has made ``evals[g]`` function evaluations and uses
    the estimator ``groups[group[g]]``, at ``cost[g]`` evaluations an estimate
    (the one table of both): ``cfg.zo`` for agents i < n0, ``cfg.fo`` for the
    others.  Seed s's agent i draws minibatch ids from the stream
    (seeds[s], TAG_AGENT, i), ``rngs[g]``, and, when zeroth-order, directions
    from (seeds[s], TAG_AGENT, i, 1), ``dir_rngs[s n0 + i]``; the seed draws
    pairs from (seeds[s], TAG_SCHEDULER), ``scheduler_rngs[s]``, and metrics
    samples from (seeds[s], TAG_METRICS), ``metrics_rngs[s]``.  ``c`` is
    cfg.c, or sqrt(d) when that is None.  ``M`` holds the momentum buffers
    (row g for agent g) when momentum > 0; ``interactions`` counts the pairs
    of all seeds."""

    cfg: PopulationConfig
    objective: object
    X: np.ndarray
    shards: list
    seeds: list
    M: np.ndarray | None = None
    evals: np.ndarray | None = None
    interactions: int = 0

    def __post_init__(self):
        cfg, n0, n = self.cfg, self.cfg.n0, self.cfg.n0 + self.cfg.n1
        self.X = np.ascontiguousarray(self.X, dtype=float)
        S, d = self.X.shape[0], self.objective.d
        if not (self.X.shape == (S, n, d) and len(self.seeds) == S and len(self.shards) == S * n):
            raise ValueError("need (S, n0 + n1, d) models of the objective's d, a seed value "
                             "per seed and a shard per agent")
        self.n, self.flat = n, self.X.reshape(S * n, d)
        self.c = cfg.c if cfg.c is not None else math.sqrt(d)
        self.rngs = [derive_rng(s, TAG_AGENT, i) for s in self.seeds for i in range(n)]
        self.dir_rngs = [derive_rng(s, TAG_AGENT, i, 1) for s in self.seeds for i in range(n0)]
        self.scheduler_rngs = [derive_rng(s, TAG_SCHEDULER) for s in self.seeds]
        self.metrics_rngs = [derive_rng(s, TAG_METRICS) for s in self.seeds]
        self.groups = [est for est, m in ((cfg.zo, n0), (cfg.fo, cfg.n1)) if m]
        # per global row, its index into groups (fo's is 1 when zo has agents) and its cost
        self.group = np.tile((np.arange(n) >= n0) & (n0 > 0), S).astype(np.intp)
        self.cost = np.array([est.evals for est in self.groups]).take(self.group)
        self.shards = [check_shard(shard, self.groups[g].batch_size)
                       for g, shard in zip(self.group.tolist(), self.shards)]
        self.evals = np.zeros(S * n, dtype=np.int64) if self.evals is None else self.evals
        if cfg.momentum > 0.0 and self.M is None:
            self.M = np.zeros_like(self.flat)

    def __getstate__(self):  # a copy's flat must view the copy's X
        return {**self.__dict__, "flat": None}

    def __setstate__(self, state):
        self.__dict__.update(state, flat=state["X"].reshape(-1, state["X"].shape[2]))


def init_population(cfg: PopulationConfig, spec, partitions, X0, seeds) -> Population:
    """One stack of the seeds ``seeds``, in order: seed s's agents all start
    at X0[s] and own the shards of partitions[s]; agents 0..n0-1 are
    zeroth-order, the rest first-order (streams: :class:`Population`)."""
    if any(len(p.zo_shards) != cfg.n0 or len(p.fo_shards) != cfg.n1 for p in partitions):
        raise ValueError("partition shard counts do not match n0 / n1")
    X = np.repeat(np.asarray(X0, dtype=float)[:, None], cfg.n0 + cfg.n1, axis=1)
    return Population(cfg, spec, X, [x for p in partitions for x in (*p.zo_shards, *p.fo_shards)],
                      seeds)


def interact(pop: Population, rows, eta, B=None, U=None):
    """The k disjoint pairs (rows[p], rows[k + p]) of global rows interact at
    once: every agent takes one local estimator step from its pre-interaction
    model, then both agents of a pair adopt the average of their stepped
    models.

    ``eta`` is one rate for every pair, or a (2k, 1) column of one positive
    rate per row, both rows of a pair at the pair's rate; an agent's
    smoothing radius is nu = eta / c.  The estimates of each estimator group
    (``pop.group``) come from one call over its rows, from inputs drawn
    beforehand (:func:`draw_row_inputs`): row r, for agent ``rows[r]``,
    estimates over the minibatch ids in the leading columns of B[r] and, when
    zeroth-order, the directions U[r].  Momentum filters each estimate
    through the agent's persistent buffer (g <- m g + (1 - m) G); buffers are
    never exchanged.  eta = 0 is pure gossip averaging and reads no input.
    Returns the applied estimates, rows as in ``rows``, or None when eta = 0,
    and counts no evaluations.
    """
    X = pop.flat
    k = rows.shape[0] // 2
    S = X.take(rows, axis=0)  # the 2k pre-interaction models
    per_pair = type(eta) is np.ndarray
    G = None
    if per_pair or eta != 0.0:
        nu = eta / pop.c
        spec, group = pop.objective, pop.group.take(rows)
        for g, cfg in enumerate(pop.groups):
            sel = (group == g).nonzero()[0]
            if sel.shape[0] == 2 * k:  # the group covers every row: no copies
                G = estimate_rows(spec, cfg, S, B[:, :cfg.batch_size], U, nu)
                break
            if sel.shape[0]:
                G = np.empty_like(S) if G is None else G
                G[sel] = estimate_rows(spec, cfg, S[sel], B[sel, :cfg.batch_size],
                                       U[sel] if cfg is pop.cfg.zo else None,
                                       nu[sel] if per_pair else nu)
        if pop.M is not None:
            G = pop.M.take(rows, axis=0) * pop.cfg.momentum + (1.0 - pop.cfg.momentum) * G
            pop.M[rows] = G
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
    """``len(etas)`` steps of ``pop.cfg.scheduler_mode`` on every seed, step t
    at rate etas[t], each seed drawing the window's pairs with one call on
    its own stream (:func:`draw_pairs` or :func:`draw_matching`).

    Disjoint pairs commute, so the window runs as layers of them, one
    :func:`interact` each, layer l being the union of the seeds' layers l:
    a matching step is a layer, and a ``uniform_pair`` pair goes one layer
    after the last earlier pair sharing an agent with it (one at rate 0
    among nonzero ones in a layer of its own).  Layers run at the window's
    one rate, or at a column of per-row rates when its steps' rates differ.
    The inputs of every estimate come from one :func:`draw_row_inputs` call
    ahead of the layers: each agent draws in one call the minibatch ids of
    its nonzero-rate steps, and a zeroth-order agent their Gaussians in
    another.  Each stream draws nothing else, so the numbers are those of
    the steps one by one, seed by seed.  The window's kernel rows form one
    array: the layer of pairs [s, e) is rows [2s, 2e), whose inputs are
    B[2s:2e] and U[2s:2e].  ``pop.evals`` adds the window's estimates at
    once.  A window whose Gaussians (two ``zo.input_shape(d)`` per pair)
    would exceed _WINDOW_DIRECTIONS per seed runs as sub-windows of as many
    steps as fit (at least one), their drifts summed; their length does not
    depend on S, so each seed of a stack gets the numbers of its run alone.
    With ``weights`` (one per step) it returns, row s for seed s,
    sum_p weights[t] (G_I + G_J)[p] over the seed's pairs p, t being p's
    step, which moves the seed's mean by -etas[t] / n (G_I + G_J)[p].
    """
    S, n, d = pop.X.shape  # n >= 2, by the population's config
    etas = np.asarray(etas, dtype=float)
    steps = etas.shape[0]
    uniform = pop.cfg.scheduler_mode == UNIFORM_PAIR
    m = 1 if uniform else n // 2  # a seed's pairs per step
    if pop.cfg.n0:
        h = max(1, _WINDOW_DIRECTIONS // (2 * m * math.prod(pop.cfg.zo.input_shape(d))))
        if steps > h:
            drifts = [step_window(pop, etas[t:t + h], None if weights is None else weights[t:t + h])
                      for t in range(0, steps, h)]
            return None if weights is None else sum(drifts)
    # seed by seed, each seed's pairs in step order, in global rows
    draw = draw_pairs if uniform else draw_matching
    I, J = map(np.concatenate, zip(*[draw(rng, n, steps) for rng in pop.scheduler_rngs]))
    shift = np.arange(0, S * n, n).repeat(steps * m)
    I, J = I.ravel() + shift, J.ravel() + shift
    T = np.arange(S * steps * m) // m % steps  # per drawn pair, its step
    L = T  # a matching step is a layer
    if uniform:
        depth, L = [0] * (S * n), [0] * I.shape[0]  # per agent, layers joined; per pair, its layer
        for p, (i, j) in enumerate(zip(I.tolist(), J.tolist())):
            l = depth[i] if depth[i] > depth[j] else depth[j]
            depth[i] = depth[j] = l + 1
            L[p] = l
        L = np.asarray(L)
    mixed = not (etas == etas[0]).all()
    if mixed:  # a pair at rate 0 among nonzero ones goes in a layer of its own
        L = np.unique(2 * L + (etas == 0.0)[T], return_inverse=True)[1]
    # sorted by layer, a layer's pairs are a slice, seed by seed; an agent's
    # stay in step order
    order = L.argsort(kind="stable")
    I, J, P = I[order], J[order], T[order]  # P: per pair, its step
    counts = np.bincount(L)
    ends = counts.cumsum()
    # the window's rows: the layer of pairs [s, e) is rows [2s, 2e), I[s:e], then J[s:e]
    at = np.arange(I.shape[0]) + (ends - counts).repeat(counts)
    at = np.concatenate((at, at + counts.repeat(counts)))
    rows = np.empty_like(at)
    rows[at] = np.concatenate((I, J))
    rate = float(etas[0])  # every layer's, unless mixed
    B = U = None
    if mixed or rate:
        A = rows
        if mixed:  # R: per row, its pair's rate, as a column
            R = np.empty((rows.shape[0], 1))
            R[at, 0] = etas[np.concatenate((P, P))]
            A = np.where(R[:, 0] != 0.0, rows, -1)  # a row at rate 0 draws nothing
        pop.evals += np.bincount(A + 1, minlength=S * n + 1)[1:] * pop.cost  # once per window
        B, U = draw_row_inputs(pop, A)
    drift = None if weights is None else np.zeros((S, d))
    start = 0
    for end in ends.tolist():
        eta = rate if not mixed else R[2 * start:2 * end] if R[2 * start, 0] else 0.0
        G = interact(pop, rows[2 * start:2 * end], eta,
                     None if B is None else B[2 * start:2 * end],
                     None if U is None else U[2 * start:2 * end])
        if drift is not None and G is not None:  # pair by pair, in each seed's order
            np.add.at(drift, rows[2 * start:start + end] // n,
                      weights[P[start:end], None] * (G[:end - start] + G[end - start:]))
        start = end
    return drift


@dataclass
class RunResult:
    records: list  # per seed, its records
    weighted_average: np.ndarray | None = None  # (S, d), row s for seed s


def run(pop: Population, *, val_features=None, val_labels=None, sample_mtg: bool = False,
        track_weighted_average: bool = False) -> RunResult:
    """Execute pop.cfg.T scheduler steps on every seed, one :func:`step_window`
    per record interval, recording each seed's metrics every
    pop.cfg.metric_cadence steps (plus the initial and final states), at the
    rates of pop.cfg.schedule.

    Validation labels are mapped once, by the objective's training rule.
    One :func:`~hdopt.metrics.snapshot` of the whole stack records every seed.
    With ``sample_mtg`` each record samples ``mt_g``, seed s from its stream
    ``pop.metrics_rngs[s]`` (:func:`~hdopt.metrics.sample_estimates`, which
    samples none at eta = 0 in a population of a biased zeroth-order kind).
    With ``track_weighted_average`` (strongly convex objectives only) each
    seed's weighted average of the pre-step means is kept in the ratio form
    (q, avg) of :func:`~hdopt.metrics.window_weights` (None when T = 0); a
    window's means follow from its first one and the steps' estimates.  Raises :class:`DivergedError` for the first seed in stack
    order whose record finds a non-finite model, or a non-finite gamma,
    loss gap, gradient norm or validation loss.
    """
    spec, cfg = pop.objective, pop.cfg
    val = None
    if val_features is not None:
        val = _metrics.validation_set(spec, val_features, val_labels)
    S, n = pop.X.shape[:2]
    q, avg = 0.0, np.zeros((S, spec.d)) if track_weighted_average and cfg.T else None
    records = [[] for _ in range(S)]

    def record(step, eta):
        finite = np.isfinite(pop.X).all(axis=(1, 2))
        recs = _metrics.snapshot(pop, step, eta, val, pop.metrics_rngs if sample_mtg else None)
        for s, rec in enumerate(recs):
            if not finite[s]:
                raise DivergedError(f"models are non-finite at step {step}", s)
            # 0 * v is 0 for a finite v and NaN otherwise, so the sum cannot overflow
            if not math.isfinite(0.0 * rec.gamma + 0.0 * rec.grad_norm_sq_mu + 0.0
                                 * (rec.mu_loss_gap or 0.0) + 0.0 * (rec.mean_val_loss or 0.0)):
                raise DivergedError(f"metrics are non-finite at step {step}", s)
            records[s].append(rec)

    T, cadence = cfg.T, cfg.metric_cadence
    # an overflow leaves an inf or a NaN, which record reports as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, eta_at(cfg.schedule, 0))
        for t in range(0, T, cadence):
            etas = eta_at(cfg.schedule, np.arange(t, min(t + cadence, T)))
            if avg is None:
                step_window(pop, etas)
            else:
                prod, weight, w = _metrics.window_weights(etas, spec.ell, n)
                mu = weight * (np.add.reduce(pop.X, axis=1) / n)  # from the first pre-step means
                mu -= step_window(pop, etas, w) / n
                q = q * prod + weight
                avg += (mu - weight * avg) / q
            record(t + etas.shape[0], etas[-1])
    return RunResult(records, avg)
