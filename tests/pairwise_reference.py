"""The per-pair simulator that the array kernel replaced, kept as a trajectory
oracle for the kernel tests.

Every agent holds its own model and momentum buffer; an interaction makes
two single-agent estimates, one per agent, and averages the pair.  A
matching step runs its pairs one after another.  Metrics are computed agent
by agent.  The seeding is the library's: the same (seed, purpose tag, agent)
streams, drawn in the same order, so a run here and a run of
``hdopt.protocol.run`` from the same config follow the same trajectory up to
floating-point rounding.  An agent draws its minibatch ids from its stream
(seed, TAG_AGENT, i) and, when zeroth-order, its Gaussians from
(seed, TAG_AGENT, i, 1): rv directions for a biased kind, or the rv + d
numbers (v, then z) from which a forward estimate is formed; an mt_g
estimate draws both, ids first, from the metrics stream.
"""

from dataclasses import dataclass

import numpy as np

from hdopt.estimators import FIRST_ORDER, ZO_CENTRAL, ZO_ONE_SIDED
from hdopt.protocol import (
    RANDOM_MATCHING,
    TAG_AGENT,
    TAG_METRICS,
    TAG_SCHEDULER,
    derive_rng,
    eta_at,
)


def draw_batch(shard, batch_size, rng):
    m = shard.shape[0]
    if batch_size == m:
        return shard
    return shard[rng.integers(0, m, size=batch_size)]


def estimate_first_order(spec, shard, x, batch_size, rng):
    batch = draw_batch(shard, batch_size, rng)
    return spec.grad(x, batch), int(batch.shape[0])


def estimate_zo_one_sided(spec, shard, x, cfg, rng, dir_rng, nu):
    batch = draw_batch(shard, cfg.batch_size, rng)
    U = dir_rng.standard_normal((cfg.rv, spec.d))
    points = np.empty((cfg.rv + 1, spec.d))
    points[0] = x
    np.multiply(U, nu, out=points[1:])
    points[1:] += x
    vals = spec.loss_rows(points[None], batch[None])[0]
    return ((vals[1:] - vals[0]) / nu) @ U / cfg.rv, int(batch.shape[0]) * (cfg.rv + 1)


def estimate_zo_central(spec, shard, x, cfg, rng, dir_rng, nu):
    batch = draw_batch(shard, cfg.batch_size, rng)
    U = dir_rng.standard_normal((cfg.rv, spec.d))
    points = np.empty((2 * cfg.rv, spec.d))
    np.multiply(U, nu, out=points[:cfg.rv])
    np.multiply(U, -nu, out=points[cfg.rv:])
    points += x
    vals = spec.loss_rows(points[None], batch[None])[0]
    vec = ((vals[:cfg.rv] - vals[cfg.rv:]) / (2.0 * nu)) @ U / cfg.rv
    return vec, int(batch.shape[0]) * 2 * cfg.rv


def estimate_zo_unbiased_forward(spec, shard, x, cfg, rng, dir_rng, nu):
    """(1/rv) W g for W = sum_k u_k u_k^T, from its law
    c g + sqrt(c) (|g| z - (z . g) g / |g|), c = |v|^2."""
    batch = draw_batch(shard, cfg.batch_size, rng)
    w = dir_rng.standard_normal(cfg.rv + spec.d)
    v, z = w[:cfg.rv], w[cfg.rv:]
    g = spec.grad(x, batch)
    c, norm = float(v @ v), float(np.sqrt(g @ g))
    vec = c * g if norm == 0.0 else c * g + np.sqrt(c) * (norm * z - (z @ g) / norm * g)
    return vec / cfg.rv, int(batch.shape[0]) * cfg.rv


def estimate(spec, shard, x, cfg, rng, dir_rng, nu):
    """(estimate vector, function evaluations) of one agent: minibatch ids
    from ``rng``, directions from ``dir_rng``."""
    if cfg.kind == FIRST_ORDER:
        return estimate_first_order(spec, shard, x, cfg.batch_size, rng)
    fn = {ZO_ONE_SIDED: estimate_zo_one_sided, ZO_CENTRAL: estimate_zo_central}.get(
        cfg.kind, estimate_zo_unbiased_forward)
    return fn(spec, shard, x, cfg, rng, dir_rng, nu)


@dataclass
class Agent:
    model: np.ndarray
    estimator: object
    shard: np.ndarray
    rng: np.random.Generator
    dir_rng: np.random.Generator | None  # zeroth-order agents only
    momentum_buffer: np.ndarray


def hdo_interact(spec, a, b, eta, c, momentum=0.0):
    """One pairwise interaction; returns the function evaluations it made."""
    xa, xb = a.model, b.model
    if eta == 0.0:
        avg = 0.5 * (xa + xb)
        evals = 0
    else:
        nu = eta / c
        ga, ea = estimate(spec, a.shard, xa, a.estimator, a.rng, a.dir_rng, nu)
        gb, eb = estimate(spec, b.shard, xb, b.estimator, b.rng, b.dir_rng, nu)
        if momentum > 0.0:
            for agent, g in ((a, ga), (b, gb)):
                agent.momentum_buffer *= momentum
                agent.momentum_buffer += (1.0 - momentum) * g
            ga, gb = a.momentum_buffer.copy(), b.momentum_buffer.copy()
        evals = ea + eb
        avg = 0.5 * ((xa - eta * ga) + (xb - eta * gb))
    a.model = avg
    b.model = avg.copy()
    return evals


class RefPopulation:
    def __init__(self, cfg, spec, partition, x0, seed, scheduler_mode):
        shards = list(partition.zo_shards) + list(partition.fo_shards)
        self.spec = spec
        self.agents = [Agent(model=np.array(x0, dtype=float),
                             estimator=cfg.zo if i < cfg.n0 else cfg.fo,
                             shard=np.asarray(shards[i]),
                             rng=derive_rng(seed, TAG_AGENT, i),
                             dir_rng=derive_rng(seed, TAG_AGENT, i, 1) if i < cfg.n0 else None,
                             momentum_buffer=np.zeros(spec.d))
                       for i in range(cfg.n0 + cfg.n1)]
        self.c = cfg.c if cfg.c is not None else np.sqrt(spec.d)
        # no smoothing radius at eta = 0 for these: their mt_g is empty there
        self.biased = cfg.n0 > 0 and cfg.zo.kind in (ZO_ONE_SIDED, ZO_CENTRAL)
        self.momentum = cfg.momentum
        self.mode = scheduler_mode
        self.scheduler_rng = derive_rng(seed, TAG_SCHEDULER)
        self.metrics_rng = derive_rng(seed, TAG_METRICS)
        self.interactions = 0
        self.function_evals = 0

    def models(self):
        return np.array([a.model for a in self.agents])

    def pair(self, i, j, eta):
        self.function_evals += hdo_interact(self.spec, self.agents[i], self.agents[j],
                                            eta, self.c, self.momentum)
        self.interactions += 1

    def step(self, eta):
        n = len(self.agents)
        rng = self.scheduler_rng
        if self.mode == RANDOM_MATCHING:
            perm = rng.permutation(n)
            for p in range(n // 2):
                self.pair(int(perm[2 * p]), int(perm[2 * p + 1]), eta)
        else:
            i = int(rng.integers(n))
            j = int(rng.integers(n - 1))
            self.pair(i, j + 1 if j >= i else j, eta)

    def mtg(self, eta):
        nu = eta / self.c if eta > 0 else None
        total = 0.0
        for a in self.agents:
            g, _ = estimate(self.spec, a.shard, a.model, a.estimator, self.metrics_rng,
                            self.metrics_rng, nu)
            total += float(np.dot(g, g))
        return total / len(self.agents)

    def validation(self, features, labels):
        """Per-agent loss and accuracy, averaged over the agents."""
        spec = self.spec
        if spec.kind == "quadratic":
            return float(np.mean([spec.loss(a.model) for a in self.agents])), None
        y = spec.targets(labels)
        losses, accs = [], []
        for a in self.agents:
            z = features @ a.model
            losses.append(float(np.mean(spec._g(y * z))))
            accs.append(float(np.mean(np.where(z >= 0, 1.0, -1.0) == y)))
        return float(np.mean(losses)), float(np.mean(accs))

    def record(self, step, eta, val):
        spec = self.spec
        models = self.models()
        mu = models.mean(axis=0)
        centered = models - mu
        grad_mu = spec.grad(mu)
        loss, acc = (None, None) if val is None else self.validation(*val)
        return (step, self.interactions / len(self.agents), eta,
                float(np.mean(np.sum(centered * centered, axis=1))),
                None if spec.f_star is None else float(spec.loss(mu) - spec.f_star),
                float(np.dot(grad_mu, grad_mu)), loss, acc,
                self.mtg(eta) if eta > 0 or not self.biased else None, self.function_evals)


def reference_run(cfg, spec, partition, x0, seed, val=None, *, T, scheduler_mode,
                  metric_cadence):
    """Metric rows, in CSV column order, of the per-pair run of cfg at
    ``seed`` for T steps of ``scheduler_mode``, recorded every
    ``metric_cadence`` steps, mt_g sampled (as by ``run(..., sample_mtg=True)``)."""
    pop = RefPopulation(cfg, spec, partition, x0, seed, scheduler_mode)
    rows = [pop.record(0, eta_at(cfg.schedule, 0), val)]
    for t in range(T):
        eta = eta_at(cfg.schedule, t)
        pop.step(eta)
        if (t + 1) % metric_cadence == 0 or t + 1 == T:
            rows.append(pop.record(t + 1, eta, val))
    return rows, pop
