"""Test oracles: for the objective kernels, a linear calibration objective
with exact Gaussian moments and per-sample references written out one
sample at a time, independent of the row-batched kernels they check; for
the estimators, one estimate at a time from one stream; for the
variance-potential recursion check, its replicas run one at a time from
their documented draws; for a metrics record, one seed's fields from the
one-seed formulas; for the weighted average, its direct weights; for the
forward estimator, its literal mean of rv directional derivatives."""

import copy
import math
from dataclasses import dataclass

import numpy as np

from hdopt import theory
from hdopt.estimators import BIASED_KINDS, FIRST_ORDER, ZO_FORWARD, check_shard, estimate_rows
from hdopt.metrics import MetricsRecord, gamma_of
from hdopt.objectives import Objective, _antisymmetric
from hdopt.protocol import draw_pairs, interact, plan_layers
from hdopt.theory import _report

from conftest import stack_models


class LinearObjective(Objective):
    """Linear calibration objective f(x) = a . x with optional per-sample noise.

    The gradient is constant, so any L >= 0 is a valid Lipschitz constant
    (reported as 0).  Used to calibrate estimators where exact Gaussian
    moments are available; not one of the production objective kinds.
    """

    kind = "linear"

    def __init__(self, a, noise: float = 0.0, n_samples: int = 1, seed: int = 0):
        a = np.asarray(a, dtype=float)
        m = int(n_samples)
        if noise > 0:
            m += m % 2
            if m < 2:
                m = 2
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), 5]))
            offsets = noise * _antisymmetric(m // 2, a.shape[0], rng)
        else:
            offsets = np.zeros((max(m, 1), a.shape[0]))
        super().__init__(d=a.shape[0], n_samples=offsets.shape[0], L=0.0, ell=0.0)
        self.a = a
        self.offsets = offsets

    def loss_rows(self, P, B=None):
        return np.einsum("kpd,kd->kp", P, self.grad_rows(P[:, 0], B))

    def grad_rows(self, X, B=None):
        off = self.offsets.mean(axis=0) if B is None else self.offsets[B].mean(axis=1)
        return np.broadcast_to(self.a + off, X.shape).copy()


def _sigmoid(t):
    """sigmoid(t) = exp(-log(1 + exp(-t))), accurate in relative terms for
    every t: 1 - sigmoid(t) is _sigmoid(-t), with no cancellation."""
    return math.exp(-float(np.logaddexp(0.0, -t)))


def sample_loss(spec, x, i):
    """F_i(x), the loss of sample i alone, from the objective's stored data."""
    if spec.kind == "quadratic":
        w = spec.Q.T @ (x - spec.x_star)
        return 0.5 * float(spec.Lam[i] @ (w * w)) - float(spec.Goff[i] @ w)
    if spec.kind == "linear":
        return float((spec.a + spec.offsets[i]) @ x)
    t = float(spec.y[i] * (spec.A[i] @ x))
    if spec.kind == "logistic_l2":
        return float(np.logaddexp(0.0, -t)) + 0.5 * spec.reg * float(x @ x)
    return _sigmoid(-t) ** 2


def sample_grad(spec, x, i):
    """grad F_i(x), from the objective's stored data."""
    if spec.kind == "quadratic":
        w = spec.Q.T @ (x - spec.x_star)
        return spec.Q @ (spec.Lam[i] * w - spec.Goff[i])
    if spec.kind == "linear":
        return spec.a + spec.offsets[i]
    ya = spec.y[i] * spec.A[i]
    t = float(ya @ x)
    if spec.kind == "logistic_l2":
        return -_sigmoid(-t) * ya + spec.reg * x
    return -2.0 * _sigmoid(t) * _sigmoid(-t) ** 2 * ya


def _batches(spec, B, k):
    return [range(spec.n_samples)] * k if B is None else [list(row) for row in B]


def loss_rows_reference(spec, P, B=None):
    """loss_rows by a loop over rows, points and samples."""
    out = np.empty(P.shape[:2])
    for r, ids in enumerate(_batches(spec, B, P.shape[0])):
        for q in range(P.shape[1]):
            out[r, q] = sum(sample_loss(spec, P[r, q], i) for i in ids) / len(ids)
    return out


def grad_rows_reference(spec, X, B=None):
    """grad_rows by a loop over rows and samples."""
    out = np.empty(X.shape)
    for r, ids in enumerate(_batches(spec, B, X.shape[0])):
        out[r] = sum(sample_grad(spec, X[r], i) for i in ids) / len(ids)
    return out


def gaussian_shape(cfg, d):
    """The shape of one zeroth-order estimate's Gaussian inputs at dimension
    d, as the library lays them out: rv + d numbers (v, then z) for the
    forward kind, rv directions for a biased one."""
    return (cfg.rv + d,) if cfg.kind == ZO_FORWARD else (cfg.rv, d)


def forward_literal(G, U):
    """The forward estimates (1/rv) sum_k (u_k . g) u_k of the gradients G
    (k, d) along the directions U (k, rv, d), summed term by term."""
    return sum((U[:, j] * G).sum(axis=1)[:, None] * U[:, j]
               for j in range(U.shape[1])) / U.shape[1]


@dataclass
class GradientEstimate:
    vector: np.ndarray
    kind: str
    function_evals: int


def estimate_gradient(spec, shard, x, cfg, rng, nu=None):
    """One agent's estimate at x, from inputs drawn from ``rng``: its
    minibatch ids (i.i.d. uniform over the shard, or the whole shard when
    batch_size equals its size), then for the zeroth-order kinds its
    Gaussians (:func:`gaussian_shape`).  ``nu`` is the smoothing radius of
    the biased kinds."""
    shard = check_shard(shard, cfg.batch_size)
    X = np.asarray(x, dtype=float)[None, :]
    m, b = shard.shape[0], cfg.batch_size
    B = (shard if m == b else shard[rng.integers(0, m, size=b)])[None]
    U = None if cfg.kind == FIRST_ORDER else rng.standard_normal(
        (1, *gaussian_shape(cfg, X.shape[1])))
    G = estimate_rows(spec, cfg, X, B, U, nu)
    return GradientEstimate(vector=G[0], kind=cfg.kind, function_evals=cfg.evals)


def gamma_recursion_reference(pop, eta, replicas, seed):
    """check_gamma_recursion one replica at a time, read from its documented
    block contract: block b of the replicas draws from the stream
    (seed, 31, b) its pairs, then, when M^G is sampled, agent by agent the
    minibatch ids of the agent's k estimates and then their Gaussians.
    Each replica is then one interact call on a copy of the frozen
    population, its pair planned as one layer by plan_layers, with the
    inputs of its pair's own estimates, gamma_of, and one estimate_rows
    call per agent for M^G.  At eta = 0 a population
    of a biased zeroth-order kind samples no M^G."""
    (cfg, _, n, _), d = pop.units[0], pop.objective.d
    n0, zo, fo = cfg.n0, cfg.zo, cfg.fo
    shape = gaussian_shape(zo, d) if n0 else (d,)
    block = min(replicas, max(1, theory._REPLICA_BLOCK // (n * math.prod(shape))))
    gamma_t = float(gamma_of(pop.flat))
    sample_mtg = eta > 0 or not n0 or zo.kind not in BIASED_KINDS
    nu = eta / pop.c if eta > 0 else None
    work = copy.deepcopy(pop)
    gammas, mtgs = [], []
    for b, start in enumerate(range(0, replicas, block)):
        k = min(block, replicas - start)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 31, b]))
        I, J = draw_pairs(rng, n, k)
        ids, dirs = [], []  # per agent: its k estimates' ids and Gaussians
        for a in range(n if sample_mtg else 0):
            cfg, shard = zo if a < n0 else fo, pop.shards[a]
            m, size = shard.shape[0], cfg.batch_size
            ids.append(np.tile(shard, (k, 1)) if m == size
                       else shard[rng.integers(0, m, (k, size))])
            dirs.append(rng.standard_normal((k, *shape)) if a < n0 else None)
        for r in range(k):
            work.flat[:] = pop.flat
            if work.M is not None:
                work.M[:] = pop.M
            # the pair's rows, ordered as step_window orders a layer's; each
            # estimator group's B and U hold its rows' inputs, in row order
            rows, _, partner, (slices,), _ = plan_layers(work, I[r:r + 1], J[r:r + 1],
                                                         np.array([1]))
            B = U = G = None
            if eta != 0:
                B = [np.zeros((0, c.batch_size), dtype=np.intp) for c in pop.groups]
                U = [None if c.kind == FIRST_ORDER else np.zeros((0, *shape))
                     for c in pop.groups]
                for a in rows.tolist():
                    g = pop.group[a]
                    B[g] = np.concatenate((B[g], ids[a][r][None]))
                    if a < n0:
                        U[g] = np.concatenate((U[g], dirs[a][r][None]))
                G = np.empty((2, d))
            interact(work, rows, partner, eta, slices, B, U, G)
            gammas.append(float(gamma_of(work.flat)))
            if sample_mtg:
                total = 0.0
                for a in range(n):
                    G = estimate_rows(pop.objective, zo if a < n0 else fo,
                                      pop.flat[a:a + 1], ids[a][r:r + 1],
                                      None if dirs[a] is None else dirs[a][r:r + 1], nu)
                    total += float(np.sum(G * G))
                mtgs.append(total / n)
    gammas = np.array(gammas)
    mtgs = np.array(mtgs) if sample_mtg else np.zeros(replicas)
    coef = 4.0 / n * eta * eta
    bound = (1.0 - 1.0 / (2.0 * n)) * gamma_t
    mean_mtg = None
    if sample_mtg:
        mean_mtg = float(mtgs.mean())
        bound += coef * mean_mtg
    se = float((gammas - coef * mtgs).std(ddof=1)) / math.sqrt(replicas)
    return _report("gamma_recursion", float(gammas.mean()), bound, se, replicas, seed,
                   gamma_t=gamma_t, eta=eta, mean_mtg=mean_mtg, n=n)


def snapshot_reference(pop, s, step, eta, val=None):
    """Seed s's metrics record from the formulas of one seed alone, without
    ``mt_g``: ``spec.loss`` and ``spec.grad`` at the seed's mean, the squared
    norm through ``np.dot``, :func:`gamma_of` and ``validate`` over its
    (n, d) models, its summed evaluation counts and its share of the
    stack's interactions over n."""
    spec, (S, n, _) = pop.objective, stack_models(pop).shape
    X = stack_models(pop)[s]
    mu = X.mean(axis=0)
    grad_mu = spec.grad(mu)
    val_loss = val_acc = None
    if val is not None:
        val_loss, val_acc = spec.validate(X, *val)
        if math.isnan(val_acc):
            val_acc = None
    return MetricsRecord(
        step=int(step),
        parallel_time=(pop.interactions // S) / n,
        eta=float(eta),
        gamma=float(gamma_of(X)),
        mu_loss_gap=None if spec.f_star is None else float(spec.loss(mu) - spec.f_star),
        grad_norm_sq_mu=float(np.dot(grad_mu, grad_mu)),
        mean_val_loss=val_loss,
        mean_val_acc=val_acc,
        mt_g=None,
        function_evals_total=int(pop.evals[s * n:(s + 1) * n].sum()),
    )


def weighted_average_reference(mus, etas, ell, n):
    """The exponentially weighted average y = sum_t w_t mu_t / sum_t w_t of
    the pre-step means ``mus`` (T, ...) of T steps at rates ``etas``, from
    the direct weights w_t = prod_{s<=t} (1 - eta_s ell / 2n)^(-1): the
    mean before step t weighs the shrinks of the steps up to t, its own
    included.  The weights are formed as they are, so T must stay small
    enough that they do not overflow (T <= 80 here)."""
    y, total, w = 0.0, 0.0, 1.0
    for mu, eta in zip(mus, etas):
        w /= 1.0 - eta * ell / (2.0 * n)
        y = y + w * np.asarray(mu, dtype=float)
        total += w
    return y / total
