"""Empirical verification of the smoothing, second-moment, bias, and
variance-potential bounds.

Every check produces a :class:`BoundCheckReport`.  Monte-Carlo checks pass
when measured <= bound + 3 * stderr (the bounds are one-sided population
statements, so the margin covers sampling noise); analytic cases report
stderr = 0 and must hold outright.  Probe points are drawn from a standard
Gaussian centered at the optimum when it is known, otherwise at the origin.
All randomness is derived from the recorded seed, so re-running a check with
its reported seed reproduces the measured value bit-exactly on one version
of the code (other versions may differ in the last ulp).  Monte-Carlo draws
are made in chunks of 100,000 through one helper, and the margin objectives
evaluate a chunk in cache-sized blocks, so memory is bounded per block, not
by the sample count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import BIASED_KINDS
from .metrics import compute_gamma, compute_mtg
from .protocol import draw_pairs, interact

_CHUNK = 100_000


@dataclass
class BoundCheckReport:
    name: str
    measured: float
    bound: float
    stderr: float
    passed: bool
    samples: int
    seed: int
    detail: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "name": self.name,
            "measured": self.measured,
            "bound": self.bound,
            "stderr": self.stderr,
            "pass": self.passed,
            "samples": self.samples,
            "seed": self.seed,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(name=data["name"], measured=data["measured"], bound=data["bound"],
                   stderr=data["stderr"], passed=data["pass"], samples=data["samples"],
                   seed=data["seed"], detail=data.get("detail", {}))


def _verdict(measured, bound, stderr):
    return bool(measured <= bound + 3.0 * stderr)


def _report(name, measured, bound, stderr, samples, seed, **detail):
    return BoundCheckReport(name=name, measured=float(measured), bound=float(bound),
                            stderr=float(stderr), passed=_verdict(measured, bound, stderr),
                            samples=int(samples), seed=int(seed), detail=detail)


def probe_points(spec, count, seed, scale=1.0):
    """Documented probe rule: Gaussian around x_star when known, else 0."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 11]))
    center = spec.x_star if spec.x_star is not None else np.zeros(spec.d)
    return center + scale * rng.standard_normal((count, spec.d))


def combined_stderr(*errs):
    return math.sqrt(sum(e * e for e in errs))


def _mc_mean(samples, draw):
    """Monte-Carlo mean of ``samples`` draws, made in chunks of at most
    _CHUNK, with its standard error.

    ``draw(size)`` returns (c, U): the draws are the scalars c[k] when U is
    None, else the vectors c[k] U[k], summed as matvecs and given the scalar
    stderr sqrt(sum_j var_j / N).  U is overwritten.
    """
    total = total_sq = 0.0
    done = 0
    while done < samples:
        size = min(_CHUNK, samples - done)
        c, U = draw(size)
        if U is None:
            total += float(c.sum())
            total_sq += float(np.dot(c, c))
        else:
            total = total + c @ U
            total_sq = total_sq + (c * c) @ np.square(U, out=U)
        done += size
    mean = total / samples
    var = np.maximum(total_sq / samples - mean * mean, 0.0)
    return mean, math.sqrt(float(np.sum(var)) / samples)


def mc_smoothed_value(spec, x, nu, samples, rng):
    """Monte-Carlo estimate of E_u[f(x + nu u)] with its stderr."""

    def draw(size):
        return spec.loss_many(x + nu * rng.standard_normal((size, spec.d))), None

    return _mc_mean(samples, draw)


def mc_smoothed_gradient(spec, x, nu, samples, rng):
    """Monte-Carlo estimate of the smoothed full gradient via the one-sided
    identity, with a scalar stderr sqrt(sum_j var_j / N)."""
    f0 = spec.loss(x)

    def draw(size):
        U = rng.standard_normal((size, spec.d))
        return (spec.loss_many(x + nu * U) - f0) / nu, U

    return _mc_mean(samples, draw)


def check_smoothing_value_gap(spec, nu, probes, samples=10**6, seed=0) -> BoundCheckReport:
    """|f_nu(x) - f(x)| <= nu^2 L d / 2 at every probe.

    Quadratics use the exact identity (the gap equals nu^2 tr(A) / 2
    regardless of x); other objectives are estimated by Monte-Carlo.
    """
    bound = 0.5 * nu * nu * spec.L * spec.d
    if spec.kind == "quadratic":
        gap = 0.5 * nu * nu * float(spec.lam.sum())
        return _report("smoothing_value_gap", gap, bound, 0.0, 0, seed,
                       kind=spec.kind, nu=nu, analytic=True)
    worst_gap, worst_se = -1.0, 0.0
    for p, x in enumerate(np.atleast_2d(probes)):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 13, p]))
        f_nu, se = mc_smoothed_value(spec, x, nu, samples, rng)
        gap = abs(f_nu - spec.loss(x))
        if gap - 3 * se > worst_gap - 3 * worst_se:
            worst_gap, worst_se = gap, se
    return _report("smoothing_value_gap", worst_gap, bound, worst_se,
                   samples, seed, kind=spec.kind, nu=nu, analytic=False)


def check_smoothing_grad_bias(spec, nu, probes, samples=10**6, seed=0) -> BoundCheckReport:
    """||grad f_nu(x) - grad f(x)|| <= (nu / 2) L (d + 3)^1.5 at every probe."""
    bound = 0.5 * nu * spec.L * (spec.d + 3) ** 1.5
    if spec.kind == "quadratic":
        # smoothing leaves the gradient of a quadratic unchanged
        return _report("smoothing_grad_bias", 0.0, bound, 0.0, 0, seed,
                       kind=spec.kind, nu=nu, analytic=True)
    worst, worst_se = -1.0, 0.0
    for p, x in enumerate(np.atleast_2d(probes)):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 17, p]))
        ghat, se = mc_smoothed_gradient(spec, x, nu, samples, rng)
        bias = float(np.linalg.norm(ghat - spec.grad(x)))
        if bias - 3 * se > worst - 3 * worst_se:
            worst, worst_se = bias, se
    return _report("smoothing_grad_bias", worst, bound, worst_se,
                   samples, seed, kind=spec.kind, nu=nu, analytic=False)


def _zo_sampler(spec, shard, x, nu, rng):
    """draw(size) -> (coeff, U): one-sided estimates coeff[k] U[k] at x over
    single-sample batches drawn from the shard.  The base losses are
    evaluated once per shard id and gathered."""
    shard = np.asarray(shard)
    base = spec.loss_pairs(np.broadcast_to(x, (shard.shape[0], spec.d)), shard)

    def draw(size):
        pick = rng.integers(0, shard.shape[0], size=size)
        U = rng.standard_normal((size, spec.d))
        return (spec.loss_pairs(x + nu * U, shard[pick]) - base[pick]) / nu, U

    return draw


def check_zo_second_moment(spec, shard, nu, x, samples=200_000, seed=0) -> BoundCheckReport:
    """E||G_nu||^2 <= nu^2 L^2 (d+6)^3 / 2 + 2 (d+4) (||grad f_i||^2 + s_i^2).

    s_i^2 is the exact single-sample gradient variance over the shard at x
    (finite shard, so no estimation error on the bound side).
    """
    x = np.asarray(x, dtype=float)
    grad_i = spec.grad(x, np.asarray(shard))
    s_sq = spec.gradient_variance(x, np.asarray(shard))
    bound = 0.5 * nu * nu * spec.L ** 2 * (spec.d + 6) ** 3 \
        + 2.0 * (spec.d + 4) * (float(np.dot(grad_i, grad_i)) + s_sq)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 19]))
    sample = _zo_sampler(spec, shard, x, nu, rng)

    def draw(size):
        coeff, U = sample(size)
        return coeff * coeff * np.sum(U * U, axis=1), None

    mean, se = _mc_mean(samples, draw)
    return _report("zo_second_moment", mean, bound, se, samples, seed,
                   kind=spec.kind, nu=nu, s_sq=s_sq)


def check_zo_variance_bound(spec, shard, nu, x, samples=200_000, seed=0) -> BoundCheckReport:
    """E||G_nu - grad f_i||^2 <= 3 nu^2 L^2 (d+6)^3 / 2 + 4 (d+4) (||grad f_i||^2 + s_i^2)."""
    x = np.asarray(x, dtype=float)
    grad_i = spec.grad(x, np.asarray(shard))
    s_sq = spec.gradient_variance(x, np.asarray(shard))
    bound = 1.5 * nu * nu * spec.L ** 2 * (spec.d + 6) ** 3 \
        + 4.0 * (spec.d + 4) * (float(np.dot(grad_i, grad_i)) + s_sq)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 23]))
    sample = _zo_sampler(spec, shard, x, nu, rng)
    gnorm_sq = float(np.dot(grad_i, grad_i))

    def draw(size):
        coeff, U = sample(size)
        # ||c u - g||^2 expanded through dot products, no (N, d) temporaries
        return coeff * coeff * np.sum(U * U, axis=1) \
            - 2.0 * coeff * (U @ grad_i) + gnorm_sq, None

    mean, se = _mc_mean(samples, draw)
    return _report("zo_variance", mean, bound, se, samples, seed,
                   kind=spec.kind, nu=nu, s_sq=s_sq)


def check_bias_aggregate(pop, nu, samples=200_000, seed=0) -> BoundCheckReport:
    """Population-average estimator bias B <= (nu n0 / 2n) L (d+3)^1.5.

    Each zeroth-order agent's bias is the norm of (Monte-Carlo mean estimate
    minus its exact shard gradient); first-order agents contribute 0.
    """
    spec = pop.objective
    n = pop.n
    bound = nu * pop.n0 / (2.0 * n) * spec.L * (spec.d + 3) ** 1.5
    biases = []
    ses = []
    zo_rows = range(pop.n0) if pop.zo is not None and pop.zo.kind in BIASED_KINDS else ()
    for i in zo_rows:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 29, i]))
        x, shard = pop.X[i], pop.shards[i]
        mean_vec, se = _mc_mean(samples, _zo_sampler(spec, shard, x, nu, rng))
        biases.append(float(np.linalg.norm(mean_vec - spec.grad(x, shard))))
        ses.append(se)
    measured = sum(biases) / n
    se = math.sqrt(sum(s * s for s in ses)) / n if ses else 0.0
    return _report("bias_aggregate", measured, bound, se, samples, seed,
                   n0=pop.n0, n=n, nu=nu)


def expected_gamma_pure_averaging(models) -> float:
    """Exact E[Gamma_{t+1}] for one eta = 0 uniform-pair step: enumeration
    over all n (n - 1) / 2 pair choices."""
    models = np.asarray(models, dtype=float)
    n = models.shape[0]
    total = 0.0
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            work = models.copy()
            avg = 0.5 * (work[i] + work[j])
            work[i] = avg
            work[j] = avg
            centered = work - work.mean(axis=0)
            total += float(np.mean(np.sum(centered * centered, axis=1)))
            count += 1
    return total / count


def check_gamma_recursion(spec, pop, eta, replicas=2000, seed=0) -> BoundCheckReport:
    """E[Gamma_{t+1}] <= (1 - 1/2n) Gamma_t + (4/n) eta^2 E[M_t^G] from a
    frozen population, one uniform-pair step per replica.

    E[M_t^G] is itself estimated over the replicas; the pass margin combines
    both standard errors.
    """
    n = pop.n
    gamma_t = compute_gamma(pop)
    work = pop.clone()
    work.objective = spec
    gammas = np.empty(replicas)
    mtgs = np.empty(replicas)
    for r in range(replicas):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 31, r]))
        I, J = draw_pairs(rng, n, 1)
        work.X[:] = pop.X
        if work.M is not None:
            work.M[:] = pop.M
        work.rngs = [rng] * n
        interact(work, I, J, eta)
        gammas[r] = compute_gamma(work)
        mtgs[r] = compute_mtg(pop, eta, rng)
    mean_next = float(gammas.mean())
    se_next = float(gammas.std(ddof=1)) / math.sqrt(replicas)
    mean_mtg = float(mtgs.mean())
    se_mtg = float(mtgs.std(ddof=1)) / math.sqrt(replicas)
    coef = 4.0 / n * eta * eta
    bound = (1.0 - 1.0 / (2.0 * n)) * gamma_t + coef * mean_mtg
    se = combined_stderr(se_next, coef * se_mtg)
    return _report("gamma_recursion", mean_next, bound, se, replicas, seed,
                   gamma_t=gamma_t, eta=eta, mean_mtg=mean_mtg, n=n)


def check_gradcheck_all(spec, points=100, tol=1e-4, h=1e-6, seed=0) -> BoundCheckReport:
    """Central finite differences of the full loss vs the analytic gradient.

    The 2 d shifted points of every probe are evaluated in one loss_many call.
    """
    probes = probe_points(spec, points, seed)
    steps = h * np.eye(spec.d)
    shifted = np.stack([probes[:, None, :] + steps, probes[:, None, :] - steps], axis=1)
    vals = spec.loss_many(shifted.reshape(-1, spec.d)).reshape(points, 2, spec.d)
    fd = (vals[:, 0] - vals[:, 1]) / (2.0 * h)
    G = np.array([spec.grad(x) for x in probes])
    rel = np.linalg.norm(fd - G, axis=1) / np.maximum(np.linalg.norm(G, axis=1), 1e-10)
    return _report(f"gradcheck_{spec.kind}", float(rel.max()), tol, 0.0, points, seed, h=h)


def write_report(path, reports) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2)
        fh.write("\n")


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [BoundCheckReport.from_dict(d) for d in json.load(fh)]


def format_report_line(report: BoundCheckReport) -> str:
    tag = "PASS" if report.passed else "FAIL"
    return (f"[{tag}] {report.name}: measured={report.measured:.6g} "
            f"bound={report.bound:.6g} stderr={report.stderr:.3g} "
            f"samples={report.samples} seed={report.seed}")
