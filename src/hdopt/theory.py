"""Empirical verification of the smoothing, second-moment, bias, and
variance-potential bounds, and the default suite of these checks that
``hdo verify`` runs (:func:`default_theory_suite`).

Every check produces a :class:`BoundCheckReport`.  Monte-Carlo checks pass
when measured <= bound + 3 * stderr (the bounds are one-sided population
statements, so the margin covers sampling noise); analytic cases report
stderr = 0 and must hold outright.  Probe points are drawn from a standard
Gaussian centered at the optimum when it is known, otherwise at the origin.
All randomness is derived from the recorded seed (and, for the recursion
check, whose streams are per block of replicas, from its block size), so
re-running a check with its reported seed reproduces the measured value
bit-exactly on one version of the code (other versions may differ in the
last ulp).  Monte-Carlo draws
are made in chunks of 100,000 through one helper, and an objective's
``loss_rows`` evaluates a chunk in cache-sized blocks, so memory is bounded
per block, not by the sample count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import BIASED_KINDS, FIRST_ORDER, ZO_ONE_SIDED, EstimatorConfig
from .metrics import gamma_of, sample_estimates
from .objectives import (
    make_blobs_dataset,
    make_logistic,
    make_nonconvex,
    make_quadratic,
    partition_data,
)
from .protocol import (
    TAG_INIT,
    PopulationConfig,
    Schedule,
    derive_rng,
    draw_pairs,
    fold_seed,
    init_population,
    run,
)

_CHUNK = 100_000
# float64 elements of estimator Gaussians drawn per block of recursion replicas
_REPLICA_BLOCK = 1 << 16
_GRADCHECK_TOL, _GRADCHECK_H = 1e-4, 1e-6  # relative tolerance, finite-difference step


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
        """The fields in order, ``passed`` stored as "pass"."""
        return {"pass" if k == "passed" else k: v for k, v in vars(self).items()}


def _report(name, measured, bound, stderr, samples, seed, **detail):
    return BoundCheckReport(name=name, measured=float(measured), bound=float(bound),
                            stderr=float(stderr), passed=bool(measured <= bound + 3.0 * stderr),
                            samples=int(samples), seed=int(seed), detail=detail)


def probe_points(spec, count, seed):
    """Documented probe rule: standard Gaussian around x_star when known, else 0."""
    rng = derive_rng(seed, 11)
    center = spec.x_star if spec.x_star is not None else np.zeros(spec.d)
    return center + rng.standard_normal((count, spec.d))


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


def _smoothing_check(spec, nu, bound, probes, samples, seed, gradient):
    """The value gap |f_nu(x) - f(x)|, or with ``gradient`` the gradient bias
    ||grad f_nu(x) - grad f(x)||, at the probe whose measured - 3 stderr is
    largest.  Quadratics are exact: the gap is nu^2 tr(A) / 2 at every x and
    the bias 0.  Otherwise probe p estimates E_u[f(x + nu u)], or the smoothed
    gradient by the one-sided identity (scalar stderr sqrt(sum_j var_j / N)),
    by Monte-Carlo from the stream (seed, tag, p)."""
    name, tag = ("smoothing_grad_bias", 17) if gradient else ("smoothing_value_gap", 13)
    if spec.kind == "quadratic":
        exact = 0.0 if gradient else 0.5 * nu * nu * float(spec.lam.sum())
        return _report(name, exact, bound, 0.0, 0, seed, kind=spec.kind, nu=nu, analytic=True)
    worst, worst_se = -1.0, 0.0
    for p, x in enumerate(np.atleast_2d(probes)):
        rng = derive_rng(seed, tag, p)
        f0 = spec.loss(x)

        def draw(size):
            U = rng.standard_normal((size, spec.d))
            f = spec.loss_rows((x + nu * U)[None])[0]
            return ((f - f0) / nu, U) if gradient else (f, None)

        mean, se = _mc_mean(samples, draw)
        value = float(np.linalg.norm(mean - spec.grad(x))) if gradient else abs(mean - f0)
        if value - 3 * se > worst - 3 * worst_se:
            worst, worst_se = value, se
    return _report(name, worst, bound, worst_se, samples, seed,
                   kind=spec.kind, nu=nu, analytic=False)


def check_smoothing_value_gap(spec, nu, probes, samples=10**6, seed=0) -> BoundCheckReport:
    """|f_nu(x) - f(x)| <= nu^2 L d / 2 at every probe."""
    bound = 0.5 * nu * nu * spec.L * spec.d
    return _smoothing_check(spec, nu, bound, probes, samples, seed, gradient=False)


def check_smoothing_grad_bias(spec, nu, probes, samples=10**6, seed=0) -> BoundCheckReport:
    """||grad f_nu(x) - grad f(x)|| <= (nu / 2) L (d + 3)^1.5 at every probe."""
    bound = 0.5 * nu * spec.L * (spec.d + 3) ** 1.5
    return _smoothing_check(spec, nu, bound, probes, samples, seed, gradient=True)


def _zo_sampler(spec, shard, x, nu, rng):
    """draw(size) -> (coeff, U): one-sided estimates coeff[k] U[k] at x over
    single-sample batches drawn from the shard.  The base losses are
    evaluated once per shard id and gathered."""
    shard = np.asarray(shard)
    base = spec.loss_rows(np.broadcast_to(x, (shard.shape[0], 1, spec.d)), shard[:, None])[:, 0]

    def draw(size):
        pick = rng.integers(0, shard.shape[0], size=size)
        U = rng.standard_normal((size, spec.d))
        P = (x + nu * U)[:, None]
        return (spec.loss_rows(P, shard[pick][:, None])[:, 0] - base[pick]) / nu, U

    return draw


def _zo_moment(spec, shard, nu, x, samples, seed, centred):
    """The Monte-Carlo E||G_nu - g||^2 of one-sided estimates over the shard
    at x, against a nu^2 L^2 (d+6)^3 + b (d+4) (||grad f_i||^2 + s_i^2): g = 0
    and (a, b) = (1/2, 2), or with ``centred`` g = grad f_i and (3/2, 4).  s_i^2
    is the exact single-sample gradient variance over the (finite) shard at x."""
    name, tag, a, b = (("zo_variance", 23, 1.5, 4.0) if centred
                       else ("zo_second_moment", 19, 0.5, 2.0))
    x = np.asarray(x, dtype=float)
    grad_i = spec.grad(x, np.asarray(shard))
    s_sq = spec.gradient_variance(x, np.asarray(shard))
    gnorm_sq = float(np.dot(grad_i, grad_i))
    bound = a * nu * nu * spec.L ** 2 * (spec.d + 6) ** 3 + b * (spec.d + 4) * (gnorm_sq + s_sq)
    sample = _zo_sampler(spec, shard, x, nu, derive_rng(seed, tag))

    def draw(size):
        coeff, U = sample(size)
        sq = coeff * coeff * np.sum(U * U, axis=1)
        if centred:  # ||c u - g||^2 expanded through dot products, no (N, d) temporaries
            sq = sq - 2.0 * coeff * (U @ grad_i) + gnorm_sq
        return sq, None

    mean, se = _mc_mean(samples, draw)
    return _report(name, mean, bound, se, samples, seed, kind=spec.kind, nu=nu, s_sq=s_sq)


def check_zo_second_moment(spec, shard, nu, x, samples=200_000, seed=0) -> BoundCheckReport:
    """E||G_nu||^2 <= nu^2 L^2 (d+6)^3 / 2 + 2 (d+4) (||grad f_i||^2 + s_i^2)."""
    return _zo_moment(spec, shard, nu, x, samples, seed, centred=False)


def check_zo_variance_bound(spec, shard, nu, x, samples=200_000, seed=0) -> BoundCheckReport:
    """E||G_nu - grad f_i||^2 <= 3 nu^2 L^2 (d+6)^3 / 2 + 4 (d+4) (||grad f_i||^2 + s_i^2)."""
    return _zo_moment(spec, shard, nu, x, samples, seed, centred=True)


def check_bias_aggregate(pop, nu, samples=200_000, seed=0) -> BoundCheckReport:
    """Population-average estimator bias B <= (nu n0 / 2n) L (d+3)^1.5.

    Each zeroth-order agent's bias is the norm of (Monte-Carlo mean estimate
    minus its exact shard gradient); first-order agents contribute 0.
    """
    spec, (cfg, _, n, _) = pop.objective, pop.units[0]
    n0, zo = cfg.n0, cfg.zo
    bound = nu * n0 / (2.0 * n) * spec.L * (spec.d + 3) ** 1.5
    biases, ses = [], []
    zo_rows = range(n0) if n0 and zo.kind in BIASED_KINDS else ()
    for i in zo_rows:
        rng = derive_rng(seed, 29, i)
        x, shard = pop.flat[i], pop.shards[i]
        mean_vec, se = _mc_mean(samples, _zo_sampler(spec, shard, x, nu, rng))
        biases.append(float(np.linalg.norm(mean_vec - spec.grad(x, shard))))
        ses.append(se)
    measured = sum(biases) / n
    se = math.sqrt(sum(s * s for s in ses)) / n if ses else 0.0
    return _report("bias_aggregate", measured, bound, se, samples, seed,
                   n0=n0, n=n, nu=nu)


def expected_gamma_pure_averaging(models) -> float:
    """Exact E[Gamma_{t+1}] for one eta = 0 uniform-pair step: enumeration
    over all n (n - 1) / 2 pair choices."""
    models = np.asarray(models, dtype=float)
    n = models.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            work = models.copy()
            work[i] = work[j] = 0.5 * (work[i] + work[j])
            total += float(gamma_of(work))
    return total / (n * (n - 1) // 2)


def check_gamma_pure_averaging(models, seed=0) -> BoundCheckReport:
    """E[Gamma_{t+1}] = (n - 2) / (n - 1) Gamma_t for one eta = 0 uniform-pair
    step from the models (n, d), to 1e-12, by exact enumeration."""
    models = np.asarray(models, dtype=float)
    n = models.shape[0]
    gamma_t = float(gamma_of(models))
    exact = gamma_t * (n - 2) / (n - 1)
    gap = abs(expected_gamma_pure_averaging(models) - exact)
    return _report(f"gamma_pure_averaging_n{n}", gap, 1e-12, 0.0, n * (n - 1) // 2, seed,
                   gamma_t=gamma_t, exact=exact)


def check_gamma_recursion(pop, eta, replicas=2000, seed=0) -> BoundCheckReport:
    """E[Gamma_{t+1}] <= (1 - 1/2n) Gamma_t + (4/n) eta^2 E[M_t^G] from a
    frozen one-seed population, one uniform-pair step per replica.

    The replicas run in blocks of about _REPLICA_BLOCK Gaussian elements, so
    the block size k follows from n and zo.input_shape(d).  Block b draws from
    the stream (seed, 31, b) its k pairs (:func:`draw_pairs`), then k fresh
    estimates per agent (:func:`sample_estimates`).  Replica r steps its pair
    (I, J) as :func:`interact` does, with the estimates G[r, I] and G[r, J],
    and its M^G sums the squared norms of G[r]: each estimate is independent
    of the pair, so sharing them changes neither E[Gamma_{t+1}] nor E[M^G].
    The stderr is that of Gamma_r - (4/n) eta^2 M_r over the replicas, the
    difference the pass rule compares.  At eta = 0 the pair only averages,
    and a population of a biased zeroth-order kind samples no M^G
    (:func:`sample_estimates` returns None; ``mean_mtg`` None).
    """
    if len(pop.units) != 1:
        raise ValueError(f"check_gamma_recursion needs one seed, got S = {len(pop.units)}")
    n, d = pop.flat.shape
    X0, M0, cfg = pop.flat, pop.M, pop.units[0].cfg
    gamma_t = float(gamma_of(X0))
    size = math.prod(cfg.zo.input_shape(d)) if cfg.n0 else d
    block = min(replicas, max(1, _REPLICA_BLOCK // (n * size)))
    gammas, mtgs = np.empty(replicas), np.zeros(replicas)
    for start in range(0, replicas, block):
        k = min(block, replicas - start)
        rng = derive_rng(seed, 31, start // block)
        pair = np.column_stack(draw_pairs(rng, n, k))
        S = X0[pair]  # the pair's pre-interaction models, stepped as interact does
        G = sample_estimates(pop, [rng], k, eta)
        if G is not None:
            mtgs[start:start + k] = np.square(G).sum(axis=(1, 2)) / n
            if eta != 0:
                Gp = G[np.arange(k)[:, None], pair]
                if M0 is not None:
                    Gp = M0[pair] * cfg.momentum + (1.0 - cfg.momentum) * Gp
                S -= eta * Gp
        Xn = np.broadcast_to(X0, (k, n, d)).copy()
        Xn[np.arange(k)[:, None], pair] = ((S[:, 0] + S[:, 1]) * 0.5)[:, None]
        gammas[start:start + k] = gamma_of(Xn)
    coef = 4.0 / n * eta * eta
    bound = (1.0 - 1.0 / (2.0 * n)) * gamma_t
    mean_mtg = None
    if G is not None:  # every block samples, or none does
        mean_mtg = float(mtgs.mean())
        bound += coef * mean_mtg
    se = float((gammas - coef * mtgs).std(ddof=1)) / math.sqrt(replicas)
    return _report("gamma_recursion", gammas.mean(), bound, se, replicas, seed,
                   gamma_t=gamma_t, eta=eta, mean_mtg=mean_mtg, n=n)


def check_gradcheck_all(spec, points=100, seed=0) -> BoundCheckReport:
    """Central finite differences of the full loss vs the analytic gradient.

    The 2 d shifted points of every probe are evaluated in one loss_rows call.
    """
    h = _GRADCHECK_H
    probes = probe_points(spec, points, seed)
    steps = h * np.eye(spec.d)
    shifted = np.stack([probes[:, None, :] + steps, probes[:, None, :] - steps], axis=1)
    vals = spec.loss_rows(shifted.reshape(1, -1, spec.d))[0].reshape(points, 2, spec.d)
    fd = (vals[:, 0] - vals[:, 1]) / (2.0 * h)
    G = spec.grad_rows(probes)
    rel = np.linalg.norm(fd - G, axis=1) / np.maximum(np.linalg.norm(G, axis=1), 1e-10)
    return _report(f"gradcheck_{spec.kind}", float(rel.max()), _GRADCHECK_TOL, 0.0, points,
                   seed, h=h)


# ---------------------------------------------------------------------------
# the default suite


def _suite_quadratic(seed):
    return make_quadratic(d=10, cond=10.0, seed=seed, n_samples=64,
                          grad_noise=1.0, hessian_jitter=0.5)


def _suite_population(quad, seed, eta):
    """The suite's hybrid population on its quadratic, de-synchronized by a
    short run."""
    cfg = PopulationConfig(n0=4, n1=4, schedule=Schedule(eta_max=eta),
                           zo=EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=4, rv=4),
                           fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=4))
    x0 = derive_rng(seed, 59, TAG_INIT).standard_normal(quad.d)
    pop = init_population(cfg, quad, [partition_data(quad.n_samples, 4, 4, fold_seed(seed, 47))],
                          [x0], [fold_seed(seed, 53)], T=30, scheduler_mode="uniform_pair",
                          metric_cadence=10**9)
    run(pop)
    return pop


def default_theory_suite(options=None):
    """Build and run the default verification suite, with ``options`` (the
    config's ``theory`` section) over the defaults below; returns the reports.
    Each objective's checks run at nu = eta / sqrt(d) * nu_scale and carry its
    kind as a name suffix; the population checks use nu = eta / c * nu_scale."""
    opts = {"seed": 7, "probes": 3, "smoothing_samples": 10**6,
            "mc_samples": 100_000, "recursion_replicas": 1500,
            "nu_scale": 1.0, "eta": 0.1}
    opts.update(options or {})
    seed, eta, scale = int(opts["seed"]), float(opts["eta"]), float(opts["nu_scale"])
    smoothing, mc = int(opts["smoothing_samples"]), int(opts["mc_samples"])

    quad = _suite_quadratic(seed)
    data = make_blobs_dataset(100, 5, fold_seed(seed, 41), separation=2.0)
    logistic = make_logistic(data, lam=0.1)
    reports = [check_gradcheck_all(spec, seed=seed)
               for spec in (quad, logistic, make_nonconvex(data))]

    for spec in (quad, logistic):
        nu = eta / math.sqrt(spec.d) * scale
        probes = probe_points(spec, int(opts["probes"]), seed)
        shard = np.arange(spec.n_samples // 2)
        checks = [check_smoothing_value_gap(spec, nu, probes, smoothing, seed),
                  check_smoothing_grad_bias(spec, nu, probes, smoothing, seed),
                  check_zo_second_moment(spec, shard, nu, probes[0], mc, seed),
                  check_zo_variance_bound(spec, shard, nu, probes[0], mc, seed)]
        for report in checks:
            report.name += f"_{spec.kind}"
        reports += checks

    pop = _suite_population(quad, seed, eta)
    reports.append(check_bias_aggregate(pop, eta / pop.c * scale, mc, seed))
    reports.append(check_gamma_recursion(pop, eta, int(opts["recursion_replicas"]), seed))
    rng = derive_rng(seed, 43)
    reports += [check_gamma_pure_averaging(rng.standard_normal((n, 4)), seed) for n in (3, 4, 5)]
    return reports


def write_report(path, reports) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([r.to_dict() for r in reports], fh, indent=2)
        fh.write("\n")


def format_report_line(report: BoundCheckReport) -> str:
    tag = "PASS" if report.passed else "FAIL"
    return (f"[{tag}] {report.name}: measured={report.measured:.6g} "
            f"bound={report.bound:.6g} stderr={report.stderr:.3g} "
            f"samples={report.samples} seed={report.seed}")
