"""Analysis quantities and experiment metrics over population snapshots.

The variance potential reported as ``gamma`` is the mean squared distance of
agent models from the population mean; ``mt_g`` is the mean squared norm of
one fresh gradient estimate per agent.  All functions here are read-only
over a stack of units and work on it as a whole, with one value per unit:
a sum over a unit's agents runs over its block's (k, n, d) models
(``pop.blocks``), so it rounds as it does for that unit alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .estimators import BIASED_KINDS, draw_row_inputs, estimate_groups, group_rows


class MetricsRecord(NamedTuple):
    """One CSV row, fields in column order.  Every field is a Python int,
    float or None, so that its ``repr`` is the CSV field."""

    step: int
    parallel_time: float
    eta: float
    gamma: float
    mu_loss_gap: float | None
    grad_norm_sq_mu: float
    mean_val_loss: float | None
    mean_val_acc: float | None
    mt_g: float | None
    function_evals_total: int


CSV_COLUMNS = MetricsRecord._fields


def gamma_of(X):
    """Variance potential (1/n) sum_i ||X_i - mu||^2 of the models X (n, d),
    or one per population of a stack X (..., n, d)."""
    centered = X - X.mean(axis=-2, keepdims=True)
    return (centered * centered).sum(axis=-1).mean(axis=-1)


def sample_estimates(pop, rngs, k, eta):
    """k fresh estimates per agent at the current models, (k, N, d): G[r, g]
    is global row g's r-th.  Unit u's agents draw all their inputs from the
    stream ``rngs[u]``, agent by agent, by the loop a run draws with
    (:func:`~hdopt.estimators.draw_row_inputs`, given each agent's unit
    stream as both its id and its direction stream): the ids of the agent's
    k estimates, then their Gaussians.  The estimates of all units come from
    one :func:`~hdopt.estimators.estimate_groups` call, over the agent-major
    rows ordered by estimator group once (:func:`~hdopt.estimators.group_rows`,
    the rows that make no estimate last) and put back in agent-major order
    after.  ``eta`` is one rate,
    or one per unit.  The biased kinds smooth at radius nu = eta / c, which
    does not exist at eta = 0: a unit with agents of a biased zeroth-order
    kind then draws nothing and its rows of G are NaN; when no unit draws,
    this returns None.  Callers pass streams
    that no other code draws, so diagnostics never perturb the optimization
    trajectory."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim and (eta == eta[0]).all():
        eta = eta[0]
    skip = (eta <= 0) & np.array([u.cfg.n0 > 0 and u.cfg.zo.kind in BIASED_KINDS
                                  for u in pop.units])
    if skip.all():
        return None
    N, d = pop.flat.shape
    A = np.repeat(np.arange(N), k)  # agent-major rows
    A[skip.take(pop.unit).repeat(k)] = -1
    order, (slices,) = group_rows(pop, A)
    A = A[order]
    nu = (eta.take(pop.unit)[:, None] if eta.ndim else eta) / pop.c
    if type(nu) is np.ndarray:
        nu = nu.repeat(k, axis=0)[order]
    unit_streams = [rngs[u] for u in pop.unit.tolist()]  # per agent, its unit's stream
    B, U = draw_row_inputs(pop, A, (unit_streams, unit_streams))
    by_group = np.full((A.shape[0], d), np.nan)
    estimate_groups(pop.objective, slices, pop.flat.take(A, axis=0), B, U, nu, by_group)
    return by_group[order.argsort()].reshape(N, k, d).swapaxes(0, 1)


def _blocks(pop, rows):
    """Per-row values (N, d) in ``pop.blocks``, each block as (k, n, d)."""
    return [rows[a:b].reshape(-1, n, rows.shape[1]) for a, b, n in pop.blocks]


def unit_means(pop):
    """Each unit's mean model, (units, d), as ``X.mean(axis=1)`` rounds it."""
    return np.concatenate([X.mean(axis=1) for X in _blocks(pop, pop.flat)])


def window_weights(etas, ell, n):
    """Weights for folding the pre-step means mu_0..mu_{k-1} of k steps at
    rates ``etas`` into their exponentially weighted average (convex-only):
    (r.prod(), v.sum(), etas * u), r_s = 1 - eta_s ell / 2n.  The weights
    w_t = prod_{s<=t} r_s^(-1) grow geometrically, so the average y is kept
    as (q, y), q = sum_t w_t / w_last; mu_t weighs v[t] = prod_{s>t} r_s in
    the window, u[s] = sum_{t>s} v[t], and the window folds in as
    q = q r.prod() + v.sum(), y += (sum_t v[t] mu_t - v.sum() y) / q."""
    if ell <= 0:
        raise ValueError("weighted averaging is defined only for ell > 0")
    r = 1.0 - np.asarray(etas) * ell / (2.0 * n)
    if not ((0.0 < r) & (r <= 1.0)).all():
        raise ValueError("eta * ell / (2 n) must lie in [0, 1)")
    v = np.cumprod(np.concatenate(([1.0], r[:0:-1])))[::-1]
    u = np.cumsum(np.concatenate(([0.0], v[:0:-1])))[::-1]
    return r.prod(), v.sum(), etas * u


def validation_set(spec, features, labels):
    """(features, targets) for :meth:`Objective.validate`: the labels mapped
    once by the objective's training rule."""
    features = np.asarray(features, dtype=float)
    if features.shape[0] == 0:
        raise ValueError("validation set must be non-empty")
    if features.ndim != 2 or features.shape[1] != spec.d:
        raise ValueError(f"the validation set has {features.shape[-1]} feature columns, "
                         f"the objective's d is {spec.d}")
    return features, spec.targets(np.asarray(labels, dtype=float))


def snapshot(pop, step, eta, val=None, mtg_rngs=None) -> list:
    """The metrics records of the current state of a stack, one per unit, in
    stack order; ``eta`` is the rate (one, or one per unit), ``val`` a
    :func:`validation_set` and ``mtg_rngs`` the units' streams for ``mt_g``.
    The units' means go through one ``grad_rows`` call and, when the optimum
    is known, one ``loss_rows`` call; validation runs unit by unit, over its
    (n, d) models.  A unit's parallel time is its share of the stack's
    interactions over its n."""
    spec, units = pop.objective, pop.units
    eta = np.zeros(len(units)) + eta  # one per unit
    mu = unit_means(pop)
    gaps = [None] * len(units) if spec.f_star is None else (
        spec.loss_rows(mu[:, None])[:, 0] - spec.f_star).tolist()
    g = spec.grad_rows(mu)
    norms = (g[:, None] @ g[:, :, None])[:, 0, 0].tolist()  # np.dot's rounding, row by row
    valid = [(None, None)] * len(units) if val is None else [
        spec.validate(pop.flat[u.start:u.start + u.n], *val) for u in units]
    G = None if mtg_rngs is None else sample_estimates(pop, mtg_rngs, 1, eta)
    mtgs = [None] * len(units) if G is None else [
        None if v != v else v for v in np.concatenate([  # NaN: a unit that drew nothing
            np.sum((X * X).reshape(X.shape[0], -1), axis=1) / X.shape[1]
            for X in _blocks(pop, G[0])]).tolist()]
    pairs = pop.pairs.tolist()
    per_step = sum(pairs)
    return [MetricsRecord(step=int(step), parallel_time=pop.interactions * m // per_step / u.n,
                          eta=e, gamma=gamma, mu_loss_gap=gap, grad_norm_sq_mu=norm,
                          mean_val_loss=loss, mean_val_acc=None if acc != acc else acc,
                          mt_g=mtg, function_evals_total=evals)
            for u, m, e, gamma, gap, norm, (loss, acc), mtg, evals in
            zip(units, pairs, eta.tolist(),
                np.concatenate([gamma_of(X) for X in _blocks(pop, pop.flat)]).tolist(),
                gaps, norms, valid, mtgs, np.add.reduceat(pop.evals, pop.starts).tolist())]


# ---------------------------------------------------------------------------
# CSV plumbing


def _line(values):
    """A CSV line: None and NaN are empty fields, any other value its repr."""
    return ",".join(["" if v is None or v != v else repr(v) for v in values]) + "\n"


def write_metrics_csv(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(map(_line, records))


def aggregate_seeds(series_list):
    """Pointwise mean and standard error across aligned metric series.

    ``series_list`` holds per-seed record lists.  Returns
    (steps, mean matrix, stderr matrix) over the non-step columns; stderr is
    the sample standard deviation over seeds divided by sqrt(k), zero for a
    single series and NaN for a column with an infinite value.
    """
    if not series_list:
        raise ValueError("need at least one series")
    mats = [np.array(s, dtype=float) for s in series_list]  # None is NaN
    steps = mats[0][:, 0]
    for m in mats[1:]:
        if m.shape != mats[0].shape or not np.array_equal(m[:, 0], steps):
            raise ValueError("series have misaligned steps")
    stack = np.stack([m[:, 1:] for m in mats])  # (k, T, cols)
    mean = stack.mean(axis=0)
    if stack.shape[0] == 1:
        stderr = np.zeros_like(mean)
    else:
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN stderr, an empty field
            stderr = stack.std(axis=0, ddof=1) / math.sqrt(stack.shape[0])
    return steps.astype(int), mean, stderr


def write_aggregate_csv(path, steps, mean, stderr) -> None:
    cols = ["step"]
    for name in CSV_COLUMNS[1:]:
        cols += [f"{name}_mean", f"{name}_stderr"]
    body = np.empty((mean.shape[0], 2 * mean.shape[1]))
    body[:, 0::2], body[:, 1::2] = mean, stderr
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(_line([step, *row]) for step, row in zip(steps.tolist(), body.tolist()))
