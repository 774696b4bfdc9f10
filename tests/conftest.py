"""Shared test oracles, kept independent of the library code paths they check."""

import numpy as np
import pytest


def central_diff_gradient(f, x, h=1e-6):
    """Central finite differences of a scalar function, component by component."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for k in range(x.shape[0]):
        e = np.zeros_like(x)
        e[k] = h
        g[k] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def vector_mc_stats(samples):
    """(mean vector, scalar stderr) for rows of Monte-Carlo vector draws.

    The scalar stderr is sqrt(sum_j var_j / N), the norm-level margin used
    throughout the bound checks.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    var = samples.var(axis=0, ddof=1)
    return mean, float(np.sqrt(var.sum() / n))


def read_metrics_csv(path):
    """(column names, float matrix with NaN for empty fields) of a metrics CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    rows = [[float(p) if p else float("nan") for p in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.asarray(rows, dtype=float)


def stack_models(pop):
    """A stack's models as (units, n, d), a view of ``pop.flat``, when every
    unit has the same n."""
    if len(pop.blocks) != 1:
        raise ValueError("the units of this stack differ in n; their models are flat")
    return pop.flat.reshape(len(pop.units), pop.units[0].n, -1)


def scalar_mc_stats(values):
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
