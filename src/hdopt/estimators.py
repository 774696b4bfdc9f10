"""Gradient-estimator oracles used by agents.

Four kinds are provided:

* ``first_order``          - minibatch stochastic gradient.
* ``zo_biased_one_sided``  - (F(x + nu u) - F(x)) / nu * u, Gaussian u.
* ``zo_biased_central``    - (F(x + nu u) - F(x - nu u)) / (2 nu) * u.
* ``zo_unbiased_forward``  - (u . grad F) u via a directional-derivative pass.

The biased kinds estimate the gradient of the Gaussian-smoothed batch loss;
the forward kind is unbiased for the batch gradient itself.  Estimates that
average ``rv`` Gaussian directions share a single minibatch per call and
divide by ``rv`` (plain mean).  ``function_evals`` counts zeroth-order
function evaluations, with one first-order gradient costed at batch_size
evaluations (a simulator convention for cost-normalized plots).

:func:`estimate_rows` computes the estimates of k agents of one kind at
once, with one row-batched objective call, from inputs drawn beforehand:
minibatch ids and, for the zeroth-order kinds, Gaussian directions.  It
draws nothing itself.  :func:`draw_inputs` makes one estimate's inputs from
one stream, and :func:`estimate_gradient` is the single-agent form that
draws them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIRST_ORDER = "first_order"
ZO_ONE_SIDED = "zo_biased_one_sided"
ZO_CENTRAL = "zo_biased_central"
ZO_FORWARD = "zo_unbiased_forward"

ESTIMATOR_KINDS = (FIRST_ORDER, ZO_ONE_SIDED, ZO_CENTRAL, ZO_FORWARD)
BIASED_KINDS = (ZO_ONE_SIDED, ZO_CENTRAL)


@dataclass(frozen=True)
class EstimatorConfig:
    kind: str
    batch_size: int = 1
    rv: int = 1
    nu: float | None = None  # smoothing radius; usually coupled to eta at call time

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.rv < 1:
            raise ValueError("rv must be >= 1")
        if self.nu is not None and self.nu <= 0:
            raise ValueError("nu must be positive when given")


@dataclass
class GradientEstimate:
    vector: np.ndarray
    kind: str
    function_evals: int


def check_shard(shard, batch_size):
    """The shard as an ndarray, checked to hold at least batch_size ids."""
    shard = np.asarray(shard)
    if shard.shape[0] == 0:
        raise ValueError("shard must be non-empty")
    if batch_size > shard.shape[0]:
        raise ValueError("batch_size exceeds shard size")
    return shard


def _resolve_nu(cfg, nu):
    nu = cfg.nu if nu is None else nu
    if type(nu) is np.ndarray:  # one radius per row, from interact's per-pair rates
        if (nu <= 0).any():
            raise ValueError("biased zeroth-order estimators need nu > 0")
        return nu[:, :, None]
    if nu is None or nu <= 0:
        raise ValueError("biased zeroth-order estimators need nu > 0")
    return float(nu)


def estimate_rows(spec, cfg: EstimatorConfig, Xr, B, U=None, nu=None):
    """Estimates of kind cfg.kind for k rows: row r is estimated at the model
    Xr[r] over the minibatch of sample ids B[r] (batch_size of them) and, for
    the zeroth-order kinds, the rv Gaussian directions U[r] (U is (k, rv, d)).
    Returns (estimates (k, d), total function evals).

    The k estimates come from one row-batched objective call.  ``nu`` is one
    smoothing radius, or a (k, 1) column of one per row; only the biased
    kinds read it.
    """
    k = Xr.shape[0]
    b, rv = cfg.batch_size, cfg.rv
    if cfg.kind == FIRST_ORDER:
        return spec.grad_rows(Xr, B), k * b
    if cfg.kind == ZO_FORWARD:
        # sum over directions of (u . grad F) u, the directional derivatives
        # standing in for a forward-mode pass
        g = spec.grad_rows(Xr, B)[:, :, None]
        return (U.transpose(0, 2, 1) @ (U @ g))[..., 0] / rv, k * b * rv
    # one objective call evaluates the rv points x + nu u after the points
    # they are differenced with: x - nu u (central) or x once (one-sided)
    nu = _resolve_nu(cfg, nu)
    central = cfg.kind == ZO_CENTRAL
    sub = rv if central else 1
    P = np.empty((k, sub + rv, Xr.shape[1]))
    np.multiply(U, nu, out=P[:, sub:])
    if central:
        np.negative(P[:, sub:], out=P[:, :sub])
    else:
        P[:, 0] = 0.0
    P += Xr[:, None]
    vals = spec.loss_rows(P, B)
    coef = (vals[:, sub:] - vals[:, :sub])[:, None, :] / (2.0 * nu if central else nu)
    return (coef @ U)[:, 0] / rv, k * b * (sub + rv)


def draw_inputs(cfg: EstimatorConfig, shard, rng, d):
    """One estimate's inputs from one stream: its minibatch ids (i.i.d.
    uniform over the shard, or the whole shard when batch_size equals its
    size) as a (1, batch_size) array, then for the zeroth-order kinds its
    (1, rv, d) Gaussian directions (None for first order)."""
    m, b = shard.shape[0], cfg.batch_size
    B = (shard if m == b else shard[rng.integers(0, m, size=b)])[None]
    return B, None if cfg.kind == FIRST_ORDER else rng.standard_normal((1, cfg.rv, d))


def estimate_gradient(spec, shard, x, cfg: EstimatorConfig, rng, nu=None) -> GradientEstimate:
    """One agent's estimate at x from the inputs :func:`draw_inputs` draws
    from ``rng``; ``nu`` overrides cfg.nu for the biased kinds."""
    shard = check_shard(shard, cfg.batch_size)
    X = np.asarray(x, dtype=float)[None, :]
    G, evals = estimate_rows(spec, cfg, X, *draw_inputs(cfg, shard, rng, X.shape[1]), nu)
    return GradientEstimate(vector=G[0], kind=cfg.kind, function_evals=evals)
