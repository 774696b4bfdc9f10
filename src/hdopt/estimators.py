"""Gradient-estimator oracles used by agents.

Four kinds are provided:

* ``first_order``          - minibatch stochastic gradient.
* ``zo_biased_one_sided``  - (F(x + nu u) - F(x)) / nu * u, Gaussian u.
* ``zo_biased_central``    - (F(x + nu u) - F(x - nu u)) / (2 nu) * u.
* ``zo_unbiased_forward``  - (u . grad F) u via a directional-derivative pass.

The biased kinds estimate the gradient of the Gaussian-smoothed batch loss;
the forward kind is unbiased for the batch gradient itself.  Estimates that
average ``rv`` Gaussian directions share a single minibatch per call and
divide by ``rv`` (plain mean).  The forward kind draws its mean (1/rv) W g,
W = sum_k u_k u_k^T, from the exact law W g = c g + sqrt(c) (|g| z -
(z . g) g / |g|), c = |v|^2, v ~ N(0, I_rv), z ~ N(0, I_d): rv + d normals,
not rv d.  :attr:`EstimatorConfig.evals` is the cost of one estimate in
function evaluations, one first-order gradient costed at batch_size
evaluations (a simulator convention for cost-normalized plots).

:func:`estimate_rows` computes the estimates of k agents of one kind at
once, with one row-batched objective call, from inputs drawn beforehand
by :func:`draw_row_inputs`: minibatch ids and, for the zeroth-order kinds,
Gaussians (:meth:`EstimatorConfig.input_shape`).  It draws nothing itself.
:func:`group_rows` orders the kernel rows of a population's stack by
estimator group, and :func:`estimate_groups` sends each group's contiguous
slice of them to its estimator, one :func:`estimate_rows` call each.
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

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.rv < 1:
            raise ValueError("rv must be >= 1")

    @property
    def evals(self) -> int:
        """Function evaluations of one estimate, a gradient costing batch_size."""
        b, rv = self.batch_size, self.rv
        return b * {ZO_FORWARD: rv, ZO_ONE_SIDED: rv + 1, ZO_CENTRAL: 2 * rv}.get(self.kind, 1)

    def input_shape(self, d) -> tuple:
        """The shape of one zeroth-order estimate's Gaussian inputs at dimension
        d: the forward kind's rv + d numbers (v, z), or rv directions."""
        return (self.rv + d,) if self.kind == ZO_FORWARD else (self.rv, d)


def check_shard(shard, batch_size):
    """The shard as an ndarray, checked to hold at least batch_size ids."""
    shard = np.asarray(shard)
    if shard.shape[0] == 0:
        raise ValueError("shard must be non-empty")
    if batch_size > shard.shape[0]:
        raise ValueError("batch_size exceeds shard size")
    return shard


def estimate_rows(spec, cfg: EstimatorConfig, Xr, B, U=None, nu=None):
    """Estimates of kind cfg.kind for k rows: row r is estimated at the model
    Xr[r] over the minibatch of sample ids B[r] (batch_size of them) and, for
    the zeroth-order kinds, the Gaussians U[r] (``cfg.input_shape(d)``): a
    biased kind's rv directions, or the forward kind's (v, z), whose estimate
    is 0 where the batch gradient is.  Returns the estimates (k, d); one
    costs ``cfg.evals`` function evaluations.

    The k estimates come from one row-batched objective call.  ``nu`` is one
    smoothing radius, or a (k, 1) column of one per row; only the biased
    kinds read it.
    """
    rv = cfg.rv
    if cfg.kind == FIRST_ORDER:
        return spec.grad_rows(Xr, B)
    if cfg.kind == ZO_FORWARD:
        # the law of sum_k (u_k . g) u_k, the directional derivatives of a
        # forward-mode pass, as a g + b z; a zero |g| divides by 1 instead
        g = spec.grad_rows(Xr, B)
        c = (U[:, None, :rv] @ U[:, :rv, None])[:, 0]
        gs, e = g, 0
        if not np.maximum.reduce(np.abs(g), axis=None, initial=0.0) < 2.0**500:  # or NaN
            e = np.maximum(np.frexp(np.maximum.reduce(np.abs(g), axis=1)[:, None])[1] - 500, 0)
            gs = np.ldexp(g, -e)  # g . g may overflow: rows past 2^500 scaled by 2^-e, exactly
        norm = np.ldexp((gs[:, None] @ gs[:, :, None])[:, 0] ** 0.5, e)
        z = U[:, rv:rv + Xr.shape[1]]
        zg = (z[:, None] @ g[:, :, None])[:, 0] / (norm + (norm == 0.0))
        s = c ** 0.5 / rv
        return (c / rv - s * zg) * g + s * norm * z
    if type(nu) is np.ndarray:  # one radius per row
        if (nu <= 0).any():
            raise ValueError("biased zeroth-order estimators need nu > 0")
        nu = nu[:, :, None]
    elif nu is None or nu <= 0:
        raise ValueError("biased zeroth-order estimators need nu > 0")
    # one objective call evaluates the rv points x + nu u after the points
    # they are differenced with: x - nu u (central) or x once (one-sided)
    central = cfg.kind == ZO_CENTRAL
    sub = rv if central else 1
    P = np.empty((Xr.shape[0], sub + rv, Xr.shape[1]))
    np.multiply(U, nu, out=P[:, sub:])
    if central:
        np.negative(P[:, sub:], out=P[:, :sub])
    else:
        P[:, 0] = 0.0
    P += Xr[:, None]
    vals = spec.loss_rows(P, B)
    coef = (vals[:, sub:] - vals[:, :sub])[:, None, :] / (2.0 * nu if central else nu)
    return (coef @ U)[:, 0] / rv


def estimate_groups(spec, slices, S, B, U, nu, G):
    """Writes to G the estimates of kernel rows at the models S, one
    :func:`estimate_rows` call per entry (cfg, g, a, b, ua, ub) of
    ``slices``: rows a:b use the estimator cfg, group g's minibatch ids
    B[g][ua:ub] and, when zeroth-order, its Gaussians U[g][ua:ub]
    (:func:`group_rows` plans the slices, :func:`draw_row_inputs` draws B
    and U).  ``nu`` is one smoothing radius, or a column of one per row; rows
    in no slice are left as they are."""
    per_row = type(nu) is np.ndarray
    for cfg, g, a, b, ua, ub in slices:
        G[a:b] = estimate_rows(spec, cfg, S[a:b], B[g][ua:ub], U[g] if U[g] is None
                               else U[g][ua:ub], nu[a:b] if per_row else nu)


def _group_rank(pop, A):
    """Per kernel row whose agent is the global row A[r] (-1: none), its row
    of its estimator group's arrays in :func:`draw_row_inputs`, which hold a
    group's rows in their order in A: the number of earlier rows of A in its
    group.  Also returns each group's count of rows, then the -1 rows'."""
    n = len(pop.groups)
    key = pop.group.take(A)
    key[A < 0] = n
    order = key.argsort(kind="stable")
    counts = np.bincount(key, minlength=n + 1)
    rank = np.empty_like(order)
    rank[order] = np.arange(A.shape[0]) - (counts.cumsum() - counts).repeat(counts)
    return rank, counts


def group_rows(pop, A, seg=0, segments=1):
    """The kernel rows whose agents are the global rows ``A`` (-1 for a row
    that makes no estimate), in segments ``seg`` (0..segments - 1, per row,
    or 0), ordered by estimator group for :func:`estimate_groups`:
    (order, slices).  A[order] holds segment 0's rows, then segment 1's, and
    so on, each segment's rows group by group in the order of ``pop.groups``
    and the -1 rows last, a group's rows in their order in A.  slices[s]
    lists, for each group g with rows in segment s, (cfg, g, a, b, ua, ub):
    its estimator, its index, its rows a:b counted from the segment's first
    row, and their rows ua:ub of group g's arrays in the (B, U) that
    ``draw_row_inputs(pop, A[order], streams)`` draws."""
    n = len(pop.groups) + 1  # the groups and the -1 rows
    key = pop.group.take(A)
    key[A < 0] = n - 1
    key += seg * n
    order = key.argsort(kind="stable")
    counts = np.bincount(key, minlength=segments * n).reshape(segments, n)
    ends = counts.cumsum().reshape(segments, n)
    starts = ends - counts
    s, g = counts[:, :-1].nonzero()  # the (segment, group) cells that hold rows
    a, b = starts[s, g], ends[s, g]
    ua = _group_rank(pop, A[order])[0][a]
    cells = list(zip(map(pop.groups.__getitem__, g.tolist()), g.tolist(),
                     (a - starts[s, 0]).tolist(), (b - starts[s, 0]).tolist(),
                     ua.tolist(), (ua + b - a).tolist()))
    per = np.bincount(s, minlength=segments).cumsum().tolist()
    return order, [cells[i:j] for i, j in zip([0] + per, per)]


def draw_row_inputs(pop, A, streams):
    """The estimator inputs of kernel rows whose agents are the global rows
    ``A`` of the population's stack, -1 for a row that makes no estimate:
    (B, U), one array each per estimator group of ``pop.groups``.  Row j of
    group g's arrays belongs to the j-th row of A whose agent uses group g
    (:func:`_group_rank`): B[g] (rows, batch_size) holds its minibatch ids
    (i.i.d. uniform over its agent's shard, or the whole shard when
    batch_size equals its size) and U[g] (rows, ``input_shape(d)``) its
    Gaussians, U[g] being None when the group is first-order.

    ``streams`` is (ids, dirs), one stream per agent in each: each agent
    draws the ids of all its rows, in row order, with one call on ids[a],
    then, when zeroth-order, all their Gaussians with one call on dirs[a].
    A run passes ``(pop.rngs, pop.dir_rngs)``, streams that draw nothing
    else, so a run of rows gets the numbers of one draw per row, however the
    rows are split; :func:`~hdopt.metrics.sample_estimates` passes each
    agent's unit stream as both.
    """
    N, d = pop.flat.shape
    rank, counts = _group_rank(pop, A)
    B = [np.empty((m, cfg.batch_size), dtype=np.intp) for cfg, m in zip(pop.groups, counts)]
    U = [None if cfg.kind == FIRST_ORDER else np.empty((m, *cfg.input_shape(d)))
         for cfg, m in zip(pop.groups, counts)]
    ids, dirs = streams
    order = A.argsort(kind="stable")  # the rows by agent, each agent's in row order
    ends = np.bincount(A + 1, minlength=N + 1).cumsum().tolist()  # after the -1 rows
    for a, group in enumerate(pop.group.tolist()):
        start, end = ends[a], ends[a + 1]
        if end > start:
            at = rank[order[start:end]]
            shard, b, u = pop.shards[a], B[group].shape[1], U[group]
            m = shard.shape[0]
            B[group][at] = shard if m == b else shard[ids[a].integers(0, m, (end - start, b))]
            if u is not None:
                u[at] = dirs[a].standard_normal((end - start, *u.shape[1:]))
    return B, U
