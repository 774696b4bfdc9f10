"""Finite-sum objectives with analytic stochastic gradients and known constants.

Each objective exposes per-sample losses F_k indexed by integer sample ids, so
that minibatch losses/gradients are exact means over the chosen ids.  All
objectives publish a gradient-Lipschitz constant ``L`` (conservative where a
tight value is awkward), a strong-convexity constant ``ell`` (0 for the
non-convex kind), and, when known, the optimum ``x_star`` / ``f_star``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# float64 elements in one (batch x points) slab of a blocked margin loss:
# about 4 MB, so the slab and its link temporaries stay in cache
_SLAB = 1 << 19


class DatasetFormatError(ValueError):
    """Raised when a dataset file cannot be parsed."""


def sigmoid(z):
    """Numerically stable logistic function."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus per-sample labels."""

    features: np.ndarray  # (m, d_in)
    labels: np.ndarray  # (m,)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=float)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must align with feature rows")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __len__(self):
        return self.features.shape[0]

    @property
    def d_in(self):
        return self.features.shape[1]


def load_csv_dataset(path, has_header: bool = False) -> Dataset:
    """Load a dataset from CSV: d_in comma-separated floats then the label.

    ``has_header`` skips a single leading header row.  Ragged or non-numeric
    rows raise :class:`DatasetFormatError` naming the offending row number
    (1-based, counting the header if present).
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in (l.strip() for l in fh) if ln]
    start = 0
    if has_header:
        if not lines:
            raise DatasetFormatError(f"{path}: empty file")
        start = 1
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        parts = line.split(",")
        if len(parts) < 2:
            raise DatasetFormatError(f"{path}: row {lineno}: need d_in floats plus a label")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise DatasetFormatError(
                f"{path}: row {lineno}: expected {width} fields, got {len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: row {lineno}: {exc}") from None
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return Dataset(features=arr[:, :-1], labels=arr[:, -1])


def save_dataset_csv(dataset: Dataset, path, header: bool = False) -> None:
    """Write a dataset in the CSV layout accepted by :func:`load_csv_dataset`."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            cols = [f"x{i}" for i in range(dataset.d_in)] + ["label"]
            fh.write(",".join(cols) + "\n")
        for feats, lab in zip(dataset.features, dataset.labels):
            fh.write(",".join(repr(float(v)) for v in feats) + f",{float(lab)!r}\n")


def make_blobs_dataset(n: int, d: int, seed: int, separation: float = 2.0,
                       scale: float = 1.0) -> Dataset:
    """Two-Gaussian binary classification set with labels in {-1, +1}.

    ``separation`` is the distance between class centers in within-class
    standard deviations; ``scale`` multiplies the whole feature matrix
    (controls gradient magnitudes without changing the Bayes error).
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 samples and d >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 71]))
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    n_pos = n // 2
    labels = np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])
    centers = labels[:, None] * (0.5 * separation) * direction[None, :]
    features = scale * (centers + rng.standard_normal((n, d)))
    perm = rng.permutation(n)
    return Dataset(features=features[perm], labels=labels[perm])


# ---------------------------------------------------------------------------
# data partitioning


@dataclass(frozen=True)
class DataPartition:
    """Disjoint balanced index shards for the two sub-populations.

    In the default two-copy mode each sub-population's shards cover a full
    copy of the sample ids.  In single-copy mode one copy is split across all
    n0 + n1 agents.
    """

    zo_shards: list
    fo_shards: list
    n_samples: int
    single_copy: bool = False

    def __post_init__(self):
        if self.single_copy:
            groups = [list(self.zo_shards) + list(self.fo_shards)]
            error = "single-copy shards must partition the sample ids"
        else:
            groups = [g for g in (self.zo_shards, self.fo_shards) if len(g)]
            error = "shards must be disjoint and cover all sample ids"
        for shards in groups:  # every id must occur exactly once
            parts = [s for s in shards if len(s)]
            ids = np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
            if (ids.dtype.kind not in "iu" or ids.size != self.n_samples
                    or (ids.size and (ids.min() < 0 or ids.max() >= self.n_samples))
                    or not np.all(np.bincount(ids.astype(np.intp), minlength=self.n_samples) == 1)):
                raise ValueError(error)
        if not self.single_copy:
            for group in (self.zo_shards, self.fo_shards):
                sizes = [len(s) for s in group]
                if sizes and max(sizes) - min(sizes) > 1:
                    raise ValueError("shard sizes within a sub-population must differ by at most 1")


def _balanced_split(m, parts, rng):
    if parts == 0:
        return []
    perm = rng.permutation(m)
    return [np.sort(chunk) for chunk in np.array_split(perm, parts)]


def partition_data(dataset, n0: int, n1: int, seed: int, single_copy: bool = False) -> DataPartition:
    """Shuffle and split sample ids into balanced shards per sub-population.

    ``dataset`` may be a :class:`Dataset` or a plain sample count.  Default
    mode hands each sub-population its own full copy of the data; with
    ``single_copy=True`` one copy is split across all n0 + n1 agents.
    Deterministic given ``seed``.
    """
    m = dataset if isinstance(dataset, (int, np.integer)) else len(dataset)
    if n0 < 0 or n1 < 0:
        raise ValueError("shard counts must be non-negative")
    if n0 + n1 < 2:
        raise ValueError("need at least two agents (n0 + n1 >= 2)")
    if m < 1:
        raise ValueError("cannot partition an empty dataset")
    if single_copy:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
        shards = _balanced_split(m, n0 + n1, rng)
        return DataPartition(zo_shards=shards[:n0], fo_shards=shards[n0:],
                             n_samples=m, single_copy=True)
    rng_zo = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    rng_fo = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    return DataPartition(
        zo_shards=_balanced_split(m, n0, rng_zo),
        fo_shards=_balanced_split(m, n1, rng_fo),
        n_samples=m,
        single_copy=False,
    )


# ---------------------------------------------------------------------------
# objectives


class Objective:
    """Common interface: mean-over-batch losses/gradients over sample ids."""

    kind = "abstract"

    def __init__(self, d, n_samples, L, ell, x_star=None, f_star=None):
        self.d = int(d)
        self.n_samples = int(n_samples)
        self.L = float(L)
        self.ell = float(ell)
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        self.f_star = f_star
        if self.L < 0 or self.ell < 0 or self.ell > self.L + 1e-12:
            raise ValueError("need 0 <= ell <= L")
        self._all_idx = np.arange(self.n_samples)

    def _idx(self, idx):
        if idx is None:
            return self._all_idx
        idx = np.asarray(idx)
        if idx.size == 0:
            raise ValueError("batch must be non-empty")
        return idx

    def loss(self, x, idx=None):
        raise NotImplementedError

    def loss_many(self, X, idx=None):
        """Batch loss at each row of X (p, d) -> (p,)."""
        raise NotImplementedError

    def loss_pairs(self, X, ids):
        """Single-sample losses F(X[k], ids[k]) -> (len(ids),)."""
        raise NotImplementedError

    def loss_rows(self, P, B):
        """Row-batched losses: the batch loss over ids B[r] at each point
        P[r, q], for P (k, p, d) and B (k, b) -> (k, p)."""
        raise NotImplementedError

    def grad(self, x, idx=None):
        raise NotImplementedError

    def grad_rows(self, X, B):
        """Row-batched gradients: the batch gradient over ids B[r] at X[r],
        for X (k, d) and B (k, b) -> (k, d)."""
        raise NotImplementedError

    def dir_deriv(self, x, u, idx=None):
        """u^T grad_batch(x) for u of shape (d,) or (r, d), without forming
        the full gradient where a cheaper path exists."""
        raise NotImplementedError

    def grad_per_sample(self, x, idx=None):
        """Per-sample gradients, (len(idx), d). Used by exact variance oracles."""
        raise NotImplementedError

    def gradient_variance(self, x, idx=None):
        """Exact Var over single-sample draws from idx of the per-sample gradient."""
        g = self.grad_per_sample(x, idx)
        centered = g - g.mean(axis=0)
        return float(np.mean(np.sum(centered * centered, axis=1)))

    def targets(self, labels):
        """Validation labels mapped as the training labels are."""
        return labels

    def validate(self, X, features, targets):
        """(validation loss, accuracy) averaged over the models in the rows
        of X, for labels already mapped by :meth:`targets`; accuracy is NaN
        when the objective has no classification semantics."""
        return float(np.mean(self.loss_many(X))), float("nan")

    def evaluate(self, x, features=None, labels=None):
        """(validation loss, accuracy) of the single model x."""
        return self.validate(np.asarray(x, dtype=float)[None, :], features,
                             None if labels is None else self.targets(labels))


class QuadraticObjective(Objective):
    """Strongly convex quadratic around a known optimum.

    f(x) = 1/2 (x - x*)^T A (x - x*) with A = Q diag(lam) Q^T, eigenvalues
    spanning [1, cond].  Per-sample contributions share the eigenbasis: sample
    k carries eigenvalue weights lam_k (mean over samples = lam, every entry
    in [0, cond]) plus an additive gradient offset g_k (mean zero), so the
    minibatch gradient is an unbiased estimate of A (x - x*) and every
    per-sample gradient is cond-Lipschitz.
    """

    kind = "quadratic"

    def __init__(self, Q, lam, per_sample_lam, offsets, x_star):
        d = lam.shape[0]
        m = per_sample_lam.shape[0]
        super().__init__(d=d, n_samples=m, L=float(lam.max()), ell=float(lam.min()),
                         x_star=x_star, f_star=0.0)
        self.Q = np.ascontiguousarray(Q)
        self.Qt = np.ascontiguousarray(Q.T)
        self.lam = lam
        self.Lam = per_sample_lam  # (m, d) eigenvalue weights
        self.Goff = offsets  # (m, d) gradient offsets in the eigenbasis
        self._coeffs = np.hstack([per_sample_lam, offsets])  # one gather per batch
        self._ones = np.ones(m)
        self._lam_mean = per_sample_lam.mean(axis=0)
        self._goff_mean = offsets.mean(axis=0)

    @property
    def hessian(self):
        return self.Q @ (self.lam[:, None] * self.Qt)

    def _batch_coeffs(self, idx):
        """Batch means of the eigenvalue weights and offsets over the last
        axis of ids: (d,) for one batch, (k, d) for k row batches."""
        if idx is None or idx.shape[-1] == self.n_samples:
            return self._lam_mean, self._goff_mean
        b = idx.shape[-1]
        coeffs = self._ones[:b] @ self._coeffs[idx]  # a matvec beats a middle-axis reduce
        coeffs *= 1.0 / b
        return coeffs[..., :self.d], coeffs[..., self.d:]

    def loss(self, x, idx=None):
        idx = self._idx(idx)
        lam_b, off_b = self._batch_coeffs(idx)
        w = self.Qt @ (x - self.x_star)
        return float(0.5 * np.dot(lam_b, w * w) - np.dot(off_b, w))

    def loss_many(self, X, idx=None):
        idx = self._idx(idx)
        lam_b, off_b = self._batch_coeffs(idx)
        W = (X - self.x_star) @ self.Q  # rows in the eigenbasis
        return 0.5 * (W * W) @ lam_b - W @ off_b

    def loss_pairs(self, X, ids):
        W = (X - self.x_star) @ self.Q
        return 0.5 * np.einsum("nd,nd->n", W * W, self.Lam[ids]) \
            - np.einsum("nd,nd->n", W, self.Goff[ids])

    def loss_rows(self, P, B):
        lam_b, off_b = self._batch_coeffs(B)
        W = (P - self.x_star) @ self.Q
        return (0.5 * (W * W) @ lam_b[..., None] - W @ off_b[..., None])[..., 0]

    def grad(self, x, idx=None):
        idx = self._idx(idx)
        lam_b, off_b = self._batch_coeffs(idx)
        w = self.Qt @ (x - self.x_star)
        return self.Q @ (lam_b * w - off_b)

    def grad_rows(self, X, B):
        lam_b, off_b = self._batch_coeffs(B)
        return (lam_b * ((X - self.x_star) @ self.Q) - off_b) @ self.Qt

    def dir_deriv(self, x, u, idx=None):
        idx = self._idx(idx)
        lam_b, off_b = self._batch_coeffs(idx)
        w = self.Qt @ (x - self.x_star)
        v = lam_b * w - off_b
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            return float((u @ self.Q) @ v)
        return (u @ self.Q) @ v

    def grad_per_sample(self, x, idx=None):
        idx = self._idx(idx)
        w = self.Qt @ (x - self.x_star)
        return (self.Lam[idx] * w - self.Goff[idx]) @ self.Qt


def _antisymmetric(rows, cols, rng, uniform=False):
    """(2*rows, cols) array whose column sums cancel pairwise."""
    half = rng.uniform(-1.0, 1.0, size=(rows, cols)) if uniform \
        else rng.standard_normal((rows, cols))
    return np.vstack([half, -half])


def make_quadratic(d: int, cond: float, seed: int, n_samples: int = 64,
                   grad_noise: float = 1.0, hessian_jitter: float = 0.5) -> QuadraticObjective:
    """Construct a stochastic quadratic with exact constants.

    ``grad_noise`` scales additive per-sample gradient offsets (constant
    variance everywhere); ``hessian_jitter`` in [0, 1] scales per-sample
    eigenvalue spread while keeping every per-sample eigenvalue in [0, cond].
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if cond < 1:
        raise ValueError("condition number must be >= 1")
    if not 0.0 <= hessian_jitter <= 1.0:
        raise ValueError("hessian_jitter must lie in [0, 1]")
    if grad_noise < 0:
        raise ValueError("grad_noise must be >= 0")
    m = int(n_samples)
    if m < 2:
        raise ValueError("need at least 2 samples")
    m += m % 2  # offsets cancel in +/- pairs
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 3]))
    Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    lam = np.linspace(1.0, float(cond), d)
    x_star = rng.standard_normal(d)
    amp = hessian_jitter * np.minimum(lam, float(cond) - lam)
    per_sample_lam = lam[None, :] + amp[None, :] * _antisymmetric(m // 2, d, rng, uniform=True)
    offsets = grad_noise * _antisymmetric(m // 2, d, rng)
    return QuadraticObjective(Q=Q, lam=lam, per_sample_lam=per_sample_lam,
                              offsets=offsets, x_star=x_star)


def _signed_labels(labels, positive_class=None):
    labs = np.asarray(labels, dtype=float)
    values = np.unique(labs)
    if positive_class is not None:
        return np.where(labs == positive_class, 1.0, -1.0)
    if set(values.tolist()) <= {-1.0, 1.0}:
        return labs.copy()
    if set(values.tolist()) <= {0.0, 1.0}:
        return np.where(labs > 0.5, 1.0, -1.0)
    raise ValueError("labels must be binary ({0,1} or {-1,+1}) unless positive_class is given")


class _MarginObjective(Objective):
    """Shared machinery for losses of the form mean_k g(y_k a_k . x) (+ reg)."""

    def __init__(self, dataset, positive_class, L, ell, reg=0.0):
        feats = dataset.features
        super().__init__(d=feats.shape[1], n_samples=feats.shape[0], L=L, ell=ell)
        self.A = feats
        self.positive_class = positive_class
        self.y = _signed_labels(dataset.labels, positive_class)
        self.reg = float(reg)

    # subclasses define the scalar link g and its derivative; g may write
    # its result into ``out`` (which may be t itself)
    def _g(self, t, out=None):
        raise NotImplementedError

    def _gprime(self, t):
        raise NotImplementedError

    def loss(self, x, idx=None):
        idx = self._idx(idx)
        t = self.y[idx] * (self.A[idx] @ x)
        base = float(np.mean(self._g(t, out=t)))
        return base + 0.5 * self.reg * float(np.dot(x, x))

    def loss_many(self, X, idx=None):
        """Batch loss at each row of X, walked in blocks of points whose
        (batch x block) slab stays in cache; each block's column sums are
        the sums ``mean(axis=0)`` would take."""
        idx = self._idx(idx)
        A, y = self.A[idx], self.y[idx, None]
        m = idx.shape[0]
        out = np.empty(X.shape[0])
        step = max(1, _SLAB // m)
        for lo in range(0, X.shape[0], step):
            T = A @ X[lo:lo + step].T
            T *= y
            np.add.reduce(self._g(T, out=T), axis=0, out=out[lo:lo + step])
        out /= m
        if self.reg:
            out += 0.5 * self.reg * np.sum(X * X, axis=1)
        return out

    def loss_pairs(self, X, ids):
        t = self.y[ids] * np.einsum("nd,nd->n", self.A[ids], X)
        vals = self._g(t, out=t)
        if self.reg:
            vals = vals + 0.5 * self.reg * np.sum(X * X, axis=1)
        return vals

    def loss_rows(self, P, B):
        T = self.y[B][:, :, None] * (self.A[B] @ P.transpose(0, 2, 1))
        base = self._g(T, out=T).mean(axis=1)
        if self.reg:
            base = base + 0.5 * self.reg * np.sum(P * P, axis=2)
        return base

    def grad(self, x, idx=None):
        idx = self._idx(idx)
        yb = self.y[idx]
        t = yb * (self.A[idx] @ x)
        coef = self._gprime(t) * yb
        g = (coef @ self.A[idx]) / idx.shape[0]
        if self.reg:
            g = g + self.reg * x
        return g

    def grad_rows(self, X, B):
        AB = self.A[B]
        yb = self.y[B]
        coef = self._gprime(yb * (AB @ X[:, :, None])[..., 0]) * yb
        G = (coef[:, None, :] @ AB)[:, 0] / B.shape[1]
        if self.reg:
            G = G + self.reg * X
        return G

    def dir_deriv(self, x, u, idx=None):
        idx = self._idx(idx)
        yb = self.y[idx]
        t = yb * (self.A[idx] @ x)
        coef = self._gprime(t) * yb
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            out = float(np.dot(coef, self.A[idx] @ u)) / idx.shape[0]
            return out + (self.reg * float(np.dot(x, u)) if self.reg else 0.0)
        out = (self.A[idx] @ u.T).T @ coef / idx.shape[0]
        if self.reg:
            out = out + self.reg * (u @ x)
        return out

    def grad_per_sample(self, x, idx=None):
        idx = self._idx(idx)
        yb = self.y[idx]
        t = yb * (self.A[idx] @ x)
        g = (self._gprime(t) * yb)[:, None] * self.A[idx]
        if self.reg:
            g = g + self.reg * x
        return g

    def targets(self, labels):
        return _signed_labels(labels, self.positive_class)

    def validate(self, X, features, targets):
        if features is None or targets is None:
            raise ValueError("classification objectives need validation features and labels")
        y = targets[:, None]
        Z = np.asarray(features, dtype=float) @ X.T  # (samples, models)
        T = y * Z
        loss = float(np.mean(self._g(T, out=T)))  # data term only, no regularizer
        return loss, float(np.mean(np.where(Z >= 0, 1.0, -1.0) == y))


class LogisticObjective(_MarginObjective):
    """L2-regularized logistic loss; ell = lambda, L = lambda + max||a||^2 / 4."""

    kind = "logistic_l2"

    def __init__(self, dataset, lam, positive_class=None):
        if lam <= 0:
            raise ValueError("regularization strength must be positive")
        row_norm_sq = float(np.max(np.sum(dataset.features ** 2, axis=1)))
        super().__init__(dataset, positive_class,
                         L=lam + 0.25 * row_norm_sq, ell=lam, reg=lam)

    def _g(self, t, out=None):
        # log(1 + exp(-t)) = log1p(exp(-|t|)) - min(t, 0): never overflows,
        # and numpy's exp and log1p have SIMD loops where logaddexp has none
        low = np.minimum(t, 0.0)
        out = np.abs(t, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out -= low
        return out

    def _gprime(self, t):
        return -sigmoid(-t)


class SigmoidSquaredObjective(_MarginObjective):
    """Smooth non-convex classification loss mean (sigmoid(y a.x) - 1)^2.

    Bounded in [0, 1); the documented Lipschitz bound L = max||a||^2 / 4 is
    conservative (the true curvature bound of the link is ~0.155).
    """

    kind = "sigmoid_sq_nonconvex"

    def __init__(self, dataset, positive_class=None):
        row_norm_sq = float(np.max(np.sum(dataset.features ** 2, axis=1)))
        super().__init__(dataset, positive_class, L=0.25 * row_norm_sq, ell=0.0, reg=0.0)

    def _g(self, t, out=None):
        s = sigmoid(t)
        s -= 1.0
        return np.multiply(s, s, out=out)

    def _gprime(self, t):
        s = sigmoid(t)
        return -2.0 * s * (1.0 - s) ** 2


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

    def loss(self, x, idx=None):
        idx = self._idx(idx)
        return float((self.a + self.offsets[idx].mean(axis=0)) @ x)

    def loss_many(self, X, idx=None):
        idx = self._idx(idx)
        return X @ (self.a + self.offsets[idx].mean(axis=0))

    def loss_pairs(self, X, ids):
        return np.einsum("nd,nd->n", self.a[None, :] + self.offsets[ids], X)

    def loss_rows(self, P, B):
        return (P @ self.grad_rows(None, B)[:, :, None])[..., 0]

    def grad(self, x, idx=None):
        idx = self._idx(idx)
        return self.a + self.offsets[idx].mean(axis=0)

    def grad_rows(self, X, B):
        return self.a + self.offsets[B].mean(axis=1)

    def dir_deriv(self, x, u, idx=None):
        g = self.grad(None, idx)
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            return float(np.dot(u, g))
        return u @ g

    def grad_per_sample(self, x, idx=None):
        idx = self._idx(idx)
        return self.a[None, :] + self.offsets[idx]


def make_logistic(dataset: Dataset, lam: float, positive_class=None) -> LogisticObjective:
    """L2-regularized logistic regression objective over the dataset."""
    return LogisticObjective(dataset, lam, positive_class)


def make_nonconvex(dataset: Dataset, positive_class=None) -> SigmoidSquaredObjective:
    """Smooth bounded non-convex classification objective over the dataset."""
    return SigmoidSquaredObjective(dataset, positive_class)


@dataclass(frozen=True)
class VarianceProfile:
    """Per-agent gradient-noise levels and data-heterogeneity measurements.

    ``s_zo`` / ``s_fo`` hold each agent's single-sample gradient standard
    deviation; ``sigma0_sq`` / ``sigma1_sq`` are the means of their squares
    over the two sub-populations.  ``varsigma0_sq`` / ``varsigma1_sq`` are
    the mean squared distances between shard gradients and the full
    gradient.  All quantities are measured at one probe point (the bound
    constants are suprema, so a pointwise measurement is a valid instance).
    """

    s_zo: np.ndarray
    s_fo: np.ndarray
    sigma0_sq: float
    sigma1_sq: float
    varsigma0_sq: float
    varsigma1_sq: float

    def __post_init__(self):
        for arr, avg in ((self.s_zo, self.sigma0_sq), (self.s_fo, self.sigma1_sq)):
            if np.any(np.asarray(arr) < 0):
                raise ValueError("noise levels must be non-negative")
            if len(arr) and not np.isclose(np.mean(np.square(arr)), avg):
                raise ValueError("population average must be the mean of s_i^2")


def variance_profile(spec: Objective, partition: DataPartition, x) -> VarianceProfile:
    """Measure the per-agent noise and heterogeneity constants at a point."""
    x = np.asarray(x, dtype=float)
    full_grad = spec.grad(x)

    def per_group(shards):
        s = np.array([np.sqrt(spec.gradient_variance(x, shard)) for shard in shards])
        het = np.array([float(np.sum((spec.grad(x, shard) - full_grad) ** 2))
                        for shard in shards])
        return s, float(np.mean(np.square(s))) if len(s) else 0.0, \
            float(het.mean()) if len(het) else 0.0

    s_zo, sigma0_sq, varsigma0_sq = per_group(partition.zo_shards)
    s_fo, sigma1_sq, varsigma1_sq = per_group(partition.fo_shards)
    return VarianceProfile(s_zo=s_zo, s_fo=s_fo, sigma0_sq=sigma0_sq,
                           sigma1_sq=sigma1_sq, varsigma0_sq=varsigma0_sq,
                           varsigma1_sq=varsigma1_sq)


# ---------------------------------------------------------------------------
# functional wrappers over the per-sample interface


def _check_batch(spec, batch):
    batch = np.asarray(batch)
    if batch.size == 0:
        raise ValueError("batch must be non-empty")
    if batch.min() < 0 or batch.max() >= spec.n_samples:
        raise ValueError("batch indices out of range")
    return batch


def stochastic_loss(spec: Objective, x, batch) -> float:
    """Mean per-sample loss over the batch indices."""
    return spec.loss(np.asarray(x, dtype=float), _check_batch(spec, batch))


def stochastic_gradient(spec: Objective, x, batch) -> np.ndarray:
    """Mean per-sample gradient over the batch indices (unbiased for the
    shard gradient when the batch is drawn uniformly)."""
    return spec.grad(np.asarray(x, dtype=float), _check_batch(spec, batch))


def directional_derivative(spec: Objective, x, batch, u) -> float:
    """u^T grad of the batch loss, computed without materializing the full
    gradient where the objective admits a cheaper path."""
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    if u.shape[-1] != spec.d or x.shape[-1] != spec.d:
        raise ValueError("dimension mismatch between x, u, and the objective")
    return spec.dir_deriv(x, u, _check_batch(spec, batch))
