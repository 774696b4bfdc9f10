"""Finite-sum objectives with analytic stochastic gradients and known constants.

Each objective exposes per-sample losses F_k indexed by integer sample ids, so
that minibatch losses/gradients are exact means over the chosen ids.  All
objectives publish a gradient-Lipschitz constant ``L`` (conservative where a
tight value is awkward), a strong-convexity constant ``ell`` (0 for the
non-convex kind), and, when known, the optimum ``x_star`` / ``f_star``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# float64 elements in one slab of a blocked loss kernel: about 4 MB, so the
# slab and its temporaries stay in cache
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

    ``has_header`` skips a single leading header row, and blank lines are
    skipped.  Ragged, non-numeric or non-finite rows raise
    :class:`DatasetFormatError` naming the first offending row's file line.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, ln) for no, ln in enumerate((l.strip() for l in fh), start=1) if ln]
    if has_header:
        if not lines:
            raise DatasetFormatError(f"{path}: empty file")
        lines = lines[1:]
    width = None
    for lineno, line in lines:
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
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise DatasetFormatError(f"{path}: row {lines[int(finite.argmin())][0]}: "
                                 "non-finite value")
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
    """Disjoint balanced index shards for the two sub-populations; each
    sub-population's shards cover a full copy of the sample ids."""

    zo_shards: list
    fo_shards: list
    n_samples: int

    def __post_init__(self):
        for shards in (g for g in (self.zo_shards, self.fo_shards) if len(g)):
            parts = [s for s in shards if len(s)]  # every id must occur exactly once
            ids = np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)
            if (ids.dtype.kind not in "iu" or ids.size != self.n_samples
                    or (ids.size and (ids.min() < 0 or ids.max() >= self.n_samples))
                    or not np.all(np.bincount(ids.astype(np.intp), minlength=self.n_samples) == 1)):
                raise ValueError("shards must be disjoint and cover all sample ids")
            sizes = [len(s) for s in shards]
            if max(sizes) - min(sizes) > 1:
                raise ValueError("shard sizes within a sub-population must differ by at most 1")


def _balanced_split(m, parts, rng):
    if parts == 0:
        return []
    perm = rng.permutation(m)
    return [np.sort(chunk) for chunk in np.array_split(perm, parts)]


def partition_data(m: int, n0: int, n1: int, seed: int) -> DataPartition:
    """Shuffle and split the sample ids 0..m-1 into balanced shards: each
    sub-population gets its own full copy of the data.  Deterministic given
    ``seed``."""
    if n0 < 0 or n1 < 0:
        raise ValueError("shard counts must be non-negative")
    if n0 + n1 < 2:
        raise ValueError("need at least two agents (n0 + n1 >= 2)")
    if m < 1:
        raise ValueError("cannot partition an empty dataset")
    rng_zo = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    rng_fo = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    return DataPartition(zo_shards=_balanced_split(m, n0, rng_zo),
                         fo_shards=_balanced_split(m, n1, rng_fo), n_samples=m)


# ---------------------------------------------------------------------------
# objectives


def _in_blocks(kernel, P, B, width):
    """kernel(P, B) evaluated over blocks of P's rows and points whose slabs,
    at ``width`` float64s per (row, point), hold at most _SLAB elements,
    gathered into one (k, p) array."""
    k, p = P.shape[:2]
    pc = min(p, max(1, _SLAB // width))
    kc = max(1, _SLAB // (width * pc))
    out = np.empty((k, p))
    for i in range(0, k, kc):
        for j in range(0, p, pc):
            out[i:i + kc, j:j + pc] = kernel(P[i:i + kc, j:j + pc],
                                             None if B is None else B[i:i + kc])
    return out


def _row(idx):
    """Sample ids as the one row of a kernel's B."""
    idx = np.asarray(idx)
    if idx.size == 0:
        raise ValueError("batch must be non-empty")
    return idx.reshape(1, -1)


class Objective:
    """Mean-over-batch losses and gradients over sample ids.

    A subclass implements two row-batched kernels, where B is a (k, b) array
    of sample ids, one minibatch per row, and None means the full dataset:

    * ``loss_rows(P, B=None)``: the batch loss over B[r] at each point
      P[r, q], for P (k, p, d) -> (k, p);
    * ``grad_rows(X, B=None)``: the batch gradient over B[r] at X[r], for
      X (k, d) -> (k, d).
    """

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

    def loss(self, x, idx=None):
        """Batch loss at the point x (an array) over the ids idx (all samples
        when None)."""
        return float(self.loss_rows(x[None, None], None if idx is None else _row(idx))[0, 0])

    def grad(self, x, idx=None):
        """Batch gradient at the point x (an array) over the ids idx (all
        samples when None)."""
        return self.grad_rows(x[None], None if idx is None else _row(idx))[0]

    def gradient_variance(self, x, idx=None):
        """Exact Var over single-sample draws from idx of the per-sample gradient."""
        ids = np.arange(self.n_samples) if idx is None else np.asarray(idx)
        g = self.grad_rows(np.broadcast_to(x, (ids.shape[0], self.d)), ids[:, None])
        centered = g - g.mean(axis=0)
        return float(np.mean(np.sum(centered * centered, axis=1)))

    def targets(self, labels):
        """Validation labels mapped as the training labels are."""
        return labels

    def validate(self, X, features, targets):
        """(validation loss, accuracy) averaged over the models in the rows
        of X, for labels already mapped by :meth:`targets`; accuracy is NaN
        when the objective has no classification semantics."""
        return float(np.mean(self.loss_rows(X[None])[0])), float("nan")


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

    def _batch_coeffs(self, B):
        """Batch means of the eigenvalue weights and offsets over each row of
        ids: (d,) each for the full dataset, (k, d) for k rows."""
        if B is None:
            return self._lam_mean, self._goff_mean
        b = B.shape[1]
        if b == 1:
            coeffs = self._coeffs[B[:, 0]]
        else:
            coeffs = self._ones[:b] @ self._coeffs[B]  # a matvec beats a middle-axis reduce
            coeffs *= 1.0 / b
        return coeffs[:, :self.d], coeffs[:, self.d:]

    def loss_rows(self, P, B=None):
        # four (rows x points x d) temporaries: the centred points, W, W * W
        # and its half
        k, p, d = P.shape
        if k * p * 4 * d > _SLAB and k * p > 1:
            return _in_blocks(self.loss_rows, P, B, 4 * d)
        lam_b, off_b = self._batch_coeffs(B)
        W = (P - self.x_star) @ self.Q  # rows in the eigenbasis
        return (0.5 * (W * W) @ lam_b[..., None] - W @ off_b[..., None])[..., 0]

    def grad_rows(self, X, B=None):
        # each row a (1, d) product of its own: it rounds alike at any place in X
        lam_b, off_b = self._batch_coeffs(B)
        W = (X - self.x_star)[:, None] @ self.Q
        return ((lam_b[..., None, :] * W - off_b[..., None, :]) @ self.Qt)[:, 0]


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
    if positive_class is not None:
        return np.where(labs == positive_class, 1.0, -1.0)
    values = set(labs.tolist())
    if values <= {-1.0, 1.0}:
        return labs.copy()
    if values <= {0.0, 1.0}:
        return np.where(labs > 0.5, 1.0, -1.0)
    raise ValueError("labels must be binary ({0,1} or {-1,+1}) unless positive_class is given")


class _MarginObjective(Objective):
    """Shared machinery for losses of the form mean_k g(y_k a_k . x) (+ reg)."""

    def __init__(self, dataset, positive_class, L, ell, reg=0.0):
        feats = dataset.features
        super().__init__(d=feats.shape[1], n_samples=feats.shape[0], L=L, ell=ell)
        self.A = np.ascontiguousarray(feats)  # numpy's products depend on the layout
        if positive_class is not None and not (dataset.labels == positive_class).any():
            raise ValueError(f"positive_class {positive_class!r} matches no training label")
        self.positive_class = positive_class
        self.y = _signed_labels(dataset.labels, positive_class)
        self.reg = float(reg)

    # subclasses define the scalar link g and its derivative; g may write
    # its result into ``out`` (which may be t itself)
    def _g(self, t, out=None):
        raise NotImplementedError

    def _gprime(self, t):
        raise NotImplementedError

    def loss_rows(self, P, B=None):
        """Walked in blocks of rows and points whose (batch x points) slabs
        stay in cache; each block's sums over the batch are the sums
        ``mean`` would take."""
        k, p, _ = P.shape
        b = self.n_samples if B is None else B.shape[1]
        if k * p * b > _SLAB and k * p > 1:
            return _in_blocks(self.loss_rows, P, B, b)
        A, y = (self.A, self.y) if B is None else (self.A[B], self.y[B])
        T = A @ P.transpose(0, 2, 1)  # (k, b, p)
        T *= y[..., None]
        out = np.add.reduce(self._g(T, out=T), axis=1)
        out /= b
        if self.reg:
            out += 0.5 * self.reg * np.add.reduce(P * P, axis=2)
        return out

    def grad_rows(self, X, B=None):
        A, y = (self.A, self.y) if B is None else (self.A[B], self.y[B])
        coef = self._gprime(y * (A @ X[:, :, None])[..., 0]) * y
        G = (coef[:, None, :] @ A)[:, 0] / A.shape[-2]
        if self.reg:
            G = G + self.reg * X
        return G

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

    # s = sigmoid(t) and 1 - s as exp(-softplus(-t)) and exp(-softplus(t)), from the
    # logistic link softplus(-t): neither cancels where s rounds near 0 or 1
    _softplus_neg = LogisticObjective._g

    def _g(self, t, out=None):  # (1 - s)^2
        return np.exp(-2.0 * self._softplus_neg(-t), out=out)

    def _gprime(self, t):
        s, r = np.exp(-self._softplus_neg(t)), np.exp(-self._softplus_neg(-t))
        return -2.0 * s * r * r


def make_logistic(dataset: Dataset, lam: float, positive_class=None) -> LogisticObjective:
    """L2-regularized logistic regression objective over the dataset."""
    return LogisticObjective(dataset, lam, positive_class)


def make_nonconvex(dataset: Dataset, positive_class=None) -> SigmoidSquaredObjective:
    """Smooth bounded non-convex classification objective over the dataset."""
    return SigmoidSquaredObjective(dataset, positive_class)
