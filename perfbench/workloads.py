"""The benchmark's workloads: their configs, generated inputs and expectations.

Every input is made here from the workload seed; `hdopt` receives only the
config file and, for `match-logistic`, the generated CSV files.  Nothing in
this module imports `hdopt`, so the expectations it records (closed-form
evaluation counts, the reference solution of the logistic problem) are
computed apart from the program.

Seeds handed to the program are six-digit numbers, so the config text has
the same length on every workload seed and the Python call count of the
YAML parse repeats exactly across seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

OUT_DIR = Path("perfbench") / "out"


def six_digit(seed: int, tag: int) -> int:
    """Deterministic six-digit seed for (workload seed, purpose tag)."""
    state = np.random.SeedSequence([int(seed), int(tag)]).generate_state(1, np.uint64)[0]
    return 100_000 + int(state) % 900_000


@dataclass(frozen=True)
class Population:
    label: str
    n0: int  # zeroth-order agents
    n1: int  # first-order agents
    fo_batch: int
    zo_batch: int
    rv: int
    zo_kind: str

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    def evals_per_estimate(self, first_order: bool) -> int:
        """Function evaluations one estimate costs, per the README's costing."""
        if first_order:
            return self.fo_batch
        if self.zo_kind == "zo_biased_one_sided":
            return self.zo_batch * (self.rv + 1)  # the base point and rv shifted points
        return self.zo_batch * self.rv  # forward mode: one evaluation per sample


@dataclass
class Workload:
    """One workload instance: what to run and what its outputs must satisfy.

    T, cadence, scheduler, cell seeds, step sizes and theory options are read
    from `config`, the file `hdo` runs, so the checks test the program
    against the settings it was given.
    """

    name: str
    command: str  # "run" or "verify"
    config: dict
    populations: tuple = ()
    gap_drop: float = 0.0  # pair-quad: required fall of the loss gap
    ref_val_loss: float = math.nan  # match-logistic: loss at the reference solution
    val_margin: float = 0.0
    quad: dict = field(default_factory=dict)  # d and cond of the quadratic

    @property
    def out_dir(self) -> Path:
        return Path(self.config["out_dir"])

    @property
    def T(self) -> int:
        return int(self.config["T"])

    @property
    def cadence(self) -> int:
        return int(self.config["metric_cadence"])

    @property
    def scheduler(self) -> str:
        return self.config["scheduler_mode"]

    @property
    def seeds(self) -> tuple:
        return tuple(self.config["seeds"])

    @property
    def theory(self) -> dict:
        return self.config.get("theory", {})

    def eta(self, pop) -> float:
        """The constant step size of a population, as configured."""
        return next(float(e["eta"]) for e in self.config["populations"]
                    if e["label"] == pop.label)

    @property
    def operations(self) -> int:
        """Operations per round: one per cell, or one per verification check."""
        if self.command == "run":
            return len(self.populations) * len(self.seeds)
        return len(VERIFY_REPORTS)

    @property
    def interactions(self) -> int:
        """Pairwise interactions the program performs in one round."""
        if self.command == "verify":
            # the 30-step hybrid snapshot run plus one interaction per replica
            return 30 + int(self.theory["recursion_replicas"])
        per_step = [1 if self.scheduler == "uniform_pair" else p.n // 2
                    for p in self.populations]
        return self.T * sum(per_step) * len(self.seeds)


QUAD_POPULATIONS = (
    Population("hybrid4fo4zo", 4, 4, 4, 4, 16, "zo_biased_one_sided"),
    Population("fo8", 0, 8, 4, 4, 16, "zo_biased_one_sided"),
    Population("zo8", 8, 0, 4, 4, 16, "zo_biased_one_sided"),
)

LOGISTIC_POPULATIONS = (
    Population("fo4", 0, 4, 2, 2, 16, "zo_unbiased_forward"),
    Population("zo4", 4, 0, 2, 2, 16, "zo_unbiased_forward"),
    Population("zo16", 16, 0, 2, 2, 16, "zo_unbiased_forward"),
    Population("hybrid4fo16zo", 16, 4, 2, 2, 16, "zo_unbiased_forward"),
)

QUAD_OBJECTIVE = {"kind": "quadratic", "d": 10, "cond": 10.0, "n_samples": 64,
                  "grad_noise": 1.0, "hessian_jitter": 0.5}

# How far a match-logistic cell's final validation loss may sit from the
# loss at the reference solution.  Over more than 800 cells the largest excess
# was 0.100 (zo4, whose four forward-mode agents converge slowest), and every
# step-0 loss sat at least 0.20 above the reference, so a run that stalls
# still fails.
VAL_MARGIN = 0.15

# quad-desk's theory options, except smoothing_samples: 1,000,000 in the
# desk config.  200,000 keeps the 100,000-point chunks (and so the memory
# peak) and brings one `hdo verify` to about 5 s on two cores.
THEORY_OPTIONS = {"probes": 3, "smoothing_samples": 200_000, "mc_samples": 100_000,
                  "recursion_replicas": 1500, "nu_scale": 1.0, "eta": 0.1}


def _distinct_seeds(seed, count):
    seeds, tag = [], 10
    while len(seeds) < count:
        value = six_digit(seed, tag)
        if value not in seeds:
            seeds.append(value)
        tag += 1
    return seeds


def _population_entries(pops, eta):
    entries = []
    for p in pops:
        entry = {"label": p.label, "n0": p.n0, "n1": p.n1, "eta": eta}
        if p.n1:
            entry["fo_batch_size"] = p.fo_batch
        if p.n0:
            entry.update(zo_kind=p.zo_kind, zo_rv=p.rv, zo_batch_size=p.zo_batch)
        entries.append(entry)
    return entries


def pair_quad(seed: int, out: Path = OUT_DIR / "pair-quad", T: int = 10_000) -> Workload:
    """quad-desk: uniform_pair on the d = 10 quadratic, 8-agent populations.

    T is half of quad-desk's 20,000 and each population runs one cell seed,
    so one round takes about 3 s and a run holds several rounds.
    """
    config = {
        "name": "pair-quad", "seed": six_digit(seed, 0), "out_dir": str(out / "run"),
        "T": T, "metric_cadence": 500, "scheduler_mode": "uniform_pair",
        "seeds": [six_digit(seed, 1)],
        "objective": dict(QUAD_OBJECTIVE, seed=six_digit(seed, 2)),
        "populations": _population_entries(QUAD_POPULATIONS, 0.05),
    }
    return Workload(name="pair-quad", command="run", config=config,
                    populations=QUAD_POPULATIONS, gap_drop=100.0)


def match_logistic(seed: int, out: Path = OUT_DIR / "match-logistic",
                   n_seeds: int = 3) -> Workload:
    """fig2-desk on generated CSV data: random_matching, L2 logistic, d = 20.

    Every cell is a fig2-desk cell; there are 3 cell seeds rather than 10,
    so one round takes a few seconds and a run holds several rounds.
    """
    config = {
        "name": "match-logistic", "seed": six_digit(seed, 0), "out_dir": str(out / "run"),
        "T": 500, "metric_cadence": 10, "scheduler_mode": "random_matching",
        "seeds": _distinct_seeds(seed, n_seeds),
        "x0_scale": 0.1,
        "objective": {"kind": "logistic_l2", "lam": 0.001},
        "dataset": {"kind": "csv", "path": str(out / "train.csv"),
                    "val_path": str(out / "val.csv")},
        "populations": _population_entries(LOGISTIC_POPULATIONS, 0.01),
    }
    return Workload(name="match-logistic", command="run", config=config,
                    populations=LOGISTIC_POPULATIONS, val_margin=VAL_MARGIN)


def verify_quad(seed: int, out: Path = OUT_DIR / "verify-quad",
                theory: dict | None = None) -> Workload:
    """`hdo verify` with quad-desk's theory options on a fresh theory seed."""
    theory = dict(THEORY_OPTIONS if theory is None else theory, seed=six_digit(seed, 3))
    config = {
        "name": "verify-quad", "seed": six_digit(seed, 0), "out_dir": str(out / "run"),
        "T": 20_000, "metric_cadence": 500, "scheduler_mode": "uniform_pair",
        "seeds": [0], "objective": dict(QUAD_OBJECTIVE),
        "populations": _population_entries(QUAD_POPULATIONS, 0.05),
        "theory": theory,
    }
    # the suite builds its own quadratic: d = 10, cond = 10 (runner.default_theory_suite)
    return Workload(name="verify-quad", command="verify", config=config,
                    quad={"d": 10, "cond": 10.0})


WORKLOADS = {"pair-quad": pair_quad, "match-logistic": match_logistic,
             "verify-quad": verify_quad}


# the checks `hdo verify` reports, in order
VERIFY_REPORTS = ("gradcheck_quadratic", "gradcheck_logistic_l2", "gradcheck_sigmoid_sq_nonconvex",
                  "smoothing_value_gap_quadratic", "smoothing_grad_bias_quadratic",
                  "zo_second_moment_quadratic", "zo_variance_quadratic",
                  "smoothing_value_gap_logistic_l2", "smoothing_grad_bias_logistic_l2",
                  "zo_second_moment_logistic_l2", "zo_variance_logistic_l2",
                  "bias_aggregate", "gamma_recursion", "gamma_pure_averaging_n3",
                  "gamma_pure_averaging_n4", "gamma_pure_averaging_n5")


# ---------------------------------------------------------------------------
# inputs


def make_blobs(rng, n, d, separation, scale):
    """Two Gaussian classes with labels in {-1, +1}, centers `separation`
    within-class standard deviations apart, features multiplied by `scale`."""
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    labels = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    rng.shuffle(labels)
    features = scale * (labels[:, None] * (0.5 * separation) * direction
                        + rng.standard_normal((n, d)))
    return features, labels


def solve_logistic(features, labels, lam, tol=1e-12):
    """Minimizer of mean log(1 + exp(-y a.x)) + lam/2 ||x||^2 by Newton's method."""
    m, d = features.shape
    x = np.zeros(d)
    for _ in range(100):
        t = labels * (features @ x)
        s = 0.5 * (1.0 + np.tanh(-0.5 * t))  # sigmoid(-t)
        grad = -(features.T @ (labels * s)) / m + lam * x
        hess = (features.T * (s * (1.0 - s))) @ features / m + lam * np.eye(d)
        step = np.linalg.solve(hess, grad)
        x -= step
        if np.linalg.norm(step) <= tol * max(1.0, np.linalg.norm(x)):
            return x
    raise RuntimeError("Newton's method did not converge on the logistic problem")


def logistic_data_loss(x, features, labels):
    """The validation loss `hdo` reports: the data term, without the regularizer."""
    return float(np.mean(np.logaddexp(0.0, -labels * (features @ x))))


def write_dataset_csv(path, features, labels):
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(features, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{float(label)!r}\n")


def prepare(workload: Workload, seed: int) -> Path:
    """Write the workload's config (and data) next to its output directory;
    returns the config path."""
    base = workload.out_dir.parent
    base.mkdir(parents=True, exist_ok=True)
    if workload.name == "match-logistic":
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7]))
        features, labels = make_blobs(rng, 2500, 20, separation=2.0, scale=4.0)
        train = (features[:2000], labels[:2000])
        val = (features[2000:], labels[2000:])
        write_dataset_csv(workload.config["dataset"]["path"], *train)
        write_dataset_csv(workload.config["dataset"]["val_path"], *val)
        x_hat = solve_logistic(*train, lam=workload.config["objective"]["lam"])
        workload.ref_val_loss = logistic_data_loss(x_hat, *val)
    path = base / "config.yaml"
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(workload.config, fh, sort_keys=False)
    return path
