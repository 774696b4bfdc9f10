"""Experiment driver: config parsing, seeded grids, CSV/report output.

Config files are YAML with a fixed schema (see configs/ for a canonical
example); unknown keys are rejected by name.  Every per-stream seed is
derived from (master seed, population index, seed value, purpose tag) via
numpy SeedSequence, so a (config, master seed) pair determines every output
byte except manifest timestamps.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import metrics as _metrics
from . import theory as _theory
from .estimators import (
    ESTIMATOR_KINDS,
    FIRST_ORDER,
    ZO_FORWARD,
    EstimatorConfig,
)
from .objectives import (
    Dataset,
    load_csv_dataset,
    make_blobs_dataset,
    make_logistic,
    make_nonconvex,
    make_quadratic,
    partition_data,
)
from .protocol import (
    RANDOM_MATCHING,
    SCHEDULER_MODES,
    TAG_INIT,
    DivergedError,
    PopulationConfig,
    Schedule,
    derive_rng,
    init_population,
    run,
)


class ConfigError(ValueError):
    """Raised for schema violations and invalid experiment parameters."""


def fold_seed(*parts) -> int:
    """Deterministic 64-bit seed from a path of integers."""
    seq = np.random.SeedSequence([int(p) for p in parts])
    return int(seq.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# schema


_TOP_KEYS = {"name", "seed", "out_dir", "T", "metric_cadence", "scheduler_mode",
             "seeds", "x0_scale", "objective", "dataset", "populations", "theory"}
_OBJECTIVE_KEYS = {
    "quadratic": {"kind", "d", "cond", "n_samples", "grad_noise", "hessian_jitter", "seed"},
    "logistic_l2": {"kind", "lam", "positive_class"},
    "sigmoid_sq_nonconvex": {"kind", "positive_class"},
}
_DATASET_KEYS = {
    "blobs": {"kind", "n_train", "n_val", "d", "separation", "scale", "seed"},
    "csv": {"kind", "path", "has_header", "val_path", "val_has_header"},
}
_POP_KEYS = {"label", "n0", "n1", "eta", "momentum", "c",
             "fo_batch_size", "zo_kind", "zo_rv", "zo_batch_size"}
_ETA_KEYS = {"mode", "eta_max", "eta_min", "warmup_steps"}
_THEORY_KEYS = {"seed", "probes", "smoothing_samples", "mc_samples",
                "recursion_replicas", "nu_scale", "eta"}
# least values of the integer theory options; eta and nu_scale must be > 0
_THEORY_INT_MIN = {"probes": 1, "smoothing_samples": 1, "mc_samples": 1,
                   "recursion_replicas": 2}


def _require_mapping(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping")
    return value


def _check_keys(mapping, allowed, where):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _theory_number(key, value):
    """A numeric theory option, checked at parse time so that a bad value
    fails before any check of the suite runs."""
    least = _THEORY_INT_MIN.get(key)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if least is None:
        ok = math.isfinite(number) and number > 0.0
    else:
        ok = number.is_integer() and number >= least
    if isinstance(value, bool) or not ok:
        want = "a number > 0" if least is None else f"an integer >= {least}"
        raise ConfigError(f"theory.{key} must be {want}, got {value!r}")
    return number if least is None else int(number)


@dataclass(frozen=True)
class PopulationEntry:
    label: str
    n0: int
    n1: int
    schedule: Schedule
    momentum: float
    c: float | None
    fo: EstimatorConfig | None
    zo: EstimatorConfig | None


@dataclass
class ExperimentConfig:
    name: str
    seed: int
    out_dir: str
    T: int
    metric_cadence: int
    scheduler_mode: str
    seeds: list
    x0_scale: float
    objective: dict
    dataset: dict | None
    populations: list
    theory: dict


def _parse_schedule(value, T, where):
    if isinstance(value, (int, float)):
        if value < 0:
            raise ConfigError(f"{where}: eta must be non-negative")
        return Schedule(eta_max=float(value))
    value = _require_mapping(value, where)
    _check_keys(value, _ETA_KEYS, where)
    mode = value.get("mode", "constant")
    try:
        return Schedule(eta_max=float(value.get("eta_max", 0.0)), mode=mode,
                        eta_min=float(value.get("eta_min", 0.0)),
                        warmup_steps=int(value.get("warmup_steps", 0)),
                        total_steps=T)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_population(entry, T, index):
    where = f"populations[{index}]"
    entry = _require_mapping(entry, where)
    _check_keys(entry, _POP_KEYS, where)
    try:
        label = str(entry["label"])
        n0 = int(entry.get("n0", 0))
        n1 = int(entry.get("n1", 0))
    except KeyError as exc:
        raise ConfigError(f"{where}: missing key {exc.args[0]!r}") from None
    if n0 < 0 or n1 < 0 or n0 + n1 < 2:
        raise ConfigError(f"{where}: need n0, n1 >= 0 with n0 + n1 >= 2")
    if "eta" not in entry:
        raise ConfigError(f"{where}: missing key 'eta'")
    schedule = _parse_schedule(entry["eta"], T, f"{where}.eta")
    momentum = float(entry.get("momentum", 0.0))
    if not 0.0 <= momentum < 1.0:
        raise ConfigError(f"{where}: momentum must lie in [0, 1)")
    c = entry.get("c")
    if c is not None:
        c = float(c)
        if c <= 0:
            raise ConfigError(f"{where}: c must be positive")
    fo = zo = None
    try:
        if n1 > 0:
            fo = EstimatorConfig(kind=FIRST_ORDER,
                                 batch_size=int(entry.get("fo_batch_size", 1)))
        if n0 > 0:
            kind = entry.get("zo_kind", ZO_FORWARD)
            if kind not in ESTIMATOR_KINDS or kind == FIRST_ORDER:
                raise ConfigError(f"{where}: zo_kind must be a zeroth-order kind")
            zo = EstimatorConfig(kind=kind, batch_size=int(entry.get("zo_batch_size", 1)),
                                 rv=int(entry.get("zo_rv", 1)))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return PopulationEntry(label=label, n0=n0, n1=n1, schedule=schedule,
                           momentum=momentum, c=c, fo=fo, zo=zo)


def parse_config(path) -> ExperimentConfig:
    """Load and validate an experiment config; unknown keys are rejected."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    raw = _require_mapping(raw if raw is not None else {}, str(path))
    _check_keys(raw, _TOP_KEYS, str(path))

    name = str(raw.get("name", path.stem))
    seed = int(raw.get("seed", 0))
    T = int(raw.get("T", 1))
    if T < 0:
        raise ConfigError("T must be >= 0")
    cadence = int(raw.get("metric_cadence", 10))
    if cadence < 1:
        raise ConfigError("metric_cadence must be >= 1")
    mode = raw.get("scheduler_mode", RANDOM_MATCHING)
    if mode not in SCHEDULER_MODES:
        raise ConfigError(f"scheduler_mode: unknown mode {mode!r}")
    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a non-empty list")
    seeds = [int(s) for s in seeds]
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be unique")
    x0_scale = float(raw.get("x0_scale", 1.0))
    if x0_scale < 0:
        raise ConfigError("x0_scale must be non-negative")

    objective = raw.get("objective")
    if objective is not None:
        objective = dict(_require_mapping(objective, "objective"))
        kind = objective.get("kind")
        if kind not in _OBJECTIVE_KEYS:
            raise ConfigError(f"objective.kind: unknown kind {kind!r}")
        _check_keys(objective, _OBJECTIVE_KEYS[kind], "objective")
        if kind == "logistic_l2" and float(objective.get("lam", 0.0)) <= 0:
            raise ConfigError("objective.lam must be positive")

    dataset = raw.get("dataset")
    if dataset is not None:
        dataset = dict(_require_mapping(dataset, "dataset"))
        dkind = dataset.get("kind")
        if dkind not in _DATASET_KEYS:
            raise ConfigError(f"dataset.kind: unknown kind {dkind!r}")
        _check_keys(dataset, _DATASET_KEYS[dkind], "dataset")

    theory = raw.get("theory") or {}
    _check_keys(_require_mapping(theory, "theory"), _THEORY_KEYS, "theory")
    for key in theory:
        if key != "seed":
            theory[key] = _theory_number(key, theory[key])

    pops_raw = raw.get("populations", [])
    if not isinstance(pops_raw, list):
        raise ConfigError("populations must be a list")
    populations = [_parse_population(p, T, i) for i, p in enumerate(pops_raw)]
    labels = [p.label for p in populations]
    if len(set(labels)) != len(labels):
        raise ConfigError("population labels must be unique")

    return ExperimentConfig(name=name, seed=seed,
                            out_dir=str(raw.get("out_dir", f"results/{name}")),
                            T=T, metric_cadence=cadence, scheduler_mode=mode,
                            seeds=seeds, x0_scale=x0_scale, objective=objective,
                            dataset=dataset, populations=populations, theory=theory)


# ---------------------------------------------------------------------------
# builders


def build_dataset(dcfg, master_seed):
    """(train, validation-or-None) per the dataset section."""
    if dcfg["kind"] == "blobs":
        d = int(dcfg.get("d", 10))
        seed = int(dcfg.get("seed", fold_seed(master_seed, 97)))
        sep = float(dcfg.get("separation", 2.0))
        scale = float(dcfg.get("scale", 1.0))
        n_train = int(dcfg.get("n_train", 1000))
        n_val = int(dcfg.get("n_val", 0))
        # one pool split train/val so both come from the same distribution
        pool = make_blobs_dataset(n_train + n_val, d, seed, sep, scale)
        train = Dataset(features=pool.features[:n_train], labels=pool.labels[:n_train])
        val = None
        if n_val:
            val = Dataset(features=pool.features[n_train:], labels=pool.labels[n_train:])
        return train, val
    train = load_csv_dataset(dcfg["path"], bool(dcfg.get("has_header", False)))
    val = None
    if dcfg.get("val_path"):
        val = load_csv_dataset(dcfg["val_path"], bool(dcfg.get("val_has_header", False)))
    return train, val


def build_objective(cfg: ExperimentConfig):
    """(objective, validation dataset or None) per the config."""
    ocfg = cfg.objective
    if ocfg is None:
        raise ConfigError("config has no objective section")
    kind = ocfg["kind"]
    if kind == "quadratic":
        return make_quadratic(
            d=int(ocfg.get("d", 10)), cond=float(ocfg.get("cond", 10.0)),
            seed=int(ocfg.get("seed", fold_seed(cfg.seed, 11))),
            n_samples=int(ocfg.get("n_samples", 64)),
            grad_noise=float(ocfg.get("grad_noise", 1.0)),
            hessian_jitter=float(ocfg.get("hessian_jitter", 0.5))), None
    if cfg.dataset is None:
        raise ConfigError(f"objective kind {kind!r} needs a dataset section")
    train, val = build_dataset(cfg.dataset, cfg.seed)
    if kind == "logistic_l2":
        spec = make_logistic(train, float(cfg.objective["lam"]),
                             cfg.objective.get("positive_class"))
    else:
        spec = make_nonconvex(train, cfg.objective.get("positive_class"))
    return spec, val


def _run_cell(cfg: ExperimentConfig, pop_index: int, seed_value: int, built=None):
    """One (population, seed) cell; returns the metric records.  ``built`` is
    build_objective(cfg), made here when not given."""
    spec, val = build_objective(cfg) if built is None else built
    entry = cfg.populations[pop_index]
    partition = partition_data(spec.n_samples, entry.n0, entry.n1,
                               seed=fold_seed(cfg.seed, pop_index, seed_value, 5))
    pop_cfg = PopulationConfig(
        n0=entry.n0, n1=entry.n1, schedule=entry.schedule, T=cfg.T,
        scheduler_mode=cfg.scheduler_mode, momentum=entry.momentum, c=entry.c,
        seed=fold_seed(cfg.seed, pop_index, seed_value),
        metric_cadence=cfg.metric_cadence, zo=entry.zo, fo=entry.fo)
    # x0 shared across populations at equal seed value: comparisons start equal
    x0 = cfg.x0_scale * derive_rng([cfg.seed, seed_value], TAG_INIT).standard_normal(spec.d)
    pop = init_population(pop_cfg, spec, partition, x0)
    try:
        result = run(pop, pop_cfg,
                     val_features=None if val is None else val.features,
                     val_labels=None if val is None else val.labels)
    except DivergedError as exc:
        raise DivergedError(f"population {entry.label!r}, seed {seed_value}: {exc}") from None
    return result.records


@dataclass
class ExperimentResult:
    out_dir: Path
    csv_paths: list
    manifest_path: Path


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run every (population, seed) cell, writing per-seed CSVs, per-population
    aggregates, and a manifest with content hashes.  The objective and the
    validation set are built once and shared by all cells."""
    if not cfg.populations:
        raise ConfigError("config has no populations to run")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    built = build_objective(cfg)
    cells = [(p, s) for p in range(len(cfg.populations)) for s in cfg.seeds]
    results = {}
    if threads > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            futures = {pool.submit(_run_cell, cfg, p, s, built): (p, s) for p, s in cells}
            for fut in concurrent.futures.as_completed(futures):
                results[futures[fut]] = fut.result()
    else:
        for p, s in cells:
            results[(p, s)] = _run_cell(cfg, p, s, built)

    csv_paths = []
    for p, entry in enumerate(cfg.populations):
        per_seed = []
        for s in cfg.seeds:
            records = results[(p, s)]
            path = out_dir / f"{entry.label}_seed{s}.csv"
            _metrics.write_metrics_csv(path, records)
            csv_paths.append(path)
            per_seed.append(records)
        steps, mean, stderr = _metrics.aggregate_seeds(per_seed)
        agg_path = out_dir / f"{entry.label}_agg.csv"
        _metrics.write_aggregate_csv(agg_path, steps, mean, stderr)
        csv_paths.append(agg_path)

    manifest = {
        "name": cfg.name,
        "seed": cfg.seed,
        "seeds": cfg.seeds,
        "T": cfg.T,
        "scheduler_mode": cfg.scheduler_mode,
        "populations": [p.label for p in cfg.populations],
        "outputs": {path.name: _sha256(path) for path in csv_paths},
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return ExperimentResult(out_dir=out_dir, csv_paths=csv_paths, manifest_path=manifest_path)


# ---------------------------------------------------------------------------
# theory suite


def default_theory_suite(options=None):
    """Build and run the default verification suite; returns the reports."""
    opts = {"seed": 7, "probes": 3, "smoothing_samples": 10**6,
            "mc_samples": 100_000, "recursion_replicas": 1500,
            "nu_scale": 1.0, "eta": 0.1}
    opts.update(options or {})
    seed = int(opts["seed"])
    reports = []

    quad = make_quadratic(d=10, cond=10.0, seed=seed, n_samples=64,
                          grad_noise=1.0, hessian_jitter=0.5)
    data = make_blobs_dataset(100, 5, fold_seed(seed, 41), separation=2.0)
    logistic = make_logistic(data, lam=0.1)
    nonconvex = make_nonconvex(data)

    for spec in (quad, logistic, nonconvex):
        reports.append(_theory.check_gradcheck_all(spec, points=100, seed=seed))

    for spec in (quad, logistic):
        nu = float(opts["eta"]) / math.sqrt(spec.d) * float(opts["nu_scale"])
        probes = _theory.probe_points(spec, int(opts["probes"]), seed)
        reports.append(_theory.check_smoothing_value_gap(
            spec, nu, probes, samples=int(opts["smoothing_samples"]), seed=seed))
        reports[-1].name += f"_{spec.kind}"
        reports.append(_theory.check_smoothing_grad_bias(
            spec, nu, probes, samples=int(opts["smoothing_samples"]), seed=seed))
        reports[-1].name += f"_{spec.kind}"
        shard = np.arange(spec.n_samples // 2)
        x = probes[0]
        reports.append(_theory.check_zo_second_moment(
            spec, shard, nu, x, samples=int(opts["mc_samples"]), seed=seed))
        reports[-1].name += f"_{spec.kind}"
        reports.append(_theory.check_zo_variance_bound(
            spec, shard, nu, x, samples=int(opts["mc_samples"]), seed=seed))
        reports[-1].name += f"_{spec.kind}"

    # population-level checks on a hybrid quadratic population
    eta = float(opts["eta"])
    pop = _make_hybrid_snapshot(quad, seed=seed, eta=eta, steps=30)
    nu = eta / pop.c * float(opts["nu_scale"])
    reports.append(_theory.check_bias_aggregate(pop, nu,
                                                samples=int(opts["mc_samples"]), seed=seed))
    reports.append(_theory.check_gamma_recursion(
        quad, pop, eta, replicas=int(opts["recursion_replicas"]), seed=seed))

    rng = np.random.default_rng(np.random.SeedSequence([seed, 43]))
    for n in (3, 4, 5):
        models = rng.standard_normal((n, 4))
        centered = models - models.mean(axis=0)
        gamma_t = float(np.mean(np.sum(centered * centered, axis=1)))
        empirical = _theory.expected_gamma_pure_averaging(models)
        exact = gamma_t * (n - 2) / (n - 1)
        reports.append(_theory.BoundCheckReport(
            name=f"gamma_pure_averaging_n{n}", measured=abs(empirical - exact),
            bound=1e-12, stderr=0.0, passed=abs(empirical - exact) <= 1e-12,
            samples=n * (n - 1) // 2, seed=seed,
            detail={"gamma_t": gamma_t, "exact": exact}))
    return reports


def _make_hybrid_snapshot(spec, seed, eta, steps, n0=4, n1=4):
    """Short hybrid run producing a de-synchronized population snapshot."""
    from .estimators import ZO_ONE_SIDED

    partition = partition_data(spec.n_samples, n0, n1, seed=fold_seed(seed, 47))
    cfg = PopulationConfig(
        n0=n0, n1=n1, schedule=Schedule(eta_max=eta), T=steps,
        scheduler_mode="uniform_pair", seed=fold_seed(seed, 53), metric_cadence=10**9,
        zo=EstimatorConfig(kind=ZO_ONE_SIDED, batch_size=4, rv=4),
        fo=EstimatorConfig(kind=FIRST_ORDER, batch_size=4))
    x0 = derive_rng([seed, 59], TAG_INIT).standard_normal(spec.d)
    pop = init_population(cfg, spec, partition, x0)
    run(pop, cfg)
    return pop


def run_theory_suite(cfg: ExperimentConfig, out_dir=None):
    """Run the verification suite, write its report, print one line per
    check; returns (reports, all_passed)."""
    reports = default_theory_suite(cfg.theory)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report_path = out / "theory_report.json"
    _theory.write_report(report_path, reports)
    for report in reports:
        print(_theory.format_report_line(report))
    return reports, all(r.passed for r in reports)
