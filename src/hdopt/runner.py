"""Experiment driver: config parsing, seeded grids, CSV/report output.

Config files are YAML with a fixed schema (see configs/ for a canonical
example); unknown keys are rejected by name.  Every per-stream seed is
derived from (master seed, population index, seed value, purpose tag) via
numpy SeedSequence, so a (config, master seed) pair determines every output
byte except manifest timestamps.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import metrics as _metrics
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
    fold_seed,
    init_population,
    run,
)
from .theory import default_theory_suite, format_report_line, write_report


class ConfigError(ValueError):
    """Raised for schema violations and invalid experiment parameters."""


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
# least values of the integer theory options; eta and nu_scale are numbers > 0
_THEORY_INT_MIN = {"seed": 0, "probes": 1, "smoothing_samples": 1, "mc_samples": 1,
                   "recursion_replicas": 2}
# the integer fields of the objective and dataset sections; the builders
# check the ranges of these sections' numbers, except the least values here:
# a seed is >= 0, and a blobs split has n_train >= 1 and n_val >= 0 (only the
# dataset builder reads the split sizes, and its errors name no field)
_INTEGER_FIELDS = {"d", "n_samples", "seed", "n_train", "n_val"}
_INTEGER_MIN = {"seed": 0, "n_train": 1, "n_val": 0}


def _require_mapping(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping")
    return value


def _check_keys(mapping, allowed, where):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _number(where, value, least=None, integer=False, strict=False):
    """A numeric field, checked at parse time so that a bad value fails before
    anything runs: a finite int or float (not a bool or a string), whole when
    ``integer``, and >= ``least`` (> ``least`` when ``strict``)."""
    ok = type(value) in (int, float) and -math.inf < value < math.inf
    if ok and integer and type(value) is float:
        ok = value.is_integer()
    if ok and least is not None:
        ok = value > least if strict else value >= least
    if not ok:
        want = "an integer" if integer else "a number"
        if least is not None:
            want += f" {'>' if strict else '>='} {least}"
        raise ConfigError(f"{where} must be {want}, got {value!r}")
    return int(value) if integer else float(value)


def parse_seeds(seeds, where):
    """A non-empty list of unique seeds, each an integer >= 0."""
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"{where} must be a non-empty list")
    seeds = [_number(f"{where}[{i}]", s, 0, integer=True) for i, s in enumerate(seeds)]
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{where} must be unique")
    return seeds


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
    if not isinstance(value, dict):
        return Schedule(eta_max=_number(where, value, 0.0))
    _check_keys(value, _ETA_KEYS, where)
    eta_max, eta_min = (_number(f"{where}.{key}", value.get(key, 0.0), 0.0)
                        for key in ("eta_max", "eta_min"))
    warmup = _number(f"{where}.warmup_steps", value.get("warmup_steps", 0), 0, integer=True)
    try:
        return Schedule(eta_max=eta_max, mode=value.get("mode", "constant"), eta_min=eta_min,
                        warmup_steps=warmup, total_steps=T)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_population(entry, T, index):
    where = f"populations[{index}]"
    entry = _require_mapping(entry, where)
    _check_keys(entry, _POP_KEYS, where)
    for key in ("label", "eta"):
        if key not in entry:
            raise ConfigError(f"{where}: missing key {key!r}")
    n0, n1 = (_number(f"{where}.{key}", entry.get(key, 0), 0, integer=True)
              for key in ("n0", "n1"))
    schedule = _parse_schedule(entry["eta"], T, f"{where}.eta")
    momentum = _number(f"{where}.momentum", entry.get("momentum", 0.0), 0.0)
    c = entry.get("c")
    if c is not None:
        c = _number(f"{where}.c", c, 0.0, strict=True)
    size = {key: _number(f"{where}.{key}", entry.get(key, 1), 1, integer=True)
            for key in ("fo_batch_size", "zo_batch_size", "zo_rv")}
    fo = zo = None
    if n1 > 0:
        fo = EstimatorConfig(kind=FIRST_ORDER, batch_size=size["fo_batch_size"])
    if n0 > 0:
        kind = entry.get("zo_kind", ZO_FORWARD)
        if kind not in ESTIMATOR_KINDS or kind == FIRST_ORDER:
            raise ConfigError(f"{where}: zo_kind must be a zeroth-order kind")
        zo = EstimatorConfig(kind=kind, batch_size=size["zo_batch_size"], rv=size["zo_rv"])
    try:  # T, the scheduler mode, the cadence and the seed are set per cell (_run_cell)
        return PopulationConfig(label=str(entry["label"]), n0=n0, n1=n1, schedule=schedule,
                                momentum=momentum, c=c, zo=zo, fo=fo)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


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
    seed = _number("seed", raw.get("seed", 0), 0, integer=True)
    T = _number("T", raw.get("T", 1), 0, integer=True)
    cadence = _number("metric_cadence", raw.get("metric_cadence", 10), 1, integer=True)
    mode = raw.get("scheduler_mode", RANDOM_MATCHING)
    if mode not in SCHEDULER_MODES:
        raise ConfigError(f"scheduler_mode: unknown mode {mode!r}")
    seeds = parse_seeds(raw.get("seeds", [0]), "seeds")
    x0_scale = _number("x0_scale", raw.get("x0_scale", 1.0), 0.0)

    objective = raw.get("objective")
    if objective is not None:
        objective = dict(_require_mapping(objective, "objective"))
        kind = objective.get("kind")
        if kind not in _OBJECTIVE_KEYS:
            raise ConfigError(f"objective.kind: unknown kind {kind!r}")
        _check_keys(objective, _OBJECTIVE_KEYS[kind], "objective")
        for key in objective:
            if key not in ("kind", "positive_class"):
                objective[key] = _number(f"objective.{key}", objective[key],
                                         _INTEGER_MIN.get(key), integer=key in _INTEGER_FIELDS)
        if kind == "logistic_l2":
            _number("objective.lam", objective.get("lam"), 0.0, strict=True)

    dataset = raw.get("dataset")
    if dataset is not None:
        dataset = dict(_require_mapping(dataset, "dataset"))
        dkind = dataset.get("kind")
        if dkind not in _DATASET_KEYS:
            raise ConfigError(f"dataset.kind: unknown kind {dkind!r}")
        _check_keys(dataset, _DATASET_KEYS[dkind], "dataset")
        for key in dataset:
            if dkind == "blobs" and key != "kind":
                dataset[key] = _number(f"dataset.{key}", dataset[key],
                                       _INTEGER_MIN.get(key), integer=key in _INTEGER_FIELDS)

    theory = raw.get("theory") or {}
    _check_keys(_require_mapping(theory, "theory"), _THEORY_KEYS, "theory")
    for key in theory:
        integer = key in _THEORY_INT_MIN
        theory[key] = _number(f"theory.{key}", theory[key], _THEORY_INT_MIN.get(key, 0.0),
                              integer, strict=not integer)

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
        n_train, n_val = dcfg.get("n_train", 1000), dcfg.get("n_val", 0)
        shape = {key: dcfg[key] for key in ("separation", "scale") if key in dcfg}
        # one pool split train/val so both come from the same distribution
        pool = make_blobs_dataset(n_train + n_val, dcfg.get("d", 10),
                                  dcfg.get("seed", fold_seed(master_seed, 97)), **shape)
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
    if kind == "quadratic":  # every other key of the section is a make_quadratic parameter
        return make_quadratic(**{"d": 10, "cond": 10.0, "seed": fold_seed(cfg.seed, 11),
                                 **{k: v for k, v in ocfg.items() if k != "kind"}}), None
    if cfg.dataset is None:
        raise ConfigError(f"objective kind {kind!r} needs a dataset section")
    train, val = build_dataset(cfg.dataset, cfg.seed)
    if kind == "logistic_l2":
        spec = make_logistic(train, ocfg["lam"], ocfg.get("positive_class"))
    else:
        spec = make_nonconvex(train, ocfg.get("positive_class"))
    return spec, val


def _run_cell(cfg: ExperimentConfig, pop_index: int, seed_value: int, built=None):
    """One (population, seed) cell; returns the metric records.  ``built`` is
    build_objective(cfg), made here when not given."""
    spec, val = build_objective(cfg) if built is None else built
    entry = cfg.populations[pop_index]
    partition = partition_data(spec.n_samples, entry.n0, entry.n1,
                               seed=fold_seed(cfg.seed, pop_index, seed_value, 5))
    pop_cfg = replace(entry, T=cfg.T, scheduler_mode=cfg.scheduler_mode,
                      metric_cadence=cfg.metric_cadence,
                      seed=fold_seed(cfg.seed, pop_index, seed_value))
    # x0 shared across populations at equal seed value: comparisons start equal
    x0 = cfg.x0_scale * derive_rng(cfg.seed, seed_value, TAG_INIT).standard_normal(spec.d)
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


def bundled_openblas():
    """numpy's bundled OpenBLAS (the scipy-openblas64 build of its wheels) as
    a ctypes library, or None when numpy was built against another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(str(path))
        lib.scipy_openblas_set_num_threads64_.argtypes = (ctypes.c_int,)
        lib.scipy_openblas_set_num_threads64_.restype = None
        lib.scipy_openblas_get_num_threads64_.argtypes = ()
        lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
        return lib
    return None


def _one_blas_thread():
    lib = bundled_openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


def process_pool(workers: int):
    """A pool of ``workers`` processes, each running BLAS on one thread: the
    pool already keeps the cores busy, and a BLAS thread per core in every
    worker would oversubscribe them."""
    return concurrent.futures.ProcessPoolExecutor(max_workers=workers,
                                                  initializer=_one_blas_thread)


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run every (population, seed) cell, writing per-seed CSVs, per-population
    aggregates, and a manifest with content hashes.  The objective and the
    validation set are built once and shared by all cells."""
    if not cfg.populations:
        raise ConfigError("config has no populations to run")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    built = build_objective(cfg)  # before any output: bad input leaves no directory
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = [(p, s) for p in range(len(cfg.populations)) for s in cfg.seeds]
    results = {}
    if threads > 1:
        with process_pool(threads) as pool:
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


def run_theory_suite(cfg: ExperimentConfig, out_dir=None):
    """Run the verification suite, write its report, print one line per
    check; returns (reports, all_passed)."""
    reports = default_theory_suite(cfg.theory)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_report(out / "theory_report.json", reports)
    for report in reports:
        print(format_report_line(report))
    return reports, all(r.passed for r in reports)
