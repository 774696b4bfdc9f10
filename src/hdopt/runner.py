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
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from . import metrics as _metrics
from .estimators import (
    FIRST_ORDER,
    ZO_CENTRAL,
    ZO_FORWARD,
    ZO_ONE_SIDED,
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


_REQUIRED = object()  # the default of a key that must be given
_TYPES = {str: "a string", bool: "true or false", list: "a list"}  # rules that are types

# rules for _number
_NUMBER = {}  # a finite number
_NONNEG = {"least": 0.0}
_POSITIVE = {"least": 0.0, "strict": True}
_INT = {"integer": True}
_INT0 = {"least": 0, "integer": True}
_INT1 = {"least": 1, "integer": True}

# One rule table per section: key -> (rule, default); see _section.  The
# objective's and the dataset's tables depend on their kind, and the
# builders check the ranges of those sections' numbers beyond these rules.
_TOP = {
    "name": (str, None), "seed": (_INT0, 0), "out_dir": (str, None), "T": (_INT0, 1),
    "metric_cadence": (_INT1, 10), "scheduler_mode": (SCHEDULER_MODES, RANDOM_MATCHING),
    "seeds": (None, [0]), "x0_scale": (_NONNEG, 1.0), "objective": (None, None),
    "dataset": (None, None), "populations": (list, []), "theory": (None, None)}
_OBJECTIVES = {
    "quadratic": {"d": (_INT, None), "cond": (_NUMBER, None), "n_samples": (_INT, None),
                  "grad_noise": (_NUMBER, None), "hessian_jitter": (_NUMBER, None),
                  "seed": (_INT0, None)},
    "logistic_l2": {"lam": (_POSITIVE, _REQUIRED), "positive_class": (None, None)},
    "sigmoid_sq_nonconvex": {"positive_class": (None, None)},
}
_DATASETS = {
    "blobs": {"n_train": (_INT1, None), "n_val": (_INT0, None), "d": (_INT1, None),
              "separation": (_NUMBER, None), "scale": (_NUMBER, None), "seed": (_INT0, None)},
    "csv": {"path": (str, _REQUIRED), "has_header": (bool, None), "val_path": (str, None),
            "val_has_header": (bool, None)},
}
_POPULATION = {
    "label": (str, _REQUIRED), "n0": (_INT0, 0), "n1": (_INT0, 0), "eta": (None, _REQUIRED),
    "momentum": (_NONNEG, 0.0), "c": (_POSITIVE, None), "fo_batch_size": (_INT1, 1),
    "zo_kind": ((ZO_ONE_SIDED, ZO_CENTRAL, ZO_FORWARD), ZO_FORWARD),
    "zo_rv": (_INT1, 1), "zo_batch_size": (_INT1, 1)}
# a population's eta is one of these mappings, or a number: its eta_max
_ETA = {"mode": (("constant", "warmup_cosine"), "constant"), "eta_max": (_NONNEG, 0.0),
        "eta_min": (_NONNEG, 0.0), "warmup_steps": (_INT0, 0)}
# default_theory_suite holds the defaults
_THEORY = {"seed": (_INT0, None), "probes": (_INT1, None), "smoothing_samples": (_INT1, None),
           "mc_samples": (_INT1, None), "recursion_replicas": ({"least": 2, "integer": True}, None),
           "nu_scale": (_POSITIVE, None), "eta": (_POSITIVE, None)}


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


def _section(raw, rules, where):
    """The keys of one config section, by its rule table ``rules``: key ->
    (rule, default).  A rule is a dict of :func:`_number`'s arguments, a type
    of _TYPES, a tuple of the allowed values, or None (the value passes to its
    own parser).  A key not given takes its default, or stays absent when that
    is None; unknown keys and missing _REQUIRED ones are errors.  Messages
    name the field: ``where.key``, or ``key`` when ``where`` is empty."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'the config'} must be a mapping")
    prefix = f"{where}." if where else ""
    out = {}
    for key, (rule, default) in rules.items():
        field = prefix + key
        if key not in raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing key {field!r}")
            if default is not None:
                out[key] = default
            continue
        value = raw[key]
        if isinstance(rule, dict):
            value = _number(field, value, **rule)
        elif isinstance(rule, tuple) and value not in rule:
            raise ConfigError(f"{field} must be one of {', '.join(rule)}, got {value!r}")
        elif isinstance(rule, type) and type(value) is not rule:
            raise ConfigError(f"{field} must be {_TYPES[rule]}, got {value!r}")
        out[key] = value
    for key in raw:
        if key not in rules:
            raise ConfigError(f"unknown key {prefix + str(key)!r}")
    return out


def _kind_section(raw, tables, where):
    """A section whose ``kind``, a key of ``tables``, picks its rule table."""
    kind = raw.get("kind") if isinstance(raw, dict) else None
    return _section(raw, {"kind": (tuple(tables), _REQUIRED), **tables.get(kind, {})}, where)


def parse_seeds(seeds, where):
    """A non-empty list of unique seeds, each an integer >= 0."""
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError(f"{where} must be a non-empty list")
    seeds = [_number(f"{where}[{i}]", s, **_INT0) for i, s in enumerate(seeds)]
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
    sha256: str | None = None  # of the config file's bytes


def _build(where, builder, *args, **kwargs):
    """builder(*args, **kwargs), a ValueError re-raised as a ConfigError naming ``where``."""
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_population(entry, T, index):
    where = f"populations[{index}]"
    entry = _section(entry, _POPULATION, where)
    eta = entry["eta"]
    if not isinstance(eta, dict):  # a constant rate: the rule of eta_max, named eta
        eta = {"eta_max": _section({"eta": eta}, {"eta": _ETA["eta_max"]}, where)["eta"]}
    eta = _section(eta, _ETA, f"{where}.eta")
    schedule = _build(f"{where}.eta", Schedule, **eta, total_steps=T)
    fo = zo = None
    if entry["n1"] > 0:
        fo = EstimatorConfig(kind=FIRST_ORDER, batch_size=entry["fo_batch_size"])
    if entry["n0"] > 0:
        zo = EstimatorConfig(kind=entry["zo_kind"], batch_size=entry["zo_batch_size"],
                             rv=entry["zo_rv"])
    return _build(where, PopulationConfig, label=entry["label"], n0=entry["n0"], n1=entry["n1"],
                  schedule=schedule, momentum=entry["momentum"], c=entry.get("c"), zo=zo, fo=fo)


def parse_config(path) -> ExperimentConfig:
    """Load and validate an experiment config; unknown keys are rejected."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    data = path.read_bytes()
    try:
        raw = yaml.safe_load(data.decode("utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    top = _section(raw if raw is not None else {}, _TOP, "")  # the ExperimentConfig fields
    top.setdefault("name", path.stem)
    top.setdefault("out_dir", f"results/{top['name']}")
    if top["out_dir"] == "":  # names no directory: the outputs would land in the cwd
        raise ConfigError("out_dir must be a non-empty path, got ''")
    top["seeds"] = parse_seeds(top["seeds"], "seeds")
    for key, tables in (("objective", _OBJECTIVES), ("dataset", _DATASETS)):
        top[key] = None if top.get(key) is None else _kind_section(top[key], tables, key)
    top["theory"] = _section(top.get("theory") or {}, _THEORY, "theory")
    pops = [_parse_population(p, top["T"], i) for i, p in enumerate(top["populations"])]
    if len({p.label for p in pops}) != len(pops):
        raise ConfigError("population labels must be unique")
    return ExperimentConfig(**{**top, "populations": pops},
                            sha256=hashlib.sha256(data).hexdigest())


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
    for key in ("path", "val_path") if dcfg.get("val_path") else ("path",):
        if not Path(dcfg[key]).is_file():  # every file is looked for before any is read
            raise ValueError(f"{key} {dcfg[key]!r} names no file")
    train = load_csv_dataset(dcfg["path"], dcfg.get("has_header", False))
    val = None
    if dcfg.get("val_path"):
        val = load_csv_dataset(dcfg["val_path"], dcfg.get("val_has_header", False))
    return train, val


def build_objective(cfg: ExperimentConfig):
    """(objective, validation dataset or None) per the config; a builder's
    error names its section.  The validation set is checked here, against
    the objective (its width and its labels), so that a bad validation file
    fails before anything runs."""
    ocfg = cfg.objective
    if ocfg is None:
        raise ConfigError("config has no objective section")
    # every key of the section but kind is a parameter of the kind's builder
    kind, params = ocfg["kind"], {k: v for k, v in ocfg.items() if k != "kind"}
    if kind == "quadratic":
        params = {"d": 10, "cond": 10.0, "seed": fold_seed(cfg.seed, 11), **params}
        return _build("objective", make_quadratic, **params), None
    if cfg.dataset is None:
        raise ConfigError(f"objective kind {kind!r} needs a dataset section")
    train, val = _build("dataset", build_dataset, cfg.dataset, cfg.seed)
    make = make_logistic if kind == "logistic_l2" else make_nonconvex
    spec = _build("objective", make, train, **params)
    if val is not None:
        _build(f"dataset: {cfg.dataset.get('val_path', 'validation set')}",
               _metrics.validation_set, spec, val.features, val.labels)
    return spec, val


def _stack(cfg: ExperimentConfig, units, spec):
    """One stack of the units ``units``, (population index, seed value) pairs
    in config order, each under its population's config; the stack runs the
    experiment's T, scheduler mode and cadence."""
    cfgs = [cfg.populations[p] for p, _ in units]
    partitions, X0 = [], []
    for (p, s), entry in zip(units, cfgs):
        # x0 shared across populations at equal seed value: comparisons start equal
        X0.append(cfg.x0_scale * derive_rng(cfg.seed, s, TAG_INIT).standard_normal(spec.d))
        partitions.append(partition_data(spec.n_samples, entry.n0, entry.n1,
                                         fold_seed(cfg.seed, p, s, 5)))
    return init_population(cfgs, spec, partitions, X0,
                           [fold_seed(cfg.seed, p, s) for p, s in units], T=cfg.T,
                           scheduler_mode=cfg.scheduler_mode, metric_cadence=cfg.metric_cadence)


def _run_cell(cfg: ExperimentConfig, start: int, built):
    """Run ``built``, (:func:`_stack`'s stack of the units start, start + 1,
    ... in config order, the validation set or None); returns (each unit's
    records, or the :class:`DivergedError` that names its first diverged
    unit; the run's wall seconds; its interactions).  The error's ``unit``
    is the unit's index in config order."""
    pop, val = built
    t0 = time.perf_counter()
    try:
        result = run(pop, val_features=None if val is None else val.features,
                     val_labels=None if val is None else val.labels).records
    except DivergedError as exc:
        p, s = divmod(start + exc.unit, len(cfg.seeds))
        result = DivergedError(f"population {cfg.populations[p].label!r}, seed {cfg.seeds[s]}: "
                               f"{exc}", start + exc.unit, exc.step)
    return result, time.perf_counter() - t0, pop.interactions


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
    """Run every (population, seed) unit as one stack, or, with ``threads``
    k > 1, as min(k, units) stacks of contiguous units in config order, one
    process each; write per-seed CSVs, per-population aggregates, and a
    manifest with content hashes, the config's hash, the library versions
    and each stack's units, wall seconds and throughput.  Every stack is set
    up before any runs, so a set-up error stops the run first.  A diverged
    run raises the :class:`DivergedError` of the unit whose non-finite
    record comes at the earliest step, the first in config order among
    equals, however the units are split."""
    if not cfg.populations:
        raise ConfigError("config has no populations to run")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    spec, val = build_objective(cfg)
    units = [(p, s) for p in range(len(cfg.populations)) for s in cfg.seeds]
    k = min(threads, len(units))
    bounds = [len(units) * i // k for i in range(k + 1)]
    try:
        built = [(_stack(cfg, units[a:b], spec), val) for a, b in zip(bounds, bounds[1:])]
    except ValueError:
        # no set-up error depends on the seed (shard sizes follow from m, n0
        # and n1 alone): the first population that fails alone, at its first
        # seed, is named
        for p, entry in enumerate(cfg.populations):
            _build(f"population {entry.label!r}, seed {cfg.seeds[0]}", _stack, cfg,
                   [(p, cfg.seeds[0])], spec)
        raise
    if k > 1:
        with process_pool(k) as pool:
            results = list(pool.map(_run_cell, [cfg] * k, bounds[:-1], built))
    else:
        results = [_run_cell(cfg, 0, built[0])]
    diverged = [r for r, _, _ in results if isinstance(r, DivergedError)]
    if diverged:
        raise min(diverged, key=lambda exc: (exc.step, exc.unit))
    records = [unit for r, _, _ in results for unit in r]  # per unit, in config order

    out_dir = Path(cfg.out_dir)  # after the runs: bad input leaves no directory
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_paths = []
    S = len(cfg.seeds)
    for p, entry in enumerate(cfg.populations):
        per_seed = records[p * S:(p + 1) * S]
        for s, unit in zip(cfg.seeds, per_seed):
            path = out_dir / f"{entry.label}_seed{s}.csv"
            _metrics.write_metrics_csv(path, unit)
            csv_paths.append(path)
        steps, mean, stderr = _metrics.aggregate_seeds(per_seed)
        agg_path = out_dir / f"{entry.label}_agg.csv"
        _metrics.write_aggregate_csv(agg_path, steps, mean, stderr)
        csv_paths.append(agg_path)

    manifest = {
        "name": cfg.name,
        "seed": cfg.seed,
        "seeds": cfg.seeds,
        "T": cfg.T,
        "metric_cadence": cfg.metric_cadence,
        "scheduler_mode": cfg.scheduler_mode,
        "populations": [p.label for p in cfg.populations],
        "config_sha256": cfg.sha256,
        "versions": {"hdopt": __version__, "python": platform.python_version(),
                     "numpy": np.__version__},
        "stacks": [{"units": [f"{cfg.populations[p].label}_seed{s}" for p, s in units[a:b]],
                    "wall_s": wall, "interactions": count,
                    "interactions_per_s": count / wall if wall > 0 else None}
                   for a, b, (_, wall, count) in zip(bounds, bounds[1:], results)],
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
