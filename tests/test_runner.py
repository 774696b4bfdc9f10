import hashlib
import json
import platform
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import hdopt
from hdopt import runner
from hdopt.cli import main
from hdopt.metrics import write_metrics_csv
from hdopt.objectives import load_csv_dataset
from hdopt.protocol import fold_seed
from hdopt.runner import (
    ConfigError,
    bundled_openblas,
    parse_config,
    process_pool,
    run_experiment,
    run_theory_suite,
)
from hdopt.theory import default_theory_suite

from conftest import read_metrics_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

TINY_CONFIG = """\
name: tiny
seed: 5
out_dir: {out}
T: 30
metric_cadence: 10
scheduler_mode: uniform_pair
seeds: [0, 1, 2]
objective:
  kind: quadratic
  d: 4
  cond: 5.0
  n_samples: 16
populations:
  - label: fo2
    n0: 0
    n1: 2
    eta: 0.05
    fo_batch_size: 4
  - label: hybrid
    n0: 2
    n1: 2
    eta: 0.05
    fo_batch_size: 4
    zo_kind: zo_biased_one_sided
    zo_rv: 4
    zo_batch_size: 4
"""


def write_tiny(tmp_path, text=None):
    cfg_path = tmp_path / "tiny.yaml"
    cfg_path.write_text((text or TINY_CONFIG).format(out=tmp_path / "out"))
    return cfg_path


# ---------------------------------------------------------------------------
# config parsing


def test_shipped_configs_parse():
    cfg = parse_config(CONFIG_DIR / "fig2-desk.yaml")
    assert cfg.name == "fig2-desk"
    assert len(cfg.seeds) == 10
    sizes = {(p.n0, p.n1) for p in cfg.populations}
    # the reference populations mirroring the full-scale design at desk scale
    assert {(0, 4), (16, 0), (16, 4)} <= sizes
    parse_config(CONFIG_DIR / "quad-desk.yaml")


def test_unknown_key_rejected_by_name(tmp_path):
    path = write_tiny(tmp_path, TINY_CONFIG + "typo_key: 3\n")
    with pytest.raises(ConfigError, match="typo_key"):
        parse_config(path)


def test_empty_population_rejected(tmp_path):
    bad = TINY_CONFIG.replace("n0: 0\n    n1: 2", "n0: 0\n    n1: 0")
    with pytest.raises(ConfigError, match="n0"):
        parse_config(write_tiny(tmp_path, bad))


def test_negative_eta_rejected(tmp_path):
    bad = TINY_CONFIG.replace("eta: 0.05\n    fo_batch_size: 4\n  - label",
                              "eta: -0.05\n    fo_batch_size: 4\n  - label")
    with pytest.raises(ConfigError):
        parse_config(write_tiny(tmp_path, bad))


def test_duplicate_labels_rejected(tmp_path):
    bad = TINY_CONFIG.replace("label: hybrid", "label: fo2")
    with pytest.raises(ConfigError, match="unique"):
        parse_config(write_tiny(tmp_path, bad))


def test_missing_config_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/nope.yaml")


def test_fold_seed_deterministic():
    assert fold_seed(1, 2, 3) == fold_seed(1, 2, 3)
    assert fold_seed(1, 2, 3) != fold_seed(1, 2, 4)


# ---------------------------------------------------------------------------
# experiment runs


def test_run_experiment_file_counts(tmp_path):
    cfg = parse_config(write_tiny(tmp_path))
    result = run_experiment(cfg)
    per_seed = [p for p in result.csv_paths if "_seed" in p.name]
    aggregates = [p for p in result.csv_paths if p.name.endswith("_agg.csv")]
    assert len(per_seed) == 2 * 3  # 2 populations x 3 seeds
    assert len(aggregates) == 2
    assert result.manifest_path.exists()
    manifest = json.loads(result.manifest_path.read_text())
    assert set(manifest["outputs"]) == {p.name for p in result.csv_paths}
    header, mat = read_metrics_csv(result.out_dir / "fo2_seed0.csv")
    assert mat.shape[0] == 4  # steps 0, 10, 20, 30


def test_run_experiment_rerun_identical(tmp_path):
    cfg = parse_config(write_tiny(tmp_path))
    first = run_experiment(cfg)
    bytes_first = {p.name: p.read_bytes() for p in first.csv_paths}
    second = run_experiment(cfg)
    for p in second.csv_paths:
        assert p.read_bytes() == bytes_first[p.name]


@pytest.mark.parametrize("name, T", [("quad-desk", 2000), ("fig2-desk", None)])
def test_each_seed_of_a_stack_writes_the_bytes_of_its_run_alone(tmp_path, name, T):
    cfg = parse_config(CONFIG_DIR / f"{name}.yaml")
    cfg.T, cfg.out_dir = T or cfg.T, str(tmp_path / "all")
    seeds = cfg.seeds
    assert len(seeds) > 1 and len(run_experiment(cfg).csv_paths) > 0
    for s in seeds:
        cfg.seeds, cfg.out_dir = [s], str(tmp_path / f"seed{s}")
        alone = [p for p in run_experiment(cfg).csv_paths if p.name.endswith(f"_seed{s}.csv")]
        assert len(alone) == len(cfg.populations)
        for path in alone:
            assert path.read_bytes() == (tmp_path / "all" / path.name).read_bytes(), path.name


MIXED_UNITS = """\
name: mixed
seed: 9
out_dir: {out}
T: 61
metric_cadence: 7
scheduler_mode: %s
seeds: [0, 3]
objective:
  kind: quadratic
  d: 4
  cond: 4.0
  n_samples: 30
populations:
  - label: one_sided5
    n0: 3
    n1: 2
    eta: {{mode: warmup_cosine, eta_max: 0.05, eta_min: 0.01, warmup_steps: 6}}
    momentum: 0.5
    c: 2.5
    fo_batch_size: 2
    zo_kind: zo_biased_one_sided
    zo_rv: 3
    zo_batch_size: 2
  - label: central4
    n0: 4
    eta: 0.04
    zo_kind: zo_biased_central
    zo_rv: 2
    zo_batch_size: 3
  - label: forward6
    n0: 2
    n1: 4
    eta: 0.03
    fo_batch_size: 2
    zo_kind: zo_unbiased_forward
    zo_rv: 3
    zo_batch_size: 2
  - label: gossip3
    n1: 3
    eta: 0.0
"""


@pytest.mark.parametrize("mode", ["uniform_pair", "random_matching"])
def test_run_experiment_threads_match_serial(tmp_path, mode):
    # units of odd and even n, of one-sided, central and forward kinds (whose
    # Gaussian rows differ in width), with momentum and a c of their own on
    # one population, warmup_cosine on one and constant rates on the others,
    # and a gossip population: each unit's CSV is the bytes of its run in a
    # stack of its own, whether the units run as one stack or as 2 or 3
    cfg = parse_config(write_tiny(tmp_path, MIXED_UNITS % mode))
    spec, val = runner.build_objective(cfg)
    alone = {}
    for p, entry in enumerate(cfg.populations):
        for k, s in enumerate(cfg.seeds):
            records, _, _ = runner._run_cell(cfg, p * len(cfg.seeds) + k,
                                             (runner._stack(cfg, [(p, s)], spec), val))
            path = tmp_path / f"alone-{entry.label}_seed{s}.csv"
            write_metrics_csv(path, records[0])
            alone[f"{entry.label}_seed{s}.csv"] = path.read_bytes()
    aggregates = None
    for threads in (1, 2, 3):
        cfg.out_dir = str(tmp_path / f"threads{threads}")
        result = run_experiment(cfg, threads=threads)
        manifest = json.loads(result.manifest_path.read_text())
        assert [len(stack["units"]) for stack in manifest["stacks"]] == [
            8 * (i + 1) // threads - 8 * i // threads for i in range(threads)]
        for name, want in alone.items():
            assert (result.out_dir / name).read_bytes() == want, (threads, name)
        agg = {p.name: p.read_bytes() for p in result.csv_paths if p.name.endswith("_agg.csv")}
        assert aggregates is None or agg == aggregates
        aggregates = agg


def test_manifest_records_the_config_versions_and_stacks(tmp_path):
    # observability without touching the CSVs: the manifest names what ran
    # and how fast, and the output hashes stay those of the files
    cfg_path = write_tiny(tmp_path)
    outputs = None
    for threads in (1, 2):
        cfg = parse_config(cfg_path)
        cfg.out_dir = str(tmp_path / f"threads{threads}")
        result = run_experiment(cfg, threads=threads)
        manifest = json.loads(result.manifest_path.read_text())
        assert manifest["config_sha256"] == hashlib.sha256(cfg_path.read_bytes()).hexdigest()
        assert manifest["versions"] == {"hdopt": hdopt.__version__,
                                        "python": platform.python_version(),
                                        "numpy": np.__version__}
        assert manifest["metric_cadence"] == 10
        stacks = manifest["stacks"]
        assert [u for stack in stacks for u in stack["units"]] == [
            f"{label}_seed{s}" for label in ("fo2", "hybrid") for s in (0, 1, 2)]
        assert len(stacks) == threads
        for stack in stacks:
            assert stack["wall_s"] > 0 and stack["interactions"] == 30 * len(stack["units"])
            assert stack["interactions_per_s"] == stack["interactions"] / stack["wall_s"]
        assert manifest["outputs"] == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                       for p in result.csv_paths}
        assert outputs is None or manifest["outputs"] == outputs
        outputs = manifest["outputs"]


def _blas_threads(_):
    return bundled_openblas().scipy_openblas_get_num_threads64_()


def test_process_pool_workers_run_blas_on_one_thread():
    lib = bundled_openblas()
    if lib is None:
        pytest.skip("numpy is not linked against its bundled OpenBLAS")
    before = lib.scipy_openblas_get_num_threads64_()
    with process_pool(2) as pool:
        assert list(pool.map(_blas_threads, range(4))) == [1] * 4
    assert lib.scipy_openblas_get_num_threads64_() == before  # this process keeps its own


def test_run_experiment_csv_dataset(tmp_path):
    data_path = tmp_path / "train.csv"
    assert main(["gen-data", "blobs", "n=60", "d=3", "seed=4", str(data_path)]) == 0
    cfg_text = """\
name: csvrun
seed: 2
out_dir: {out}
T: 10
metric_cadence: 5
scheduler_mode: random_matching
seeds: [0]
objective:
  kind: logistic_l2
  lam: 0.01
dataset:
  kind: csv
  path: %s
populations:
  - label: duo
    n0: 1
    n1: 1
    eta: 0.05
    fo_batch_size: 2
    zo_kind: zo_unbiased_forward
    zo_rv: 4
    zo_batch_size: 2
""" % data_path
    cfg = parse_config(write_tiny(tmp_path, cfg_text))
    result = run_experiment(cfg)
    assert (result.out_dir / "duo_seed0.csv").exists()


def test_csv_dataset_parsed_once_per_run(tmp_path, monkeypatch):
    import hdopt.runner as runner

    paths = []
    for name, seed in (("train.csv", 4), ("val.csv", 5)):
        paths.append(tmp_path / name)
        assert main(["gen-data", "blobs", "n=40", "d=3", f"seed={seed}", str(paths[-1])]) == 0
    cfg_text = """\
name: csvonce
seed: 2
out_dir: {out}
T: 6
metric_cadence: 3
scheduler_mode: random_matching
seeds: [0, 1]
objective:
  kind: logistic_l2
  lam: 0.01
dataset:
  kind: csv
  path: %s
  val_path: %s
populations:
  - label: fo2
    n1: 2
    eta: 0.05
  - label: zo2
    n0: 2
    eta: 0.05
""" % tuple(paths)
    cfg = parse_config(write_tiny(tmp_path, cfg_text))
    calls = []

    def counting_load(*args, **kwargs):
        calls.append(args[0])
        return load_csv_dataset(*args, **kwargs)

    monkeypatch.setattr(runner, "load_csv_dataset", counting_load)
    serial = run_experiment(cfg)
    assert len(calls) == 2  # train and validation, not twice per cell
    bytes_serial = {p.name: p.read_bytes() for p in serial.csv_paths}
    cfg.out_dir = str(tmp_path / "out2")
    parallel = run_experiment(cfg, threads=2)
    assert len(calls) == 4
    for p in parallel.csv_paths:
        assert p.read_bytes() == bytes_serial[p.name]


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_and_overrides(tmp_path):
    cfg_path = write_tiny(tmp_path)
    out = tmp_path / "cli-out"
    code = main(["run", str(cfg_path), "--seeds", "0,1", "--out-dir", str(out),
                 "--metric-cadence", "15"])
    assert code == 0
    assert (out / "fo2_seed0.csv").exists()
    assert not (out / "fo2_seed2.csv").exists()


def test_cli_config_error_exit_code(tmp_path):
    assert main(["run", str(tmp_path / "missing.yaml")]) == 1
    cfg_path = write_tiny(tmp_path, TINY_CONFIG + "bogus: 1\n")
    assert main(["run", str(cfg_path)]) == 1
    assert main(["run", str(write_tiny(tmp_path)), "--seeds", "0,0"]) == 1


def test_cli_runtime_error_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    cfg_path = write_tiny(tmp_path)
    assert main(["run", str(cfg_path), "--out-dir", str(blocker / "sub")]) == 2


def test_cli_gen_data_round_trip(tmp_path):
    out = tmp_path / "blobs.csv"
    assert main(["gen-data", "blobs", "n=50", "d=4", "seed=9", str(out)]) == 0
    ds = load_csv_dataset(out)
    assert len(ds) == 50 and ds.d_in == 4
    assert set(np.unique(ds.labels)) == {-1.0, 1.0}
    assert main(["gen-data", "blobs", "n=10", "d=2", "wat=1", str(out)]) == 1


@pytest.mark.parametrize("param", ["n=2.5", "seed=1.7", "d=3.5", "separation=nan", "scale=inf",
                                   "scale=-inf", "n=many", "seed=-1", "n=1", "d=0"])
def test_cli_gen_data_rejects_bad_numbers(tmp_path, capsys, param):
    out = tmp_path / "blobs.csv"
    assert main(["gen-data", "blobs", "n=20", "d=2", "seed=1", param, str(out)]) == 1
    assert not out.exists()
    assert f"config error: {param.split('=')[0]} must be" in capsys.readouterr().err


CSV_RUN = """\
name: csvcheck
seed: 2
out_dir: {out}
T: 20
metric_cadence: 10
scheduler_mode: random_matching
seeds: [0]
objective:
  kind: logistic_l2
  lam: 0.01%s
dataset:
  kind: csv
  path: %s
  val_path: %s
populations:
  - label: fo2
    n1: 2
    eta: 0.05
"""


def _csv_run_config(tmp_path, objective_extra=""):
    paths = [tmp_path / "train.csv", tmp_path / "val.csv"]
    for path, seed in zip(paths, (4, 5)):
        assert main(["gen-data", "blobs", "n=40", "d=3", f"seed={seed}", str(path)]) == 0
    return write_tiny(tmp_path, CSV_RUN % (objective_extra, *paths)), paths


@pytest.mark.parametrize("which", [0, 1], ids=["train", "val"])
def test_cli_run_rejects_non_finite_csv_values(tmp_path, capsys, which):
    # bad input, not a diverged run (train) or an empty mean_val_loss
    # column (validation)
    cfg_path, paths = _csv_run_config(tmp_path)
    lines = paths[which].read_text().splitlines()
    lines[6] = "nan," + lines[6].split(",", 1)[1]
    paths[which].write_text("\n".join(lines) + "\n")
    assert main(["run", str(cfg_path)]) == 1
    assert f"{paths[which]}: row 7: non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # found while building: no output at all


@pytest.mark.parametrize("edit, message", [
    (lambda line: "0.5," + line, "has 4 feature columns"),  # on every row, so not ragged
    (lambda line: line.rsplit(",", 1)[0] + ",2", "labels must be binary"),
], ids=["width", "labels"])
def test_cli_run_rejects_a_bad_validation_file_before_it_runs(tmp_path, capsys, edit, message):
    # checked while the objective is built, naming the section and the file,
    # not found mid-run by the first validation record
    cfg_path, paths = _csv_run_config(tmp_path)
    paths[1].write_text("\n".join(map(edit, paths[1].read_text().splitlines())) + "\n")
    assert main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: dataset: {paths[1]}: ") and message in err
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_positive_class_absent_from_training_labels(tmp_path, capsys):
    # gen-data labels are -1 and +1; positive_class 2 would map every label to -1
    cfg_path, _ = _csv_run_config(tmp_path, "\n  positive_class: 2")
    assert main(["run", str(cfg_path)]) == 1
    assert "positive_class 2 matches no training label" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    cfg_path, _ = _csv_run_config(tmp_path, "\n  positive_class: -1")
    assert main(["run", str(cfg_path)]) == 0


DIVERGING = """\
name: diverge
seed: 5
out_dir: {out}
T: 300
metric_cadence: 100
scheduler_mode: uniform_pair
seeds: [0]
objective:
  kind: quadratic
populations:
  - label: fo8
    n1: 8
    eta: 50
    fo_batch_size: 4
"""


def test_cli_diverged_run_exits_runtime(tmp_path, capsys):
    assert main(["run", str(write_tiny(tmp_path, DIVERGING))]) == 2
    err = capsys.readouterr().err
    assert "'fo8'" in err and "seed 0" in err and "step" in err


def test_cli_diverged_stack_names_its_first_seed_in_config_order(tmp_path, capsys):
    # one error line: the overflow on the way raises no numpy warning
    text = DIVERGING.replace("T: 300", "T: 200").replace("seeds: [0]", "seeds: [7, 2]")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(write_tiny(tmp_path, text))]) == 2
    assert capsys.readouterr().err == (
        "runtime error: population 'fo8', seed 7: metrics are non-finite at step 200\n")


TWO_DIVERGING = """\
name: diverge2
seed: 5
out_dir: {out}
T: 600
metric_cadence: 20
scheduler_mode: uniform_pair
seeds: [0, 1]
objective:
  kind: quadratic
populations:
  - label: slow
    n1: 8
    eta: %s
    fo_batch_size: 4
  - label: fast
    n1: 8
    eta: 50
    fo_batch_size: 4
"""


@pytest.mark.parametrize("slow_eta, line", [
    # the second population's non-finite record comes first (step 120 against
    # 280): it is named, though its stack is the later one at --threads 2
    (2, "population 'fast', seed 0: metrics are non-finite at step 120"),
    # a tie at one step goes to the first unit in config order
    (50, "population 'slow', seed 0: metrics are non-finite at step 120"),
], ids=["second-first", "tie"])
def test_cli_diverged_run_names_the_earliest_unit_whatever_the_threads(tmp_path, capsys,
                                                                        slow_eta, line):
    cfg_path = write_tiny(tmp_path, TWO_DIVERGING % slow_eta)
    for threads in ("1", "2"):
        assert main(["run", str(cfg_path), "--threads", threads]) == 2
        assert capsys.readouterr().err == f"runtime error: {line}\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_with_overflowing_metrics_exits_runtime(tmp_path, capsys):
    # at step 200 the models are still finite, but gamma, the loss gap and
    # the gradient norm overflow to inf: the run is diverged all the same
    text = DIVERGING.replace("T: 300", "T: 200")
    assert main(["run", str(write_tiny(tmp_path, text))]) == 2
    err = capsys.readouterr().err
    assert "'fo8'" in err and "seed 0" in err and "step 200" in err


def test_cli_gen_data_accepts_scale(tmp_path):
    plain, scaled = tmp_path / "plain.csv", tmp_path / "scaled.csv"
    assert main(["gen-data", "blobs", "n=20", "d=2", "seed=1", str(plain)]) == 0
    assert main(["gen-data", "blobs", "n=20", "d=2", "seed=1", "scale=2.0", str(scaled)]) == 0
    a, b = load_csv_dataset(plain), load_csv_dataset(scaled)
    assert np.array_equal(b.features, 2.0 * a.features)
    assert np.array_equal(b.labels, a.labels)


@pytest.mark.parametrize("option, value, field", [
    ("--seeds", "0,-1", "--seeds[1]"), ("--seeds", "0,x", "--seeds[1]"), ("--seeds", "", "--seeds"),
    ("--seeds", "0,,1", "--seeds[1]"),
    ("--out-dir", "", "--out-dir"),
    ("--metric-cadence", "0", "--metric-cadence"), ("--metric-cadence", "1.5", "--metric-cadence"),
    ("--threads", "x", "--threads"), ("--threads", "0", "--threads")])
def test_cli_rejects_bad_overrides_by_name(tmp_path, capsys, option, value, field):
    # checked as the config's own fields are: exit 1 naming the option, and
    # no output directory
    out = tmp_path / "never"
    assert main(["run", str(write_tiny(tmp_path)), "--out-dir", str(out), option, value]) == 1
    assert f"config error: {field} must be" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_nonpositive_cadence_and_threads(tmp_path):
    cfg_path = str(write_tiny(tmp_path))
    out = str(tmp_path / "never")
    assert main(["run", cfg_path, "--out-dir", out, "--metric-cadence", "0"]) == 1
    assert main(["run", cfg_path, "--out-dir", out, "--threads", "0"]) == 1
    assert main(["run", cfg_path, "--out-dir", out, "--threads", "-3"]) == 1
    assert not (tmp_path / "never").exists()


def test_cli_verify_exit_codes(tmp_path, monkeypatch):
    cfg_path = write_tiny(tmp_path)
    import hdopt.cli as cli

    monkeypatch.setattr(cli, "run_theory_suite", lambda cfg, out_dir=None: ([], True))
    assert main(["verify", str(cfg_path)]) == 0
    monkeypatch.setattr(cli, "run_theory_suite", lambda cfg, out_dir=None: ([], False))
    assert main(["verify", str(cfg_path)]) == 3


# ---------------------------------------------------------------------------
# theory suite wiring


FAST_THEORY = {"probes": 1, "smoothing_samples": 20_000, "mc_samples": 10_000,
               "recursion_replicas": 300}


@pytest.mark.parametrize("option, value", [
    ("smoothing_samples", 0), ("mc_samples", 0), ("probes", 0), ("smoothing_samples", -5),
    ("recursion_replicas", 1), ("eta", 0), ("nu_scale", 0), ("probes", 2.5)])
def test_cli_verify_rejects_bad_theory_option(tmp_path, capsys, option, value):
    theory = dict(FAST_THEORY, **{option: value})
    text = TINY_CONFIG + "theory:\n" + "".join(f"  {k}: {v}\n" for k, v in theory.items())
    out = tmp_path / "verify-out"
    assert main(["verify", str(write_tiny(tmp_path, text)), "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"theory.{option}" in captured.err
    assert captured.out == "" and not out.exists()  # no check ran


def test_cli_verify_rejects_an_empty_out_dir(tmp_path, capsys, monkeypatch):
    # an empty --out-dir names no directory: the report must not go into the
    # current directory (hdo run's own case is in test_cli_rejects_bad_overrides_by_name)
    monkeypatch.chdir(tmp_path)
    theory = "theory:\n" + "".join(f"  {k}: {v}\n" for k, v in FAST_THEORY.items())
    cfg_path = write_tiny(tmp_path, TINY_CONFIG + theory)
    before = sorted(tmp_path.iterdir())
    assert main(["verify", str(cfg_path), "--out-dir", ""]) == 1
    captured = capsys.readouterr()
    assert "config error: --out-dir must" in captured.err and captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_rejects_an_empty_out_dir_in_the_config(tmp_path, capsys, monkeypatch, command):
    # out_dir: "" names no directory: nothing may be written to the current one
    monkeypatch.chdir(tmp_path)
    cfg_path = write_tiny(tmp_path, TINY_CONFIG.replace("out_dir: {out}", 'out_dir: ""'))
    before = sorted(tmp_path.iterdir())
    assert main([command, str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert "config error: out_dir must" in captured.err and captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


FO2_ETA = "eta: 0.05\n    fo_batch_size: 4\n  - label: hybrid"
QUADRATIC = "kind: quadratic\n  d: 4\n  cond: 5.0\n  n_samples: 16\n"
BLOBS = "kind: logistic_l2\n  lam: 0.1\ndataset:\n  kind: blobs\n  n_train: 16\n  d: 4\n"


@pytest.mark.parametrize("old, new, field", [
    (FO2_ETA, FO2_ETA.replace("0.05", ".nan"), "populations[0].eta"),
    (FO2_ETA, FO2_ETA.replace("0.05", ".inf"), "populations[0].eta"),
    (FO2_ETA, FO2_ETA.replace("0.05", "\n      mode: warmup_cosine\n      eta_max: .inf"),
     "populations[0].eta.eta_max"),
    ("T: 30", "T: 30\nx0_scale: .nan", "x0_scale"),
    (FO2_ETA, FO2_ETA.replace("  - label", "    c: .nan\n  - label"), "populations[0].c"),
    (FO2_ETA, FO2_ETA.replace("0.05", "true"), "populations[0].eta"),
    ("T: 30", "T: 20.7", "T"),
    ("n1: 2\n    eta: 0.05\n    fo_batch_size: 4\n  - label: hybrid",
     "n1: 3.9\n    eta: 0.05\n    fo_batch_size: 4\n  - label: hybrid", "populations[0].n1"),
    (FO2_ETA, FO2_ETA.replace("size: 4", "size: 2.5"), "populations[0].fo_batch_size"),
    ("T: 30", "T: 1e3", "T"),
    ("T: 30", "T: 30\ntheory:\n  smoothing_samples: 1e6", "theory.smoothing_samples"),
    ("seed: 5", "seed: -1", "seed"),
    ("seeds: [0, 1, 2]", "seeds: [0, -1]", "seeds[1]"),
    (QUADRATIC, QUADRATIC + "  seed: -1\n", "objective.seed"),
    (QUADRATIC, BLOBS + "  seed: -1\n", "dataset.seed"),
    ("T: 30", "T: 30\ntheory:\n  seed: -1", "theory.seed"),
    (QUADRATIC, BLOBS.replace("n_train: 16", "n_train: 40\n  n_val: -1"), "dataset.n_val"),
    (QUADRATIC, BLOBS.replace("n_train: 16", "n_train: 0"), "dataset.n_train"),
    (QUADRATIC, BLOBS.replace("d: 4", "d: 0"), "dataset.d"),
], ids=["eta-nan", "eta-inf", "cosine-eta_max-inf", "x0_scale-nan", "c-nan", "eta-true",
        "T-fraction", "n1-fraction", "fo_batch_size-fraction", "T-string",
        "smoothing_samples-string", "seed-negative", "seeds-negative",
        "objective-seed-negative", "dataset-seed-negative", "theory-seed-negative",
        "n_val-negative", "n_train-zero", "blobs-d-zero"])
def test_cli_rejects_bad_numbers_at_parse_time(tmp_path, capsys, old, new, field):
    # non-finite, boolean, fractional, string, negative-seed or out-of-range
    # blobs values of numeric fields, under one rule: exit 1 naming the
    # field, before anything runs
    assert old in TINY_CONFIG
    cfg_path = str(write_tiny(tmp_path, TINY_CONFIG.replace(old, new, 1)))
    out = tmp_path / "never"
    command = "verify" if field.startswith("theory.") else "run"
    assert main([command, cfg_path, "--out-dir", str(out)]) == 1
    assert f"{field} must be" in capsys.readouterr().err
    assert not out.exists()


def _run_rejected(tmp_path, capsys, text, *options):
    """Run ``text`` as a config; assert exit 1, no output and no output
    directory, and return the message."""
    out = tmp_path / "never"
    assert main(["run", str(write_tiny(tmp_path, text)), "--out-dir", str(out), *options]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert not out.exists()
    return captured.err


CSV = "kind: logistic_l2\n  lam: 0.1\ndataset:\n  kind: csv\n"


@pytest.mark.parametrize("old, new, message", [
    (QUADRATIC, CSV, "missing key 'dataset.path'"),
    (QUADRATIC, CSV + "  path: 0\n", "dataset.path must be a string, got 0"),
    (QUADRATIC, CSV + "  path: [a]\n", "dataset.path must be a string, got ['a']"),
    (QUADRATIC, CSV + "  path: t.csv\n  has_header: 'no'\n",
     "dataset.has_header must be true or false, got 'no'"),
    (QUADRATIC, CSV + "  path: t.csv\n  val_path: 1\n", "dataset.val_path must be a string"),
    ("label: fo2", "label: 7", "populations[0].label must be a string, got 7"),
    ("name: tiny", "name: 2024", "name must be a string, got 2024"),
    ("scheduler_mode: uniform_pair", "scheduler_mode: uniform", "scheduler_mode must be one of"),
    ("zo_kind: zo_biased_one_sided", "zo_kind: first_order", "populations[1].zo_kind must be one of"),
    (FO2_ETA, FO2_ETA.replace("0.05", "\n      mode: cosine\n      eta_max: 0.05"),
     "populations[0].eta.mode must be one of"),
    (QUADRATIC, QUADRATIC.replace("quadratic", "quad"), "objective.kind must be one of"),
    (QUADRATIC, QUADRATIC + "  lam: 0.1\n", "unknown key 'objective.lam'"),
], ids=["csv-no-path", "path-int", "path-list", "has_header-string", "val_path-int", "label-int",
        "name-int", "scheduler_mode-unknown", "zo_kind-first-order", "eta-mode-unknown",
        "objective-kind-unknown", "quadratic-lam"])
def test_cli_rejects_bad_fields_by_name(tmp_path, capsys, old, new, message):
    # string, flag and choice fields are checked at parse time as numbers are
    assert old in TINY_CONFIG
    err = _run_rejected(tmp_path, capsys, TINY_CONFIG.replace(old, new, 1))
    assert err.startswith(f"config error: {message}")


@pytest.mark.parametrize("new, message", [
    (BLOBS.replace("n_train: 16", "n_train: 1"), "dataset: need n >= 2 samples"),
    (QUADRATIC.replace("cond: 5.0", "cond: 0.5"), "objective: condition number must be >= 1"),
    (QUADRATIC + "  hessian_jitter: 2\n", "objective: hessian_jitter must lie in [0, 1]"),
    (QUADRATIC.replace("n_samples: 16", "n_samples: 1"), "objective: need at least 2 samples"),
    (QUADRATIC.replace("d: 4", "d: 0"), "objective: d must be >= 1"),
    (CSV + "  path: no-such-train.csv\n", "dataset: path 'no-such-train.csv' names no file"),
    # any existing file will do for path: both names are looked for before either is read
    (CSV + f"  path: {CONFIG_DIR / 'quad-desk.yaml'}\n  val_path: no-such-val.csv\n",
     "dataset: val_path 'no-such-val.csv' names no file"),
], ids=["blobs-one-sample", "cond-below-one", "hessian_jitter-above-one", "n_samples-one",
        "quadratic-d-zero", "csv-path-missing", "csv-val_path-missing"])
def test_cli_builder_errors_name_their_section(tmp_path, capsys, new, message):
    err = _run_rejected(tmp_path, capsys, TINY_CONFIG.replace(QUADRATIC, new, 1))
    assert err.startswith(f"config error: {message}")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("seeds, first", [("[0, 1, 2]", 0), ("[7, 3]", 7)],
                         ids=["seeds-0-1-2", "seeds-7-3"])
@pytest.mark.parametrize("edits, message", [
    # two first-order agents over one training sample: one shard is empty
    ([(QUADRATIC, BLOBS.replace("n_train: 16", "n_train: 1\n  n_val: 1")),
      ("size: 4", "size: 1")], "shard must be non-empty"),
    ([(FO2_ETA, FO2_ETA.replace("size: 4", "size: 30"))], "batch_size exceeds shard size"),
], ids=["empty-shard", "batch-over-shard"])
def test_cli_cell_errors_name_the_population(tmp_path, capsys, edits, message, seeds, first,
                                              threads):
    # found when a cell sets up its population: named with its first seed's
    # value (not its position), and still no directory
    text = TINY_CONFIG
    for old, new in [*edits, ("seeds: [0, 1, 2]", f"seeds: {seeds}")]:
        assert old in text
        text = text.replace(old, new, 1)
    err = _run_rejected(tmp_path, capsys, text, "--threads", threads)
    assert err.startswith(f"config error: population 'fo2', seed {first}: ") and message in err


def test_set_up_errors_stop_the_run_before_any_worker_starts(tmp_path, capsys, monkeypatch):
    # every population is partitioned and set up before the pool starts
    import hdopt.runner as runner

    def no_pool(workers):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr(runner, "process_pool", no_pool)
    text = TINY_CONFIG.replace("zo_batch_size: 4", "zo_batch_size: 30", 1)
    err = _run_rejected(tmp_path, capsys, text, "--threads", "2")
    assert err.startswith("config error: population 'hybrid', seed 0: batch_size exceeds shard")


def test_readme_config_schema_parses_and_names_every_key(tmp_path):
    import hdopt.runner as runner

    readme = (CONFIG_DIR.parent / "README.md").read_text()
    block = readme.split("## Config schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(write_tiny(tmp_path, block.replace("{", "{{").replace("}", "}}")))
    assert cfg.name == "fig2-desk" and [p.label for p in cfg.populations] == ["hybrid4fo16zo"]
    tables = [runner._TOP, runner._POPULATION, runner._ETA, runner._THEORY,
              *runner._OBJECTIVES.values(), *runner._DATASETS.values()]
    for key in {"kind"}.union(*tables):
        assert re.search(rf"\b{key}\b", block), key


def _hdopt_parameters():
    """Name -> the parameter names of each function, class and method of
    that name that a module of hdopt defines."""
    import importlib
    import inspect
    import pkgutil

    import hdopt

    params = {}
    for info in pkgutil.iter_modules(hdopt.__path__):
        module = importlib.import_module(f"hdopt.{info.name}")
        for obj in vars(module).values():
            if not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            methods = [f for f in vars(obj).values() if inspect.isfunction(f)] \
                if inspect.isclass(obj) else []
            for fn in (obj, *methods):
                try:
                    names = set(inspect.signature(fn).parameters)
                except ValueError:  # an exception class that inherits its signature from C
                    continue
                params.setdefault(fn.__name__, []).append(names)
    return params


def test_readme_calls_name_hdopt_functions_and_their_parameters():
    # every backticked call `name(args)` in the README, name possibly dotted,
    # calls something hdopt defines with parameter names it has; the names
    # of builtins (`len`) are skipped
    import builtins

    params = _hdopt_parameters()
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    calls = re.findall(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`", readme)
    assert calls
    for dotted, text in calls:
        name = dotted.rsplit(".", 1)[-1]
        if name not in params:
            assert hasattr(builtins, name), f"{dotted} is not in hdopt"
            continue
        args = {arg.split("=")[0].strip() for arg in text.split(",")} - {"", "...", "\u2026"}
        assert any(args <= names for names in params[name]), f"{dotted}({text}): {args}"


def test_theory_suite_quadratic_checks_pass_fast_options():
    reports = default_theory_suite(dict(FAST_THEORY))
    names = {r.name for r in reports}
    assert {"gradcheck_quadratic", "gradcheck_logistic_l2",
            "gradcheck_sigmoid_sq_nonconvex", "smoothing_value_gap_quadratic",
            "bias_aggregate", "gamma_recursion", "gamma_pure_averaging_n3"} <= names
    quad_reports = [r for r in reports if r.name.endswith("_quadratic")
                    or "gamma" in r.name or r.name == "bias_aggregate"]
    for report in quad_reports:
        assert report.passed, report


def test_theory_suite_inflated_nu_still_bounded():
    base = default_theory_suite(dict(FAST_THEORY))
    inflated = default_theory_suite(dict(FAST_THEORY, nu_scale=100.0))
    pick = lambda reports: {r.name: r for r in reports}["smoothing_grad_bias_logistic_l2"]
    a, b = pick(base), pick(inflated)
    assert b.bound > a.bound * 50
    assert b.measured >= a.measured  # larger smoothing radius, larger bias
    assert b.passed


def test_theory_suite_default_options_all_pass():
    # the shipped `verify` suite at its real sample sizes
    reports = default_theory_suite()
    failures = [r for r in reports if not r.passed]
    assert not failures, failures


def test_run_theory_suite_writes_report(tmp_path, capsys):
    cfg = parse_config(write_tiny(tmp_path, TINY_CONFIG + """\
theory:
  probes: 1
  smoothing_samples: 20000
  mc_samples: 10000
  recursion_replicas: 300
"""))
    reports, ok = run_theory_suite(cfg, out_dir=tmp_path / "verify-out")
    out = capsys.readouterr().out
    assert out.count("[PASS]") + out.count("[FAIL]") == len(reports)
    back = json.loads((tmp_path / "verify-out" / "theory_report.json").read_text())
    assert [r["name"] for r in back] == [r.name for r in reports]
    assert ok == all(r.passed for r in reports)
