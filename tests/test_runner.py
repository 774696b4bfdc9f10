import json
from pathlib import Path

import numpy as np
import pytest

from hdopt.cli import main
from hdopt.metrics import read_metrics_csv
from hdopt.objectives import load_csv_dataset
from hdopt.runner import (
    ConfigError,
    default_theory_suite,
    fold_seed,
    parse_config,
    run_experiment,
    run_theory_suite,
)

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


def test_run_experiment_threads_match_serial(tmp_path):
    cfg = parse_config(write_tiny(tmp_path))
    serial = run_experiment(cfg)
    bytes_serial = {p.name: p.read_bytes() for p in serial.csv_paths}
    cfg2 = parse_config(write_tiny(tmp_path))
    cfg2.out_dir = str(tmp_path / "out2")
    parallel = run_experiment(cfg2, threads=2)
    for p in parallel.csv_paths:
        assert p.read_bytes() == bytes_serial[p.name]


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


def test_cli_diverged_run_exits_runtime(tmp_path, capsys):
    diverging = """\
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
    assert main(["run", str(write_tiny(tmp_path, diverging))]) == 2
    err = capsys.readouterr().err
    assert "'fo8'" in err and "seed 0" in err and "step" in err


def test_cli_gen_data_accepts_scale(tmp_path):
    plain, scaled = tmp_path / "plain.csv", tmp_path / "scaled.csv"
    assert main(["gen-data", "blobs", "n=20", "d=2", "seed=1", str(plain)]) == 0
    assert main(["gen-data", "blobs", "n=20", "d=2", "seed=1", "scale=2.0", str(scaled)]) == 0
    a, b = load_csv_dataset(plain), load_csv_dataset(scaled)
    assert np.array_equal(b.features, 2.0 * a.features)
    assert np.array_equal(b.labels, a.labels)


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
    from hdopt.theory import load_report

    back = load_report(tmp_path / "verify-out" / "theory_report.json")
    assert [r.name for r in back] == [r.name for r in reports]
    assert ok == all(r.passed for r in reports)
