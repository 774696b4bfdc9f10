"""Each output check passes on real `hdo` output and fails once that output
is corrupted.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import checks
import tracer as tracing
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from hdopt import cli  # noqa: E402


def _hdo(workload):
    """Write the workload's inputs and run its hdo command once."""
    config = workloads.prepare(workload, 3)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([workload.command, str(config)])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def quad(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("quad")
    w = workloads.pair_quad(3, out=tmp, T=1000)
    assert _hdo(w)[0] == 0
    return w


@pytest.fixture(scope="module")
def logistic(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("logistic")
    w = workloads.match_logistic(3, out=tmp, n_seeds=2)
    assert _hdo(w)[0] == 0
    return w


@pytest.fixture(scope="module")
def verify(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify")
    theory = dict(workloads.THEORY_OPTIONS, smoothing_samples=20_000, mc_samples=5_000,
                  recursion_replicas=50)
    w = workloads.verify_quad(3, out=tmp, theory=theory)
    code, stdout = _hdo(w)
    return w, code, stdout


def _copy(workload, tmp_path, name="run"):
    """A scratch copy of a run's output directory."""
    dst = tmp_path / name
    dst.mkdir()
    for path in workload.out_dir.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


def _edit_cell(out_dir, name, column, row, value, rehash=True):
    """Overwrite one CSV field; `rehash` keeps the manifest consistent so the
    check under test, not the hash check, has to catch the change."""
    path = out_dir / name
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[row if row > 0 else len(lines) + row].split(",")
    fields[header.index(column)] = value(fields[header.index(column)])
    lines[row if row > 0 else len(lines) + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    if rehash:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        manifest["outputs"][name] = checks.sha256(path)
        (out_dir / "manifest.json").write_text(json.dumps(manifest))


def _failures(workload, out_dir):
    return checks.check_run_outputs(workload, out_dir)[0]


def test_real_outputs_pass(quad, logistic, verify):
    assert _failures(quad, quad.out_dir) == []
    assert _failures(logistic, logistic.out_dir) == []
    w, code, stdout = verify
    assert code == 0
    failures, _, failed = checks.check_verify_outputs(w, w.out_dir, code, stdout)
    assert failures == [] and failed == []


QUAD_CORRUPTIONS = [
    # (file, column, row, new value, expected message)
    ("fo8", "function_evals_total", -1, lambda v: str(int(v) + 4), "closed form"),
    ("zo8", "function_evals_total", -1, lambda v: str(int(v) - 136), "closed form"),
    # T = 1000: the ZO-only total is 1000 x 2 x 4 x 17 = 136,000
    ("hybrid4fo4zo", "function_evals_total", -1, lambda v: "136000", "between"),
    ("fo8", "parallel_time", 2, lambda v: repr(float(v) + 1.0), "parallel_time"),
    ("fo8", "mu_loss_gap", -1, lambda v: "1.0", "factor of 100"),
    ("zo8", "gamma", 1, lambda v: "inf", "non-finite"),
    ("zo8", "grad_norm_sq_mu", 3, lambda v: "", "empty or non-finite"),
    ("fo8", "mt_g", 1, lambda v: "0.5", "should be empty"),
    ("fo8", "gamma", 1, lambda v: "1e-3", "gamma must start at 0"),
    ("fo8", "eta", 2, lambda v: "0.5", "eta differs"),
    ("fo8", "step", 2, lambda v: "7", "cadence"),
]


@pytest.mark.parametrize("label,column,row,value,message", QUAD_CORRUPTIONS)
def test_quad_corruption_fails(quad, tmp_path, label, column, row, value, message):
    out = _copy(quad, tmp_path)
    _edit_cell(out, f"{label}_seed{quad.seeds[0]}.csv", column, row, value)
    failures, _, failed = checks.check_run_outputs(quad, out)
    assert any(message in f for f in failures), failures
    assert failed == {(label, quad.seeds[0])}


def test_quad_aggregate_and_hash_corruption_fails(quad, tmp_path):
    out = _copy(quad, tmp_path)
    _edit_cell(out, "zo8_agg.csv", "gamma_mean", -1, lambda v: repr(float(v) * 2))
    assert any("gamma_mean is not the mean" in f for f in _failures(quad, out))
    out2 = _copy(quad, tmp_path, "run2")
    _edit_cell(out2, "fo8_agg.csv", "eta_stderr", -1, lambda v: "0.1", rehash=False)
    assert any("manifest hash" in f for f in _failures(quad, out2))


def test_repeat_with_other_bytes_fails(quad):
    _, hashes, _ = checks.check_run_outputs(quad, quad.out_dir)
    first = next(iter(hashes))
    failures, _, failed = checks.check_run_outputs(quad, quad.out_dir,
                                                   dict(hashes, **{first: "0" * 64}))
    assert failures and failed


LOGISTIC_CORRUPTIONS = [
    ("hybrid4fo16zo", "mean_val_loss", -1, lambda v: "0.9", "not below"),
    ("zo4", "mean_val_loss", -1, lambda v: "0.05", "not within"),
    ("fo4", "function_evals_total", 5, lambda v: str(int(v) + 1), "closed form"),
    ("zo16", "mean_val_acc", 4, lambda v: "1.5", "accuracy outside"),
    ("zo16", "parallel_time", -1, lambda v: repr(float(v) * 2), "parallel_time"),
    ("fo4", "mu_loss_gap", 1, lambda v: "0.1", "should be empty"),
]


@pytest.mark.parametrize("label,column,row,value,message", LOGISTIC_CORRUPTIONS)
def test_logistic_corruption_fails(logistic, tmp_path, label, column, row, value, message):
    out = _copy(logistic, tmp_path)
    _edit_cell(out, f"{label}_seed{logistic.seeds[1]}.csv", column, row, value)
    failures, _, failed = checks.check_run_outputs(logistic, out)
    assert any(message in f for f in failures), failures
    # the other seed's cell may fail too, through the population's aggregate
    assert (label, logistic.seeds[1]) in failed and {c[0] for c in failed} == {label}


def test_round_that_exits_nonzero_fails_every_operation(quad, tmp_path):
    """A round that stops early reports its operations as failed and a
    failure message, whatever it left on disk."""
    broken = dataclasses.replace(quad, config=dict(quad.config, T="many"))
    path = tmp_path / "broken.yaml"
    path.write_text(yaml.safe_dump(broken.config))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", str(path)])
    assert code not in (0, None)
    failures, hashes, failed = checks.check_round(quad, code, "")
    assert failures == [f"hdo run exited with {code}"] and failed == quad.operations
    failures, _, failed = checks.check_round(quad, None, "")
    assert failures == ["hdo run raised an exception"] and failed == quad.operations
    assert checks.check_round(quad, 3, "")[2] == quad.operations  # 3 is verify's code


def test_round_with_a_failed_check_counts_failed_operations(quad, logistic, tmp_path):
    assert checks.check_round(quad, 0, "")[::2] == ([], 0)
    out = _copy(logistic, tmp_path)
    _edit_cell(out, f"zo4_seed{logistic.seeds[0]}.csv", "mean_val_loss", -1, lambda v: "0.05")
    _edit_cell(out, "fo4_agg.csv", "gamma_mean", -1, lambda v: repr(float(v) + 1))
    moved = dataclasses.replace(logistic, config=dict(logistic.config, out_dir=str(out)))
    failures, _, failed = checks.check_round(moved, 0, "")
    # through the two aggregates, both cells of zo4 and of fo4
    assert any("zo4: final validation loss" in f for f in failures) and failed == 4
    (out / "manifest.json").unlink()
    assert checks.check_round(moved, 0, "")[2] == logistic.operations


def test_logistic_reference_solution_is_optimal(logistic):
    """The benchmark's own solver: zero gradient at its solution."""
    rng = np.random.default_rng(0)
    X, y = workloads.make_blobs(rng, 300, 4, separation=2.0, scale=4.0)
    x = workloads.solve_logistic(X, y, lam=0.01)
    s = 0.5 * (1.0 + np.tanh(0.5 * y * (X @ x)))
    grad = -(X.T @ (y * (1.0 - s))) / len(y) + 0.01 * x
    assert np.linalg.norm(grad) < 1e-10
    assert 0.2 < logistic.ref_val_loss < 0.6


def _verify_failures(w, records, code, stdout, tmp_path):
    out = tmp_path / "run"
    out.mkdir(exist_ok=True)
    (out / "theory_report.json").write_text(json.dumps(records))
    return checks.check_verify_outputs(w, out, code, stdout)


def _flip_pass(r):
    r["pass"] = not r["pass"]


VERIFY_CORRUPTIONS = [
    ("gamma_recursion", _flip_pass, "pass flag"),
    ("smoothing_value_gap_quadratic", lambda r: r.update(measured=r["measured"] * 1.01),
     "closed form"),
    ("smoothing_grad_bias_logistic_l2", lambda r: r.update(bound=r["bound"] * 1.5),
     "closed form"),
    ("zo_variance_quadratic", lambda r: r.update(bound=r["bound"] + 1.0), "closed form"),
    ("zo_variance_logistic_l2", lambda r: r["detail"].update(s_sq=r["detail"]["s_sq"] * 2),
     "s_sq differs"),
    # the smoothing term alone, nu^2 L^2 (d + 6)^3 / 2 with L = 10, d = 10
    ("zo_second_moment_quadratic",
     lambda r: r.update(bound=0.5 * r["detail"]["nu"] ** 2 * 100 * 16 ** 3), "below 2 (d + 4)"),
    ("bias_aggregate", lambda r: r.update(bound=r["bound"] * 2), "closed form"),
    ("gamma_recursion", lambda r: r["detail"].update(mean_mtg=r["detail"]["mean_mtg"] * 3),
     "closed form"),
    ("gradcheck_quadratic", lambda r: r.update(samples=7), "samples"),
    ("zo_second_moment_logistic_l2", lambda r: r.update(stderr=float("nan")), "non-finite"),
    ("gamma_pure_averaging_n4", lambda r: r.update(seed=1), "theory seed"),
]


@pytest.mark.parametrize("name,corrupt,message", VERIFY_CORRUPTIONS)
def test_verify_corruption_fails(verify, tmp_path, name, corrupt, message):
    w, code, stdout = verify
    records = json.loads((w.out_dir / "theory_report.json").read_text())
    corrupt(next(r for r in records if r["name"] == name))
    failures, _, failed = _verify_failures(w, records, code, stdout, tmp_path)
    assert any(message in f for f in failures), failures
    assert name in failed


def test_verify_exit_code_lines_and_names(verify, tmp_path):
    w, code, stdout = verify
    records = json.loads((w.out_dir / "theory_report.json").read_text())
    assert any("exit code" in f for f in _verify_failures(w, records, 3, stdout, tmp_path)[0])
    lines = "\n".join(l for l in stdout.splitlines() if "bias_aggregate" not in l)
    assert any("line printed" in f for f in _verify_failures(w, records, 0, lines, tmp_path)[0])
    assert _verify_failures(w, records[:-1], 0, stdout, tmp_path)[0]


def test_verify_reported_failure_counts_as_failed_operation(verify, tmp_path):
    """A bound the program reports as violated is a failed operation, and the
    verdict must then match measured <= bound + 3 stderr."""
    w, code, stdout = verify
    records = json.loads((w.out_dir / "theory_report.json").read_text())
    r = next(r for r in records if r["name"] == "gamma_pure_averaging_n3")
    r.update(measured=1.0, **{"pass": False})
    stdout = stdout.replace("[PASS] gamma_pure_averaging_n3", "[FAIL] gamma_pure_averaging_n3")
    failures, _, failed = _verify_failures(w, records, 3, stdout, tmp_path)
    assert failed == ["gamma_pure_averaging_n3"] and failures == []


def test_configs_are_the_benchmarks_own(tmp_path):
    """The configs the benchmark writes parse under the program's schema and
    carry the populations the checks assume."""
    from hdopt import runner

    for make in (workloads.pair_quad, workloads.match_logistic, workloads.verify_quad):
        w = make(5, out=tmp_path / make.__name__)
        path = tmp_path / f"{make.__name__}.yaml"
        path.write_text(yaml.safe_dump(w.config))
        cfg = runner.parse_config(path)
        if w.command == "run":
            assert [(p.label, p.n0, p.n1) for p in cfg.populations] == \
                [(p.label, p.n0, p.n1) for p in w.populations]
            assert len(str(cfg.seed)) == 6 and all(len(str(s)) == 6 for s in cfg.seeds)


def test_tracer_leaves_the_call_count_and_outputs_unchanged(quad):
    """Wrappers are invisible to the call counter, attribute every span to a
    layer, and leave the program's outputs byte-identical."""
    argv = ["run", str(quad.out_dir.parent / "config.yaml")]
    counter = tracing.CallCounter({_hdo.__code__.co_filename,
                                   tracing.Tracer._wrap.__code__.co_filename})
    tracer = tracing.Tracer(counter)
    _, reference, _ = checks.check_run_outputs(quad, quad.out_dir)
    counts = []
    for spans in (False, True, False):
        if spans:
            tracer.install()
        before = counter.calls
        with contextlib.redirect_stdout(io.StringIO()):
            counter.start()
            try:
                cli.main(argv)
            finally:
                counter.stop()
        tracer.uninstall()
        counts.append(counter.calls - before)
        assert checks.check_run_outputs(quad, quad.out_dir, reference)[0] == []
    assert counts[0] == counts[1] == counts[2]
    totals = tracing.layer_totals(tracer.stats)
    assert totals["protocol"][tracing.ENTRIES] > 0
    assert totals["estimators"][tracing.ENTRIES] == 2 * quad.interactions
    assert not tracer._patches
