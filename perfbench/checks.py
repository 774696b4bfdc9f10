"""Checks of `hdo` outputs against independent computations and method properties.

Each check returns a list of failure messages; an empty list means the
output passed.  Nothing here imports `hdopt`: the CSVs, the manifest and the
theory report are read as files, and every expected value comes from a
closed form, from the workload's own reference computation, or from a
property every correct run has (for example, all agents start at one model,
so the variance potential is 0 at step 0).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import VERIFY_REPORTS

COLUMNS = ("step", "parallel_time", "eta", "gamma", "mu_loss_gap", "grad_norm_sq_mu",
           "mean_val_loss", "mean_val_acc", "mt_g", "function_evals_total")
# columns left empty because they are not sampled (mt_g) or not applicable
EMPTY_COLUMNS = {"pair-quad": ("mean_val_loss", "mean_val_acc", "mt_g"),
                 "match-logistic": ("mu_loss_gap", "mt_g")}
RTOL = 1e-9


class Table:
    """A metrics CSV: float values, NaN where a field is empty."""

    def __init__(self, header, values, empty):
        self.header = list(header)
        self.values = values
        self.empty = empty

    def col(self, name):
        return self.values[:, self.header.index(name)]


def read_table(path) -> Table:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError(f"{path}: ragged rows")
    empty = np.array([[field == "" for field in r] for r in rows], dtype=bool)
    values = np.array([[float(field) if field else math.nan for field in r] for r in rows])
    return Table(header, values.reshape(len(rows), len(header)), empty.reshape(values.shape))


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(a, b, rtol=RTOL):
    return math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=1e-300)


def _interactions_per_step(workload, pop):
    if workload.scheduler == "uniform_pair":
        return 1
    if pop.n % 2:
        raise ValueError("closed-form counts assume every agent interacts each step")
    return pop.n // 2


# ---------------------------------------------------------------------------
# `hdo run`


def check_cell(workload, pop, table: Table) -> list:
    """One (population, seed) metrics CSV."""
    where = f"{pop.label}"
    if tuple(table.header) != COLUMNS:
        return [f"{where}: header {table.header} is not {list(COLUMNS)}"]
    failures = []
    na = EMPTY_COLUMNS[workload.name]
    for name in COLUMNS:
        idx = table.header.index(name)
        if name in na:
            if not table.empty[:, idx].all():
                failures.append(f"{where}: column {name} should be empty")
        elif table.empty[:, idx].any() or not np.isfinite(table.values[:, idx]).all():
            failures.append(f"{where}: column {name} has empty or non-finite values")
    if failures:
        return failures

    step = table.col("step")
    expected_steps = np.arange(0, workload.T + 1, workload.cadence)
    if expected_steps[-1] != workload.T:
        expected_steps = np.append(expected_steps, workload.T)
    if step.shape != expected_steps.shape or not np.array_equal(step, expected_steps):
        return [f"{where}: records at steps {step[:3]}..{step[-1:]} do not follow the cadence"]

    if not np.all(table.col("eta") == workload.eta(pop)):
        failures.append(f"{where}: eta differs from the constant {workload.eta(pop)}")
    per_step = _interactions_per_step(workload, pop)
    ptime = step * per_step / pop.n
    if not np.allclose(table.col("parallel_time"), ptime, rtol=RTOL, atol=0.0):
        failures.append(f"{where}: parallel_time is not step x {per_step} / {pop.n}")
    gamma = table.col("gamma")
    # all agents start at one x0, so gamma is 0 up to the rounding of the mean
    if not 0.0 <= gamma[0] <= 1e-20 or np.any(gamma < 0):
        failures.append(f"{where}: gamma must start at 0 (shared x0) and stay >= 0")
    if np.any(table.col("grad_norm_sq_mu") < 0):
        failures.append(f"{where}: negative squared gradient norm")
    failures += _check_evals(workload, pop, step, table.col("function_evals_total"))

    if workload.name == "pair-quad":
        gap = table.col("mu_loss_gap")
        if np.any(gap < 0) or not gap[-1] * workload.gap_drop <= gap[0]:
            failures.append(f"{where}: loss gap fell from {gap[0]:.4g} to {gap[-1]:.4g}, "
                            f"not by a factor of {workload.gap_drop:g}")
    else:
        loss, acc = table.col("mean_val_loss"), table.col("mean_val_acc")
        if not loss[-1] < loss[0]:
            failures.append(f"{where}: final validation loss {loss[-1]:.4f} is not below "
                            f"the step-0 loss {loss[0]:.4f}")
        if not abs(loss[-1] - workload.ref_val_loss) <= workload.val_margin:
            failures.append(f"{where}: final validation loss {loss[-1]:.4f} is not within "
                            f"{workload.val_margin} of {workload.ref_val_loss:.4f}, the loss "
                            "at the solution of the training problem")
        if np.any((acc < 0) | (acc > 1)):
            failures.append(f"{where}: accuracy outside [0, 1]")
    return failures


def _check_evals(workload, pop, step, evals) -> list:
    """Function-evaluation totals from closed forms."""
    where = f"{pop.label}"
    fo, zo = pop.evals_per_estimate(True), pop.evals_per_estimate(False)
    if np.any(np.diff(evals) < 0):
        return [f"{where}: function_evals_total decreases"]
    if workload.scheduler == "random_matching":
        # every agent makes one estimate per matching step
        expected = step * (pop.n1 * fo + pop.n0 * zo)
        if not np.array_equal(evals, expected):
            return [f"{where}: function_evals_total {evals[-1]:.0f} != closed form "
                    f"{expected[-1]:.0f}"]
        return []
    # uniform_pair: two estimates per interaction, of one kind unless hybrid
    if pop.n0 == 0 or pop.n1 == 0:
        expected = step * 2 * (fo if pop.n0 == 0 else zo)
        if not np.array_equal(evals, expected):
            return [f"{where}: function_evals_total {evals[-1]:.0f} != closed form "
                    f"{expected[-1]:.0f}"]
        return []
    lo, hi = step * 2 * min(fo, zo), step * 2 * max(fo, zo)
    if np.any(evals < lo) or np.any(evals > hi) or not lo[-1] < evals[-1] < hi[-1]:
        return [f"{where}: hybrid function_evals_total {evals[-1]:.0f} is not between the "
                f"FO-only {lo[-1]:.0f} and ZO-only {hi[-1]:.0f} totals"]
    return []


def check_aggregate(workload, pop, agg: Table, per_seed: list) -> list:
    """Per-population mean/stderr file against the benchmark's own reduction."""
    where = f"{pop.label}_agg"
    expected_header = ["step"] + [f"{c}_{s}" for c in COLUMNS[1:] for s in ("mean", "stderr")]
    if agg.header != expected_header:
        return [f"{where}: unexpected header"]
    stack = np.stack([t.values[:, 1:] for t in per_seed])
    k = stack.shape[0]
    mean = stack.mean(axis=0)
    stderr = np.zeros_like(mean) if k == 1 else stack.std(axis=0, ddof=1) / math.sqrt(k)
    if not np.array_equal(agg.col("step"), per_seed[0].col("step")):
        return [f"{where}: steps differ from the per-seed files"]
    failures = []
    for c, name in enumerate(COLUMNS[1:]):
        for label, want in (("mean", mean[:, c]), ("stderr", stderr[:, c])):
            got = agg.col(f"{name}_{label}")
            if not np.allclose(got, want, rtol=RTOL, atol=1e-12, equal_nan=True):
                failures.append(f"{where}: {name}_{label} is not the {label} over "
                                f"{k} seed files")
    return failures


def check_run_outputs(workload, out_dir, reference_hashes=None):
    """All outputs of one `hdo run` round.

    Returns (failures, hashes, failed_cells): the failure messages, the
    hashes of every file named in the manifest (to compare with the next
    round's), and the (population label, seed) cells the failures concern.
    """
    out_dir = Path(out_dir)
    all_cells = {(p.label, s) for p in workload.populations for s in workload.seeds}

    def cells_of(names):
        """The cells whose outputs include the named files."""
        return {(label, s) for label, s in all_cells
                for name in names if name in (f"{label}_seed{s}.csv", f"{label}_agg.csv")}

    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        return ["manifest.json missing"], {}, all_cells
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    outputs = manifest.get("outputs", {})
    expected = {f"{p.label}_seed{s}.csv" for p in workload.populations for s in workload.seeds}
    expected |= {f"{p.label}_agg.csv" for p in workload.populations}
    if set(outputs) != expected:
        return [f"manifest lists {len(outputs)} outputs, expected {len(expected)}"], {}, all_cells
    failures, failed = [], set()
    hashes = {}
    for name in sorted(expected):
        path = out_dir / name
        if not path.exists():
            failures.append(f"{name} missing")
            failed |= cells_of([name])
            continue
        hashes[name] = sha256(path)
        if outputs[name] != hashes[name]:
            failures.append(f"{name}: manifest hash does not match the file")
            failed |= cells_of([name])
    if failures:
        return failures, hashes, failed
    for pop in workload.populations:
        tables = [read_table(out_dir / f"{pop.label}_seed{s}.csv") for s in workload.seeds]
        for seed, table in zip(workload.seeds, tables):
            messages = check_cell(workload, pop, table)
            failures += [f"seed {seed}: {m}" for m in messages]
            if messages:
                failed.add((pop.label, seed))
        if all(t.values.shape == tables[0].values.shape for t in tables):
            messages = check_aggregate(workload, pop,
                                       read_table(out_dir / f"{pop.label}_agg.csv"), tables)
            failures += messages
            if messages:
                failed |= cells_of([f"{pop.label}_agg.csv"])
    changed = changed_outputs(hashes, reference_hashes)
    if changed:
        failures.append(f"outputs differ from the first round: {', '.join(changed[:3])}")
        failed |= cells_of(changed)
    return failures, hashes, failed


def changed_outputs(hashes, reference_hashes) -> list:
    """Files whose bytes differ from the first round's: repeats within one
    invocation must write byte-identical outputs."""
    if reference_hashes is None:
        return []
    return sorted(k for k in set(hashes) | set(reference_hashes)
                  if hashes.get(k) != reference_hashes.get(k))


def check_round(workload, exit_code, stdout_text, reference_hashes=None):
    """One round of a workload's `hdo` command, from its exit code on.

    Returns (failures, hashes, failed): failure messages, the output hashes
    for later rounds to match, and the number of the round's operations that
    failed.  An exit the command does not allow (any but 0 for `hdo run`;
    any but 0 and 3, failed checks, for `hdo verify`), an exception
    (`exit_code` None) or unreadable output fails every operation.
    """
    allowed = (0,) if workload.command == "run" else (0, 3)
    if exit_code not in allowed:
        how = "raised an exception" if exit_code is None else f"exited with {exit_code}"
        return [f"hdo {workload.command} {how}"], None, workload.operations
    try:
        if workload.command == "run":
            failures, hashes, failed = check_run_outputs(workload, workload.out_dir,
                                                         reference_hashes)
        else:
            failures, hashes, failed = check_verify_outputs(
                workload, workload.out_dir, exit_code, stdout_text, reference_hashes)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"], None, workload.operations
    return failures, hashes, len(failed)


# ---------------------------------------------------------------------------
# `hdo verify`


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def expected_bounds(workload, reports: dict) -> dict:
    """Closed-form bound (and measured value, where one exists) per report name.

    The quadratic of the suite has d = 10 and eigenvalues spread evenly over
    [1, cond], so L = cond and its smoothing value gap is nu^2 d (1 + cond) / 4.
    The logistic problem's L depends on its data, so it is read back from the
    value-gap bound and every other logistic bound must agree with it.
    """
    theory = workload.theory
    eta, scale = float(theory["eta"]), float(theory["nu_scale"])
    d_q, cond = workload.quad["d"], workload.quad["cond"]
    L_q = cond
    nu_q = eta / math.sqrt(d_q) * scale
    d_l = 5  # the suite's logistic problem: 100 two-blob samples in 5 dimensions
    nu_l = eta / math.sqrt(d_l) * scale
    out = {f"gradcheck_{k}": {"bound": 1e-4, "samples": 100}
           for k in ("quadratic", "logistic_l2", "sigmoid_sq_nonconvex")}

    out["smoothing_value_gap_quadratic"] = {
        "bound": 0.5 * nu_q ** 2 * L_q * d_q, "measured": nu_q ** 2 * d_q * (1 + cond) / 4,
        "samples": 0, "nu": nu_q}
    out["smoothing_grad_bias_quadratic"] = {
        "bound": 0.5 * nu_q * L_q * (d_q + 3) ** 1.5, "measured": 0.0, "samples": 0, "nu": nu_q}
    gap_l = reports.get("smoothing_value_gap_logistic_l2", {}).get("bound", math.nan)
    L_l = 2.0 * gap_l / (nu_l ** 2 * d_l)
    out["smoothing_value_gap_logistic_l2"] = {
        "samples": int(theory["smoothing_samples"]), "nu": nu_l}
    out["smoothing_grad_bias_logistic_l2"] = {
        "bound": 0.5 * nu_l * L_l * (d_l + 3) ** 1.5,
        "samples": int(theory["smoothing_samples"]), "nu": nu_l}

    for kind, d, nu, L in (("quadratic", d_q, nu_q, L_q), ("logistic_l2", d_l, nu_l, L_l)):
        # second moment: A + B, variance: 3A + 2B, with A the smoothing term
        # and B = 2 (d + 4) (||grad f_i||^2 + s_i^2) >= 2 (d + 4) s_i^2
        smooth = 0.5 * nu ** 2 * L ** 2 * (d + 6) ** 3
        second = reports.get(f"zo_second_moment_{kind}", {})
        rest = second.get("bound", math.nan) - smooth
        s_sq = second.get("detail", {}).get("s_sq", math.nan)
        out[f"zo_second_moment_{kind}"] = {"samples": int(theory["mc_samples"]), "nu": nu,
                                           "min_rest": (rest, 2 * (d + 4) * s_sq)}
        out[f"zo_variance_{kind}"] = {"bound": 3 * smooth + 2 * rest,
                                      "samples": int(theory["mc_samples"]), "nu": nu,
                                      "s_sq": s_sq}

    # the suite's hybrid snapshot population: n0 = 4 of n = 8 agents
    out["bias_aggregate"] = {"bound": nu_q * 4 / (2 * 8) * L_q * (d_q + 3) ** 1.5,
                             "samples": int(theory["mc_samples"]), "nu": nu_q}
    detail = reports.get("gamma_recursion", {}).get("detail", {})
    n = 8
    out["gamma_recursion"] = {
        "bound": (1 - 1 / (2 * n)) * detail.get("gamma_t", math.nan)
        + 4 / n * eta ** 2 * detail.get("mean_mtg", math.nan),
        "samples": int(theory["recursion_replicas"])}
    for k in (3, 4, 5):
        out[f"gamma_pure_averaging_n{k}"] = {"bound": 1e-12, "samples": k * (k - 1) // 2}
    return out


def check_verify_outputs(workload, out_dir, exit_code, stdout_text, reference_hashes=None):
    """All outputs of one `hdo verify` round.

    Returns (failures, hashes, failed_checks): structural and numerical
    failures, the report hash, and the names of the failed checks: those the
    program reported as failed (bound violations) and those whose report
    fails a recheck here.  A failure of the report as a whole (missing, other
    names, exit code, bytes unlike the first round's) fails every check.
    """
    path = Path(out_dir) / "theory_report.json"
    if not path.exists():
        return ["theory_report.json missing"], {}, list(VERIFY_REPORTS)
    hashes = {path.name: sha256(path)}
    records = json.loads(path.read_text(encoding="utf-8"))
    names = [r.get("name") for r in records]
    if tuple(names) != VERIFY_REPORTS:
        return [f"report names {names} are not the suite's"], hashes, list(VERIFY_REPORTS)
    reports = {r["name"]: r for r in records}
    expected = expected_bounds(workload, reports)
    failures = []
    lines = stdout_text.splitlines()
    failed_checks = []
    for name in names:
        messages = [f"{name}: {m}" for m in _recheck(workload, reports[name], expected[name],
                                                     lines)]
        failures += messages
        if messages or reports[name].get("pass") is False:
            failed_checks.append(name)
    reported = sum(reports[n].get("pass") is False for n in names)
    whole = []
    if exit_code != (3 if reported else 0):
        whole.append(f"exit code {exit_code} with {reported} failed checks")
    changed = changed_outputs(hashes, reference_hashes)
    if changed:
        whole.append(f"outputs differ from the first round: {', '.join(changed)}")
    if whole:
        failures += whole
        failed_checks = list(VERIFY_REPORTS)
    return failures, hashes, failed_checks


def _recheck(workload, r, want, lines) -> list:
    """One check's report against its closed forms and the printed lines."""
    name = r["name"]
    if not _finite(r.get("measured"), r.get("bound"), r.get("stderr")):
        return ["non-finite measured, bound or stderr"]
    failures = []
    verdict = r["measured"] <= r["bound"] + 3.0 * r["stderr"]
    if r.get("pass") is not verdict:
        failures.append(f"pass flag {r.get('pass')} but measured <= bound + 3 stderr "
                        f"is {verdict}")
    for key in ("bound", "measured"):
        if key in want and not _close(r[key], want[key]):
            failures.append(f"{key} {r[key]!r} != closed form {want[key]!r}")
    if "nu" in want and not _close(r.get("detail", {}).get("nu", math.nan), want["nu"]):
        failures.append("nu differs from eta / sqrt(d) * nu_scale")
    if "min_rest" in want:
        rest, floor = want["min_rest"]
        if not rest >= floor * (1 - RTOL):
            failures.append(f"bound leaves {rest:.6g} for the gradient and noise terms, "
                            f"below 2 (d + 4) s^2 = {floor:.6g}")
    if "s_sq" in want and not _close(r.get("detail", {}).get("s_sq", math.nan), want["s_sq"]):
        failures.append("s_sq differs from the second-moment check's")
    if r.get("samples") != want["samples"]:
        failures.append(f"{r.get('samples')} samples, expected {want['samples']}")
    if r.get("seed") != workload.theory["seed"]:
        failures.append(f"seed {r.get('seed')} is not the theory seed")
    tag = "PASS" if r.get("pass") else "FAIL"
    if not any(line.startswith(f"[{tag}] {name}: ") for line in lines):
        failures.append(f"no [{tag}] line printed")
    return failures
