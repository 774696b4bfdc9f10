"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Runtime-limited criteria measure wall-clock time and assert the stated cap.
Seed-replicated criteria use the seed values 0..9 through the library's
documented seed-derivation scheme.
"""

import copy
import time
from pathlib import Path

import numpy as np
import pytest

import hdopt as h
from hdopt.runner import parse_config, process_pool, run_experiment

from conftest import read_metrics_csv
from oracles import estimate_gradient

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(cid, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    return ok


def logistic_blobs(n, d, seed, lam=0.1, scale=1.0):
    return h.make_logistic(h.make_blobs_dataset(n, d, seed=seed, scale=scale), lam=lam)


# ---------------------------------------------------------------------------
# criterion 1: forward-mode estimator is unbiased


def test_c01_forward_estimator_unbiased():
    from hdopt.theory import probe_points

    t0 = time.perf_counter()
    lg = logistic_blobs(200, 20, seed=3)
    shard = np.arange(lg.n_samples)
    probes = probe_points(lg, 5, seed=4)
    cfg = h.EstimatorConfig(kind=h.ZO_FORWARD, batch_size=2, rv=500)
    calls = 2000  # 10^6 Gaussian directions per probe
    worst = -np.inf
    for p, x in enumerate(probes):
        rng = np.random.default_rng(1000 + p)
        draws = np.empty((calls, 20))
        for k in range(calls):
            draws[k] = estimate_gradient(lg, shard, x, cfg, rng).vector
        mean = draws.mean(axis=0)
        se = float(np.sqrt(draws.var(axis=0, ddof=1).sum() / calls))
        gap = float(np.linalg.norm(mean - lg.grad(x)))
        worst = max(worst, gap - 3 * se)
        assert gap <= 3 * se, f"probe {p}: ||mean - grad|| = {gap:.3g} > 3 x {se:.3g}"
    elapsed = time.perf_counter() - t0
    ok = worst <= 0 and elapsed < 30.0
    assert report("C1 forward-mode unbiasedness",
                  ok, f"5 probes x 1e6 draws, worst slack {worst:.3g}, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# criterion 2: smoothing value-gap and gradient-bias bounds


def _c02_one_check(args):
    from hdopt.theory import check_smoothing_grad_bias, check_smoothing_value_gap, probe_points

    kind, d, nu, which = args
    spec = h.make_quadratic(d=d, cond=10.0, seed=5) if kind == "quadratic" \
        else logistic_blobs(15, d, seed=6)
    probes = probe_points(spec, 10, seed=7)
    check = check_smoothing_value_gap if which == "value" else check_smoothing_grad_bias
    rep = check(spec, nu, probes, samples=10**6, seed=8)
    return (kind, d, nu, which), rep


def test_c02_smoothing_bounds():
    t0 = time.perf_counter()
    jobs = [(kind, d, nu, which)
            for d in (5, 20) for kind in ("quadratic", "logistic")
            for nu in (0.01, 0.1) for which in ("value", "grad")]
    # probe checks are embarrassingly parallel with independent rng streams
    with process_pool(2) as pool:
        results = list(pool.map(_c02_one_check, jobs))
    elapsed = time.perf_counter() - t0
    for key, rep in results:
        assert rep.passed, f"{key}: {rep}"
    ok = all(rep.passed for _, rep in results) and elapsed < 120.0
    assert report("C2 smoothing bounds",
                  ok, f"{len(results)} checks (d in {{5,20}}, nu in {{0.01,0.1}}), {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# criterion 3: second-moment and variance bounds on the same grid


def test_c03_second_moment_and_variance_bounds():
    from hdopt.theory import check_zo_second_moment, check_zo_variance_bound, probe_points

    count = 0
    for d in (5, 20):
        quad = h.make_quadratic(d=d, cond=10.0, seed=9)
        logi = logistic_blobs(30, d, seed=10)
        for spec in (quad, logi):
            shard = np.arange(spec.n_samples // 2)
            probes = probe_points(spec, 10, seed=11)
            for nu in (0.01, 0.1):
                for p, x in enumerate(probes):
                    for check in (check_zo_second_moment, check_zo_variance_bound):
                        rep = check(spec, shard, nu, x, samples=100_000, seed=12 + p)
                        count += 1
                        assert rep.passed, f"{rep.name} d={d} nu={nu} {spec.kind}: {rep}"
    assert report("C3 second-moment/variance bounds", True,
                  f"{count} probe checks passed with 3-stderr margin")


# ---------------------------------------------------------------------------
# criterion 4: variance-potential recursion


def make_hybrid_quadratic(seed, grad_noise=0.15, batch=8, zo_kind=h.ZO_FORWARD,
                          T=20000, cadence=20000, eta=0.05, rv=16):
    q = h.make_quadratic(d=10, cond=10.0, seed=1, n_samples=64,
                         grad_noise=grad_noise, hessian_jitter=0.5)
    part = h.partition_data(q.n_samples, 4, 4, seed=3 + seed)
    cfg = h.PopulationConfig(
        n0=4, n1=4, schedule=h.Schedule(eta_max=eta),
        zo=h.EstimatorConfig(kind=zo_kind, batch_size=batch, rv=rv),
        fo=h.EstimatorConfig(kind=h.FIRST_ORDER, batch_size=batch))
    pop = h.init_population(cfg, q, [part], [q.x_star + np.ones(10)], [100 + seed], T=T,
                            scheduler_mode="uniform_pair", metric_cadence=cadence)
    return q, cfg, pop


def test_c04_gamma_recursion():
    from hdopt.theory import check_gamma_recursion, expected_gamma_pure_averaging

    # exact eta = 0 enumeration for n in {3, 4, 5} to 1e-12
    rng = np.random.default_rng(13)
    for n in (3, 4, 5):
        models = rng.standard_normal((n, 6))
        centered = models - models.mean(axis=0)
        gamma_t = float(np.mean(np.sum(centered * centered, axis=1)))
        exact = gamma_t * (n - 2) / (n - 1)
        assert abs(expected_gamma_pure_averaging(models) - exact) <= 1e-12

    # 20 frozen mid-training snapshots, 2000 one-step replicas each
    q, cfg, pop = make_hybrid_quadratic(seed=0, zo_kind=h.ZO_ONE_SIDED, T=0)
    eta = 0.05
    worst_slack = -np.inf
    for snap in range(20):
        for _ in range(100):
            h.step_window(pop, [eta])
        rep = check_gamma_recursion(copy.deepcopy(pop), eta, replicas=2000, seed=500 + snap)
        slack = rep.measured - (rep.bound + 3 * rep.stderr)
        worst_slack = max(worst_slack, slack)
        assert rep.passed, f"snapshot {snap}: {rep}"
    assert report("C4 variance-potential recursion", True,
                  f"20 snapshots x 2000 replicas, worst slack {worst_slack:.3g}; "
                  "eta=0 enumeration exact to 1e-12 for n in {3,4,5}")


# ---------------------------------------------------------------------------
# criterion 5: strongly convex convergence with weighted-average sanity


def _c05_single_seed(seed):
    q, cfg, pop = make_hybrid_quadratic(seed=seed)
    result = h.run(pop, track_weighted_average=True)
    gap = result.records[0][-1].mu_loss_gap
    y_gap = q.loss(result.weighted_average[0]) - q.f_star
    return gap, y_gap


def test_c05_strongly_convex_convergence():
    t0 = time.perf_counter()
    with process_pool(2) as pool:
        outcomes = list(pool.map(_c05_single_seed, range(10)))
    elapsed = time.perf_counter() - t0
    gaps = [g for g, _ in outcomes]
    y_gaps = [y for _, y in outcomes]
    med_gap = float(np.median(gaps))
    med_y = float(np.median(y_gaps))
    ok = med_gap < 1e-4 and med_y <= 2 * med_gap and elapsed < 10.0
    assert report("C5 strongly convex convergence", ok,
                  f"median f(mu_T)-f* = {med_gap:.3g} < 1e-4; weighted-average gap "
                  f"{med_y:.3g} <= 2x last iterate; {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# criterion 6: hybrid-vs-mono crossover on the fig2-desk reference experiment


def _val_loss_series(out_dir, label):
    header, mat = read_metrics_csv(Path(out_dir) / f"{label}_agg.csv")
    return (mat[:, 0],
            mat[:, header.index("mean_val_loss_mean")],
            mat[:, header.index("mean_val_loss_stderr")])


def test_c06_hybrid_vs_mono_crossover(tmp_path):
    cfg = parse_config(CONFIG_DIR / "fig2-desk.yaml")
    cfg.out_dir = str(tmp_path / "fig2")
    run_experiment(cfg, threads=4)

    steps, fo4, fo4_se = _val_loss_series(cfg.out_dir, "fo4")
    _, zo4, zo4_se = _val_loss_series(cfg.out_dir, "zo4")
    _, hyb, hyb_se = _val_loss_series(cfg.out_dir, "hybrid4fo16zo")

    # hybrid beats the 4-FO population at the end, by >= 1 combined stderr
    separation = fo4[-1] - hyb[-1]
    comb = float(np.hypot(fo4_se[-1], hyb_se[-1]))
    clause_a = separation >= comb

    # 4 FO outperforms 4 ZO throughout: no significant inversion anywhere,
    # strict ordering once past the first few recorded steps
    comb_t = np.hypot(fo4_se, zo4_se)
    never_sig_worse = bool(np.all(fo4 <= zo4 + comb_t))
    strict_after_burnin = bool(np.all((fo4 < zo4)[steps >= 100]))
    clause_b = never_sig_worse and strict_after_burnin

    ok = clause_a and clause_b
    assert report("C6 hybrid-vs-mono crossover", ok,
                  f"hybrid {hyb[-1]:.4f} vs fo4 {fo4[-1]:.4f} "
                  f"(separation {separation:.4f} >= combined stderr {comb:.4f}); "
                  f"fo4 <= zo4 + stderr at all steps: {never_sig_worse}, "
                  f"strict from step 100: {strict_after_burnin}")


# ---------------------------------------------------------------------------
# criterion 7: variance shrinks as rv grows


def test_c07_rv_monotonicity():
    t0 = time.perf_counter()
    lg = logistic_blobs(100, 10, seed=14)
    shard = np.arange(lg.n_samples)
    x = np.random.default_rng(15).standard_normal(10) * 0.3
    trials = 10**4

    def variance_for(rv, seed):
        cfg = h.EstimatorConfig(kind=h.ZO_ONE_SIDED, batch_size=2, rv=rv)
        rng = np.random.default_rng(seed)
        draws = np.empty((trials, 10))
        for k in range(trials):
            draws[k] = estimate_gradient(lg, shard, x, cfg, rng, nu=0.05).vector
        centered = draws - draws.mean(axis=0)
        sq = np.sum(centered * centered, axis=1)
        return float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(trials))

    v8, se8 = variance_for(8, seed=16)
    v128, se128 = variance_for(128, seed=17)
    margin = v8 - v128
    comb = float(np.hypot(se8, se128))
    elapsed = time.perf_counter() - t0
    ok = margin >= 3 * comb and elapsed < 60.0
    assert report("C7 rv monotonicity", ok,
                  f"var(rv=8) = {v8:.3g} vs var(rv=128) = {v128:.3g}, margin "
                  f"{margin:.3g} >= 3 x {comb:.3g}; {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# criterion 8: parallel time to threshold is non-increasing in n


def _c08_hitting_time(args):
    n, seed = args
    q = h.make_quadratic(d=10, cond=10.0, seed=2, n_samples=64,
                         grad_noise=0.4, hessian_jitter=0.5)
    part = h.partition_data(q.n_samples, 0, n, seed=17)
    P = 240
    T = P * n
    sched = h.Schedule(eta_max=0.05, mode="warmup_cosine", eta_min=0.002,
                       warmup_steps=0, total_steps=T)
    cfg = h.PopulationConfig(n0=0, n1=n, schedule=sched,
                             fo=h.EstimatorConfig(kind=h.FIRST_ORDER, batch_size=1))
    pop = h.init_population(cfg, q, [part], [q.x_star + np.ones(10)], [seed], T=T,
                            scheduler_mode="uniform_pair", metric_cadence=1)
    for t in range(T):
        h.step_window(pop, [h.eta_at(sched, t)])
        if (t + 1) % n == 0:  # check once per parallel-time unit
            mu = pop.flat.mean(axis=0)
            if q.loss(mu) - q.f_star < 1e-3:
                return (t + 1) // n
    return float("inf")


def test_c08_speedup_trend():
    jobs = [(n, s) for n in (2, 4, 8, 16) for s in range(10)]
    with process_pool(5) as pool:
        times = list(pool.map(_c08_hitting_time, jobs))
    medians = {}
    for idx, n in enumerate((2, 4, 8, 16)):
        medians[n] = float(np.median(times[idx * 10:(idx + 1) * 10]))
    seq = [medians[n] for n in (2, 4, 8, 16)]
    ok = all(np.isfinite(seq)) and all(seq[i + 1] <= seq[i] for i in range(3))
    assert report("C8 speedup trend", ok,
                  f"median parallel time to 1e-3 for n=2,4,8,16: {seq} (non-increasing)")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reruns


def test_c09_determinism(tmp_path):
    from hdopt.cli import main

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"run-{tag}"
        assert main(["run", str(CONFIG_DIR / "fig2-desk.yaml"),
                     "--out-dir", str(out), "--threads", "4"]) == 0
        outs.append(out)
    csvs_a = sorted(p.name for p in outs[0].glob("*.csv"))
    csvs_b = sorted(p.name for p in outs[1].glob("*.csv"))
    assert csvs_a == csvs_b and csvs_a
    mismatched = [name for name in csvs_a
                  if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()]
    ok = not mismatched
    assert report("C9 determinism", ok,
                  f"{len(csvs_a)} CSVs byte-identical across reruns"
                  + (f"; mismatches: {mismatched}" if mismatched else ""))


# ---------------------------------------------------------------------------
# criterion 10: boundary populations converge


def _c10_boundary_run(n0, n1, zo_kind=h.ZO_ONE_SIDED):
    q = h.make_quadratic(d=10, cond=10.0, seed=1, n_samples=64,
                         grad_noise=0.15, hessian_jitter=0.5)
    part = h.partition_data(q.n_samples, n0, n1, seed=21)
    cfg = h.PopulationConfig(
        n0=n0, n1=n1, schedule=h.Schedule(eta_max=0.05),
        zo=h.EstimatorConfig(kind=zo_kind, batch_size=8, rv=16) if n0 else None,
        fo=h.EstimatorConfig(kind=h.FIRST_ORDER, batch_size=8) if n1 else None)
    pop = h.init_population(cfg, q, [part], [q.x_star + np.ones(10)], [22], T=20000,
                            scheduler_mode="uniform_pair", metric_cadence=20000)
    result = h.run(pop)
    return result.records[0][0].mu_loss_gap, result.records[0][-1].mu_loss_gap


def test_c10_boundary_populations():
    initial_fo, final_fo = _c10_boundary_run(0, 8)
    initial_zo, final_zo = _c10_boundary_run(8, 0)
    ok = (np.isfinite(final_fo) and final_fo < 1e-2 * initial_fo
          and np.isfinite(final_zo) and final_zo < 1e-2 * initial_zo)
    assert report("C10 boundary populations", ok,
                  f"all-FO gap {initial_fo:.3g} -> {final_fo:.3g}; "
                  f"all-ZO gap {initial_zo:.3g} -> {final_zo:.3g} (both < 1% of start)")
