"""Reference figures: the ROADMAP baselines, measured on the desk configs.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/reference.py

Prints one JSON line per figure.  These are single timings on whatever
machine runs them, for comparison with the table in ROADMAP.md; the
benchmark proper is perfbench/run.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from dataclasses import replace
from pathlib import Path

from hdopt import cli, runner
from hdopt.estimators import ZO_FORWARD, ZO_ONE_SIDED, EstimatorConfig
from hdopt.objectives import make_quadratic, partition_data
from hdopt.protocol import PopulationConfig, Schedule, init_population, run

OUT = Path("perfbench") / "out" / "reference"


def us_per_interaction(kind, interactions=5000, repeats=5):
    """uniform_pair on the d = 10 quadratic, 8 zeroth-order agents, rv = 16."""
    spec = make_quadratic(d=10, cond=10.0, seed=11)
    cfg = PopulationConfig(n0=8, n1=0, schedule=Schedule(eta_max=0.05), T=interactions,
                           scheduler_mode="uniform_pair", metric_cadence=10**9,
                           zo=EstimatorConfig(kind=kind, batch_size=4, rv=16))
    times = []
    for seed in range(repeats):
        pop = init_population(replace(cfg, seed=seed), spec,
                              partition_data(spec.n_samples, 8, 0, seed=seed), [0.0] * 10)
        t0 = time.perf_counter()
        run(pop, cfg)
        times.append((time.perf_counter() - t0) / interactions * 1e6)
    return statistics.median(times)


def fig2_hybrid_cell(repeats=5):
    """One fig2-desk hybrid4fo16zo cell: 500 matching steps, 5,000 interactions."""
    cfg = runner.parse_config("configs/fig2-desk.yaml")
    index = [p.label for p in cfg.populations].index("hybrid4fo16zo")
    times = []
    for seed in range(repeats):
        t0 = time.perf_counter()
        runner._run_cell(cfg, index, seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cli_seconds(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"hdo {' '.join(argv)} exited with {code}")
    return elapsed


def main():
    figures = [
        ("uniform_pair ZO one-sided", us_per_interaction(ZO_ONE_SIDED), "us/interaction"),
        ("uniform_pair forward-mode", us_per_interaction(ZO_FORWARD), "us/interaction"),
        ("fig2-desk hybrid cell", fig2_hybrid_cell(), "s"),
        ("hdo run fig2-desk --threads 1",
         cli_seconds("run", "configs/fig2-desk.yaml", "--out-dir", str(OUT / "fig2")), "s"),
        ("hdo run quad-desk",
         cli_seconds("run", "configs/quad-desk.yaml", "--out-dir", str(OUT / "quad")), "s"),
        ("hdo verify quad-desk",
         cli_seconds("verify", "configs/quad-desk.yaml", "--out-dir", str(OUT / "verify")), "s"),
    ]
    for name, value, unit in figures:
        print(json.dumps({"figure": name, "value": round(value, 4), "unit": unit}))


if __name__ == "__main__":
    main()
