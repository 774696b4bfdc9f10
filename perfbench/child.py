"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 perfbench/child.py setup CONFIG   time `import hdopt` + parse_config
    python3 perfbench/child.py work JOB       run a workload's rounds

The last line of standard output is one JSON object.  `setup` imports
nothing heavy before its clock starts, so the import of numpy and yaml that
`hdopt` pulls in is part of the measured set-up.
"""

import json
import math
import sys
import time


def setup(config_path):
    t0 = time.perf_counter()
    from hdopt import runner

    runner.parse_config(config_path)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed}))


def _environment():
    import os
    import platform

    import numpy as np

    import hdopt

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "hdopt": getattr(hdopt, "__version__", None)}


def work(job_path):
    import contextlib
    import io
    import resource
    import shutil
    import statistics
    import traceback
    from pathlib import Path

    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    root = Path.cwd().resolve()
    import hdopt
    from hdopt import cli

    if not Path(hdopt.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"hdopt imported from {hdopt.__file__}, not from {root / 'src'}")

    import checks
    import tracer as tracing
    import workloads

    w = workloads.WORKLOADS[job["workload"]](job["seed"])
    w.ref_val_loss = job["ref_val_loss"]
    argv = [w.command, job["config"]]
    counter = tracing.CallCounter({work.__code__.co_filename,
                                   tracing.Tracer._wrap.__code__.co_filename})
    tracer = tracing.Tracer(counter)

    state = {"attempted": 0, "failed": 0, "failures": [], "hashes": None}

    def one_round(spans, count):
        """Run the hdo command once; returns its wall time in seconds.

        The output directory is removed first, so every round starts from
        the same state and no check can read an earlier round's files."""
        shutil.rmtree(w.out_dir, ignore_errors=True)
        out = io.StringIO()
        if spans:
            tracer.install()
        code = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if count:
                    counter.start()
                try:
                    code = cli.main(argv)
                finally:
                    if count:
                        counter.stop()
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the program's own fault: this round's operations failed
            traceback.print_exc(file=sys.stderr)
        finally:
            wall = time.perf_counter() - t0
            if spans:
                tracer.uninstall()
        failures, hashes, failed = checks.check_round(w, code, out.getvalue(), state["hashes"])
        state["attempted"] += w.operations
        state["failed"] += failed
        state["failures"] += failures
        if state["hashes"] is None:
            state["hashes"] = hashes
        # a round whose outputs are wrong, or that ended early, is not timed
        return math.nan if failures else wall

    # the counted round comes first and doubles as the warm-up
    tracer.reset()
    counted_before = counter.calls
    one_round(spans=job["trace"], count=True)
    py_calls = counter.calls - counted_before
    counted_stats = tracer.stats

    walls = {"untraced": [], "traced": []}
    tracer.reset()
    start = time.perf_counter()
    while True:
        kind = "traced" if job["trace"] and len(walls["untraced"]) > len(walls["traced"]) \
            else "untraced"
        walls[kind].append(one_round(spans=kind == "traced", count=False))
        enough = time.perf_counter() - start >= job["seconds"]
        if enough and (not job["trace"] or walls["traced"]):
            break

    result = {"attempted": state["attempted"], "failed": state["failed"],
              "failures": state["failures"][:20], "walls": walls["untraced"],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "environment": _environment()}
    if job["trace"]:
        result["per_layer"] = per_layer_metrics(w, tracer.stats, len(walls["traced"]),
                                                counted_stats, walls)
        result["spans"] = {f"{layer}:{name}": rec for (layer, name), rec
                           in sorted(tracer.stats.items())}
    else:
        completed = [t for t in walls["untraced"] if math.isfinite(t)]
        if not completed:
            raise SystemExit("no untraced round of the hdo command completed correctly: "
                             + "; ".join(state["failures"][:3]))
        result["wall_s"] = statistics.median(completed)
        result["py_calls"] = py_calls
    print(json.dumps(result))


def per_layer_metrics(w, timed, rounds, counted, walls):
    """Per-layer figures per round: times from the traced rounds, counts
    from the counted round (exact, the same in every round)."""
    import statistics

    from tracer import (ENTRIES, ENTRY_CALLS, ENTRY_S, INCL_CALLS, INCL_S, SELF_S, SPANS,
                        layer_totals)

    def total(stats, names, field):
        return sum(rec[field] for (_, name), rec in stats.items() if name in names)

    def mean_span_s(name):
        return total(timed, {name}, INCL_S) / max(total(timed, {name}, SPANS), 1)

    # an interaction is a scheduler step's pair, or a direct hdo_interact call
    # from another layer (the recursion check's replicas)
    steps = {name for (layer, name) in counted if layer == "protocol" and name.startswith("step_")}
    interaction_s = total(timed, steps, INCL_S) + total(timed, {"hdo_interact"}, ENTRY_S)
    interaction_calls = (total(counted, steps, INCL_CALLS)
                         + total(counted, {"hdo_interact"}, ENTRY_CALLS))
    t, c = layer_totals(timed), layer_totals(counted)
    out = {
        "protocol.us_per_interaction": interaction_s / rounds / w.interactions * 1e6,
        "protocol.self_s": t["protocol"][SELF_S] / rounds,
        "protocol.py_calls_per_interaction": interaction_calls / w.interactions,
        "metrics.ms_per_snapshot": mean_span_s("snapshot") * 1e3,
        "metrics.self_s": t["metrics"][SELF_S] / rounds,
        "theory.smoothing_s": total(timed, {"check_smoothing_value_gap",
                                            "check_smoothing_grad_bias"}, INCL_S) / rounds,
        "theory.mc_s": total(timed, {"check_zo_second_moment", "check_zo_variance_bound",
                                     "check_bias_aggregate"}, INCL_S) / rounds,
        "theory.recursion_s": total(timed, {"check_gamma_recursion"}, INCL_S) / rounds,
        "runner.build_s": total(timed, {"build_objective"}, INCL_S) / rounds,
        "runner.cell_s": mean_span_s("_run_cell"),
        # the runner's work outside its cells and suite: aggregation and output
        "runner.write_s": (total(timed, {"run_experiment", "run_theory_suite"}, INCL_S)
                           - total(timed, {"_run_cell", "default_theory_suite"}, INCL_S))
        / rounds,
        "trace.overhead_s": statistics.median(walls["traced"])
        - statistics.median(walls["untraced"]),
    }
    for layer in ("estimators", "objectives"):
        out[f"{layer}.calls"] = c[layer][ENTRIES]
        out[f"{layer}.us_per_call"] = t[layer][ENTRY_S] / max(t[layer][ENTRIES], 1) * 1e6
        out[f"{layer}.self_s"] = t[layer][SELF_S] / rounds
    return out


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        work(sys.argv[2])
