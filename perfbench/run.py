"""Benchmark for hdopt: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload pair-quad --seed 1 --seconds 25 --trace 0

Run from the root of a source tree (one holding `src/hdopt`).  The workload's
inputs are made from `--seed` under `perfbench/out/`.  With `--trace 0` the
run measures the end-to-end metrics: set-up time over several fresh
processes (half before the rounds, half after), and in one fresh child
process a counted round (Python calls) followed by untraced, timed rounds
for `--seconds`.  With `--trace 1` the child alternates untraced rounds
with rounds traced at every layer boundary and reports the per-layer
metrics.  Every round's outputs are checked.

One child process runs at a time, with BLAS and OpenMP limited to one
thread.  The last line of standard output is the result object; the line
before it records the machine and the source revision.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

# set-up is timed in this many fresh processes, half before the work and
# half after it, so the median spans the run's drift in machine speed
SETUP_REPEATS = 24
# time a run may take beyond --seconds: input generation, set-up, the
# counted round and the round under way when --seconds run out
SLACK_S = 140.0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("py_calls", "calls"))
PER_LAYER_UNITS = {
    "protocol.us_per_interaction": "us", "protocol.self_s": "s",
    "protocol.py_calls_per_interaction": "calls",
    "estimators.calls": "calls", "estimators.us_per_call": "us", "estimators.self_s": "s",
    "objectives.calls": "calls", "objectives.us_per_call": "us", "objectives.self_s": "s",
    "metrics.ms_per_snapshot": "ms", "metrics.self_s": "s",
    "theory.smoothing_s": "s", "theory.mc_s": "s", "theory.recursion_s": "s",
    "runner.build_s": "s", "runner.write_s": "s", "runner.cell_s": "s",
    "trace.overhead_s": "s",
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    return env


def run_child(args, root: Path, deadline: float) -> dict:
    """Run child.py to completion and return its last output line, parsed."""
    cmd = [sys.executable, str(Path("perfbench") / "child.py"), *args]
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {args[0]} exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_revision(root: Path) -> dict:
    """Git SHA when the tree is a checkout, and a digest of src/ always."""
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + args.seconds + SLACK_S
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "hdopt" / "__init__.py").is_file():
        print(f"no hdopt sources under {root / 'src'}", file=sys.stderr)
        return 2
    os.chdir(root)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    config = workloads.prepare(workload, args.seed)
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "config": str(config), "ref_val_loss": workload.ref_val_loss}
    job_path = config.parent / f"job-trace{args.trace}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")

    def time_setup(repeats):
        if args.trace:  # the traced run reports no set-up time
            return []
        return [run_child(["setup", str(config)], root, deadline)["setup_s"]
                for _ in range(repeats)]

    try:
        # one untimed process first, so every timed one finds compiled bytecode
        setup = time_setup(1 + SETUP_REPEATS // 2)
        child = run_child(["work", str(job_path)], root, deadline)
        setup += time_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for failure in child["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": child["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {"wall_s": child["wall_s"], "setup_s": statistics.median(setup[1:]),
                  "peak_rss_mb": child["peak_rss_mb"], "py_calls": child["py_calls"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": not child["failures"], "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": child["environment"],
              "revision": source_revision(root), "round_walls_s": child["walls"],
              "setup_s": setup, "failures": child["failures"], "result": result}
    if args.trace:
        record["spans"] = child["spans"]
    (config.parent / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"environment": child["environment"], **record["revision"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
