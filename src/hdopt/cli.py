"""Command-line entry point.

Exit codes: 0 success, 1 config error, 2 runtime error, 3 theory-check
failure.
"""

from __future__ import annotations

import argparse
import sys

from .objectives import make_blobs_dataset, save_dataset_csv
from .protocol import DivergedError
from .runner import (_INT0, _INT1, _NUMBER, ConfigError, _number, _section, parse_config,
                     parse_seeds, run_experiment, run_theory_suite)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_THEORY = 3

# the rule table of gen-data blobs (see runner._section): make_blobs_dataset's
# parameters, with defaults for those it leaves to its caller
_BLOBS = {"n": ({"least": 2, "integer": True}, 1000), "d": (_INT1, 10), "seed": (_INT0, 0),
          "separation": (_NUMBER, None), "scale": (_NUMBER, None)}


def _scalar(text):
    """A command-line word as an int, else as a float, else as the string
    itself; :func:`_number` checks it."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _parse_params(pairs):
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        params[key] = _scalar(value)
    return params


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hdo",
        description="Simulate hybrid populations of first- and zeroth-order "
                    "agents and verify their analytic bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seeds", help="comma-separated seed list overriding the config")
    p_run.add_argument("--out-dir", help="output directory overriding the config")
    p_run.add_argument("--threads", type=_scalar, default=1,
                       help="worker processes, each running one stack of contiguous "
                            "(population, seed) units")
    p_run.add_argument("--metric-cadence", type=_scalar,
                       help="record metrics every N scheduler steps")

    p_verify = sub.add_parser("verify", help="run the analytic-bound verification suite")
    p_verify.add_argument("config")
    p_verify.add_argument("--out-dir", help="where to write the report")

    p_gen = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p_gen.add_argument("kind", choices=["blobs"])
    p_gen.add_argument("params", nargs="*", help="generator key=value parameters")
    p_gen.add_argument("out", help="output CSV path")
    p_gen.add_argument("--header", action="store_true", help="write a header row")
    return parser


def _out_dir(args, cfg):
    """--out-dir if given, else the config's out_dir; an empty --out-dir is an error."""
    if args.out_dir == "":
        raise ConfigError("--out-dir must be a non-empty path, got ''")
    return cfg.out_dir if args.out_dir is None else args.out_dir


def _cmd_run(args):
    cfg = parse_config(args.config)
    if args.seeds is not None:
        items = args.seeds.split(",") if args.seeds else []  # an empty item is a bad seed
        cfg.seeds = parse_seeds([_scalar(s) for s in items], "--seeds")
    cfg.out_dir = _out_dir(args, cfg)
    if args.metric_cadence is not None:
        cfg.metric_cadence = _number("--metric-cadence", args.metric_cadence, **_INT1)
    result = run_experiment(cfg, threads=_number("--threads", args.threads, **_INT1))
    print(f"wrote {len(result.csv_paths)} files to {result.out_dir}")
    return EXIT_OK


def _cmd_verify(args):
    cfg = parse_config(args.config)
    _, all_passed = run_theory_suite(cfg, out_dir=_out_dir(args, cfg))
    if not all_passed:
        print("theory suite FAILED", file=sys.stderr)
        return EXIT_THEORY
    print("theory suite passed")
    return EXIT_OK


def _cmd_gen_data(args):
    dataset = make_blobs_dataset(**_section(_parse_params(args.params), _BLOBS, ""))
    save_dataset_csv(dataset, args.out, header=args.header)
    print(f"wrote {len(dataset)} samples to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_gen_data(args)
    except ValueError as exc:  # ConfigError and DatasetFormatError among them
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergedError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
