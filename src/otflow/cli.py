"""Command-line surface.

Subcommands:
  run <config>         execute one experiment, write trajectory/report files
  sweep <config>       run the [sweep] grid into a single results CSV
  verify <config>      run, with experiment.algorithm = verify (the bound suite)
  gen-data <config>    materialize configured datasets as CSV files
  plot <in> <out.svg>  render a trajectory CSV, results CSV, or point cloud

Shared flags: --seed, --out-dir, --preset, --set key=value (repeatable,
applied last).  sweep ignores its --workers, kept for compatibility.  plot
draws with runner.render_csv, as the runner draws its SVGs.

Exit codes: 0 success, 2 config error, 3 numerical abort during a run
(printed with the abort's step, t and term), 4 sweep finished with failed
cells, 5 a bound failed (under run and verify alike).
"""

import argparse
import os
import sys

from .config import ConfigError, load_config
from .core import NumericalAbort
from .runner import atomic_write_text, gen_data, render_csv, run_experiment, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_PARTIAL = 4
EXIT_VERIFY = 5


def _config_command(sub, name, help_text):
    """Add subcommand name, which reads a config file and takes the shared flags."""
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("config")
    parser.add_argument("--seed", type=int, default=None, help="override [experiment] seed")
    parser.add_argument("--out-dir", default=None, help="override [experiment] output_dir")
    parser.add_argument("--preset", default=None, help="apply a named preset")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key (repeatable)")
    return parser


def _build_parser():
    parser = argparse.ArgumentParser(prog="otflow",
                                     description="rectified-flow transport-guided editing harness")
    sub = parser.add_subparsers(dest="command", required=True)
    _config_command(sub, "run", "execute one experiment")
    p_sweep = _config_command(sub, "sweep", "run the configured parameter sweep")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="accepted for compatibility; sweeps run serially")
    _config_command(sub, "verify", "run the bound verification suite")
    _config_command(sub, "gen-data", "write configured datasets to CSV")

    p_plot = sub.add_parser("plot", help="render a CSV artifact to SVG")
    p_plot.add_argument("input")
    p_plot.add_argument("output")
    p_plot.add_argument("--project", default=None, metavar="I,J",
                        help="coordinate pair for d > 2 data, e.g. 0,1")
    p_plot.add_argument("--x", default=None, help="x column for results CSVs")
    p_plot.add_argument("--y", default="w2_to_target", help="y column for results CSVs")
    return parser


def _load(args, *overrides):
    # --seed is the last experiment.seed override, so config checks its range.
    seed = [] if args.seed is None else [f"experiment.seed={args.seed}"]
    return load_config(args.config, preset=args.preset,
                       overrides=list(args.overrides) + list(overrides) + seed)


def _cmd_run(args, *overrides):
    """Print each bound's pass/FAIL line, the files and the metrics."""
    artifacts = run_experiment(_load(args, *overrides), out_dir=args.out_dir)
    for rep in artifacts.reports:
        print(f"{rep.bound_kind}: {'pass' if rep.passed else 'FAIL'} (slope {rep.slope:.3f})")
    for path in artifacts.files:
        print(f"wrote {path}")
    for key, value in artifacts.metrics.items():
        if value is not None:
            print(f"{key} = {value}")
    return EXIT_OK if all(rep.passed for rep in artifacts.reports) else EXIT_VERIFY


def _cmd_sweep(args):
    cfg = _load(args)
    outcome = run_sweep(cfg, out_dir=args.out_dir)
    print(f"wrote {outcome.results_path} ({outcome.n_rows} rows, {outcome.n_failed} failed)")
    return EXIT_PARTIAL if outcome.n_failed else EXIT_OK


def _cmd_gen_data(args):
    cfg = _load(args)
    for path in gen_data(cfg, out_dir=args.out_dir):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_plot(args):
    if not os.path.exists(args.input):
        raise ConfigError(f"input not found: {args.input}")
    with open(args.input, encoding="utf-8", newline="") as fh:
        svg = render_csv(fh.read(), args.input, args.project, args.x, args.y)
    atomic_write_text(args.output, svg)
    print(f"wrote {args.output}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "verify": lambda args: _cmd_run(args, "experiment.algorithm=verify"),
    "gen-data": _cmd_gen_data,
    "plot": _cmd_plot,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbort as exc:
        print(f"numerical abort: {exc} (step={exc.step}, t={exc.t}, term={exc.term})", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
