"""Command-line surface.

Subcommands:
  run <config>         execute one experiment, write trajectory/report files
  sweep <config>       run the [sweep] grid into a single results CSV
  verify <config>      run the bound suite; exit 5 when any bound fails
  gen-data <config>    materialize configured datasets as CSV files
  plot <in> <out.svg>  render a trajectory CSV, results CSV, or point cloud

Shared flags: --seed, --out-dir, --preset, --set key=value (repeatable,
applied last).  --workers is accepted for compatibility and ignored: sweeps
run their cells serially.

Exit codes: 0 success, 2 config error, 3 numerical abort during a run,
4 sweep finished with failed cells, 5 verification failure.
"""

import argparse
import csv
import io
import os
import sys

import numpy as np

from .config import ConfigError, load_config
from .core import NumericalAbort
from .runner import _numeric_rows, atomic_write_text, run_experiment, run_sweep, gen_data
from .svgplot import render_metric_chart, render_point_cloud, render_trajectories

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_PARTIAL = 4
EXIT_VERIFY = 5


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None, help="override [experiment] seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="accepted for compatibility; sweeps run serially")
    parser.add_argument("--out-dir", default=None, help="override [experiment] output_dir")
    parser.add_argument("--preset", default=None, help="apply a named preset")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key (repeatable)")


def _build_parser():
    parser = argparse.ArgumentParser(prog="otflow",
                                     description="rectified-flow transport-guided editing harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment")
    p_run.add_argument("config")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="run the configured parameter sweep")
    p_sweep.add_argument("config")
    _add_common(p_sweep)

    p_verify = sub.add_parser("verify", help="run the bound verification suite")
    p_verify.add_argument("config")
    _add_common(p_verify)

    p_gen = sub.add_parser("gen-data", help="write configured datasets to CSV")
    p_gen.add_argument("config")
    _add_common(p_gen)

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


def _cmd_run(args):
    cfg = _load(args)
    artifacts = run_experiment(cfg, out_dir=args.out_dir)
    for path in artifacts.files:
        print(f"wrote {path}")
    for key, value in artifacts.metrics.items():
        if value is not None:
            print(f"{key} = {value}")
    return EXIT_OK


def _cmd_sweep(args):
    cfg = _load(args)
    outcome = run_sweep(cfg, out_dir=args.out_dir)
    print(f"wrote {outcome.results_path} ({outcome.n_rows} rows, {outcome.n_failed} failed)")
    return EXIT_PARTIAL if outcome.n_failed else EXIT_OK


def _cmd_verify(args):
    cfg = _load(args, "experiment.algorithm=verify")
    artifacts = run_experiment(cfg, out_dir=args.out_dir)
    failed = [r for r in artifacts.reports if not r.passed]
    for rep in artifacts.reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"{rep.bound_kind}: {status} (slope {rep.slope:.3f})")
    for path in artifacts.files:
        print(f"wrote {path}")
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_gen_data(args):
    cfg = _load(args)
    for path in gen_data(cfg, out_dir=args.out_dir):
        print(f"wrote {path}")
    return EXIT_OK


def _parse_projection(text, dim):
    if text is None:
        if dim == 2:
            return 0, 1
        raise ConfigError(f"data has {dim} coordinates; pass --project I,J")
    try:
        i, j = (int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"--project expects two integers like 0,1, got {text!r}") from None
    if not (0 <= i < dim and 0 <= j < dim and i != j):
        raise ConfigError(f"--project {i},{j} out of range for {dim} coordinates")
    return i, j


def _cmd_plot(args):
    if not os.path.exists(args.input):
        raise ConfigError(f"input not found: {args.input}")
    with open(args.input, encoding="utf-8", newline="") as fh:
        text = fh.read()
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        atomic_write_text(args.output, render_trajectories([]))
        print(f"wrote {args.output}")
        return EXIT_OK
    header = rows[0]

    def is_number(text):
        try:
            float(text)
            return True
        except ValueError:
            return False

    if header and header[0] == "t":
        z_cols = [i for i, name in enumerate(header) if name.startswith("z_")]
        dim = len(z_cols)
        i, j = _parse_projection(args.project, dim)
        states = np.array([[float(r[z_cols[i]]), float(r[z_cols[j]])] for r in rows[1:]])
        svg = render_trajectories([states] if states.size else [],
                                  x_label=f"z_{i}", y_label=f"z_{j}")
    elif header and all(is_number(c) for c in header):
        cloud = np.array([[float(v) for v in r] for r in rows], dtype=float)
        i, j = _parse_projection(args.project, cloud.shape[1])
        svg = render_point_cloud([cloud[:, (i, j)]], x_label=f"z_{i}", y_label=f"z_{j}")
    else:
        x_key = args.x or header[0]
        for key in (x_key, args.y):
            if key not in header:
                raise ConfigError(f"column {key!r} not in {args.input} header")
        svg = render_metric_chart(_numeric_rows(text, x_key, args.y), x_key, args.y)
    atomic_write_text(args.output, svg)
    print(f"wrote {args.output}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
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
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
