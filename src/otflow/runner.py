"""Experiment execution and on-disk artifacts.

All files go through an atomic temp+rename write, floats are formatted with
shortest round-trip repr, and every random draw is keyed off explicit integer
seeds, so identical configs produce byte-identical outputs regardless of
timing.

Seed discipline: the config is a run's only input, and every run reads
experiment.seed.  The editor noise stream uses it directly; auxiliary draws
use fixed offsets (seed, 1) for input sampling and (seed, 2) for verification
states; sweep cell c replicate r derives its seed from (experiment.seed, c,
r), so a cell's row does not depend on the cells run before it.
Sweeps run in the calling thread, from a plan: the cells whose overrides
differ only in transport.beta0 form a group whose config is derived once,
each distinct beta0 value is parsed and checked once, and a cell whose beta0
or group fails is derived alone, so its error is the one derive_config gives
that cell.  Then every row resolves its x0 (a Gaussian draw uses the factor
the registry keeps), and each group's invert_edit or flowedit rows run as
one (B, d) editor call with a (B,) beta0 and, for flowedit's noise draws,
the rows' B seeds.  The editors' kernels are batch-invariant, so a row
equals the single-state run of its cell bit for bit, and a row that goes
non-finite fails alone.  generate cells run one call each, with their
group's config and their own beta0.

Every SVG is render_csv of the CSV written beside it, the function that
`otflow plot` draws with, so plotting a run's CSV gives its SVG's bytes.
"""

import csv
import io
import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import _GENERATE_NEEDS_TARGET, ConfigError, cell_beta0, derive_config
from .core import make_rng
from .editors import (FlowEditConfig, InversionEditConfig, RngSeed,
                      transport_enhanced_flowedit, transport_guided_inversion_edit)
from .fields import make_velocity
from .metrics import (_EMPIRICAL_CAP, VerifySetup, guided_final_states, verify_convergence_bound,
                      verify_discretization_bound, verify_edit_control_bound, w2_dirac_to_gaussian,
                      w2_dirac_to_points, w2_empirical_exact, w2_gaussian)
from .svgplot import render_metric_chart, render_point_cloud, render_trajectories

_METRIC_COLUMNS = ("reconstruction_l2", "displacement_l2", "transport_work", "w2_to_target")
_BETA0 = "transport.beta0"


@dataclass
class RunArtifacts:
    files: list
    metrics: dict
    reports: list


@dataclass
class SweepOutcome:
    results_path: str
    n_rows: int
    n_failed: int


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(float(x))


def atomic_write_text(path, text):
    """Write via temp file + rename so readers never see a truncated file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return path


def derive_seed(base_seed, cell_index, replicate):
    """64-bit seed for one sweep cell, independent of execution order."""
    ss = np.random.SeedSequence([int(base_seed), int(cell_index), int(replicate)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _csv_text(rows):
    """rows as CSV text, every line ended by a bare newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def trajectory_csv(traj):
    """t, z_0..z_{d-1}, v_0..v_{d-1}, transport_norm, weight; one row per grid point."""
    d = traj.dim
    rows = [["t"] + [f"z_{i}" for i in range(d)] + [f"v_{i}" for i in range(d)]
            + ["transport_norm", "weight"]]
    for k in range(traj.times.shape[0]):
        row = [_fmt(traj.times[k])]
        row += [_fmt(v) for v in traj.states[k]]
        row += [_fmt(v) for v in traj.velocities[k]]
        row += [_fmt(traj.transport_norms[k]), _fmt(traj.weights[k])]
        rows.append(row)
    return _csv_text(rows)


def points_csv(points):
    """Headerless point rows, loadable back as a dataset csv."""
    return _csv_text([_fmt(v) for v in row] for row in np.asarray(points, dtype=float))


def _draw_from_dataset(registry, name, rng):
    if registry.kind(name) == "gaussian":
        return registry.sample_gaussian(name, rng)
    pts = registry.points(name)
    return np.array(pts[rng.integers(len(pts))])


def _draw_target_state(registry, condition, rng):
    if condition.kind == "dataset":
        return _draw_from_dataset(registry, condition.name, rng)
    names = registry.names()
    return _draw_from_dataset(registry, names[rng.integers(len(names))], rng)


def _w2_to_condition(output, registry, condition):
    if condition is None or condition.kind != "dataset":
        return None
    if registry.kind(condition.name) == "gaussian":
        mean, cov = registry.gaussian(condition.name)
        return w2_dirac_to_gaussian(output, mean, cov)
    return w2_dirac_to_points(output, registry.points(condition.name))


def _cloud_w2_to_condition(cloud, registry, condition):
    if condition.kind != "dataset":
        return None
    cloud = np.asarray(cloud, dtype=float)
    if registry.kind(condition.name) == "gaussian":
        mean, cov = registry.gaussian(condition.name)
        emp_mean = cloud.mean(axis=0)
        centered = cloud - emp_mean
        emp_cov = centered.T @ centered / cloud.shape[0]
        return w2_gaussian(emp_mean, emp_cov, mean, cov)
    pts = registry.points(condition.name)
    if cloud.shape[0] % len(pts) == 0 and cloud.shape[0] <= _EMPIRICAL_CAP:
        # Equal-size exact assignment against the atom-replicated dataset.
        reps = np.repeat(pts, cloud.shape[0] // len(pts), axis=0)
        return w2_empirical_exact(cloud, reps)[0]
    return None


def _resolve_x0(cfg, seed):
    if cfg.inputs["x0"] is not None:
        return cfg.inputs["x0"]
    return _draw_from_dataset(cfg.registry, cfg.inputs["sample_source"], make_rng(seed, 1))


def _edit_metrics(summary, output, cfg, condition):
    return {
        "reconstruction_l2": summary.reconstruction_l2,
        "displacement_l2": summary.displacement_l2,
        "transport_work": summary.transport_work,
        "w2_to_target": _w2_to_condition(output, cfg.registry, condition),
    }


def _inversion_edit(cfg, x0, beta0=None):
    edit_cfg = InversionEditConfig(transport=cfg.transport, grid=cfg.grid, scales=cfg.scales,
                                   **cfg.editor)
    return transport_guided_inversion_edit(edit_cfg, cfg.registry, cfg.codec, x0,
                                           cfg.inputs["x_target"], beta0)


def _run_invert_edit(cfg, seed):
    result = _inversion_edit(cfg, _resolve_x0(cfg, seed))
    return _edit_metrics(result.summary, result.output, cfg, cfg.editor["condition_target"]), result


def _row_metrics(result, cfg, condition):
    # Each row of a batched edit: its metrics, or the NumericalAbort it hit.
    return [abort if abort is not None else _edit_metrics(summary, output, cfg, condition)
            for output, summary, abort in zip(result.output, result.summary, result.aborts)]


def _run_invert_rows(cfg, x0s, beta0s, seeds):
    # The inversion draws nothing, so the rows' seeds go only into their x0.
    result = _inversion_edit(cfg, np.array(x0s), np.array(beta0s))
    return _row_metrics(result, cfg, cfg.editor["condition_target"])


def _flowedit(cfg, seed, x0, beta0=None, seeds=None):
    edit_cfg = FlowEditConfig(transport=cfg.transport, grid=cfg.grid, scales=cfg.scales,
                              seed=RngSeed(seed), **cfg.editor)
    return transport_enhanced_flowedit(edit_cfg, cfg.registry, cfg.codec, x0, beta0, seeds)


def _run_flowedit(cfg, seed):
    result = _flowedit(cfg, seed, _resolve_x0(cfg, seed))
    return _edit_metrics(result.summary, result.output, cfg, cfg.editor["cond_tar"]), result


def _run_flowedit_rows(cfg, x0s, beta0s, seeds):
    result = _flowedit(cfg, cfg.seed, np.array(x0s), np.array(beta0s), seeds)
    return _row_metrics(result, cfg, cfg.editor["cond_tar"])


def _run_generate(cfg, seed):
    x_target = cfg.inputs["x_target"]
    # Checked at load too; here for the sweep cells, which the sweep plan
    # gives their beta0 past the load checks.
    if cfg.transport.beta0 > 0.0 and x_target is None:
        raise ConfigError(_GENERATE_NEEDS_TARGET)
    noise = make_rng(seed).standard_normal((cfg.inputs["count"], cfg.registry.dim()))
    anchor = None if x_target is None else cfg.codec.encode(x_target)
    final = guided_final_states(cfg.registry, cfg.editor["condition"], cfg.scales, cfg.grid,
                                cfg.transport, anchor, noise)
    cloud = cfg.codec.decode(final)
    metrics = {
        "reconstruction_l2": None,
        "displacement_l2": None,
        "transport_work": None,
        "w2_to_target": _cloud_w2_to_condition(cloud, cfg.registry, cfg.editor["condition"]),
    }
    return metrics, cloud


# Each runner returns (metrics, result): the edit result, or the sample cloud.
_RUNNERS = {"invert_edit": _run_invert_edit, "flowedit": _run_flowedit,
            "generate": _run_generate}
# The editors a sweep runs once per group: (group config, x0s, beta0s, seeds)
# -> each row's metrics, or the NumericalAbort it hit.  Every row of a group
# has the group's config but for transport.beta0.
_ROW_RUNNERS = {"invert_edit": _run_invert_rows, "flowedit": _run_flowedit_rows}


def run_verify(cfg):
    """Run the configured bound verifications and return BoundReports."""
    vsection = cfg.verify
    rng = make_rng(cfg.seed, 2)
    dim = cfg.registry.dim()
    z_target = _draw_target_state(cfg.registry, vsection["condition"], rng)
    reports = []
    kinds = ("discretization", "convergence", "edit_control") if vsection["kind"] == "all" \
        else (vsection["kind"],)
    if "discretization" in kinds:
        field = make_velocity(cfg.registry, vsection["condition"], cfg.scales)
        z_init = rng.standard_normal(dim)
        reports.append(verify_discretization_bound(
            field, cfg.transport, z_init, z_target, vsection["step_counts"],
            probe_t=vsection["probe_t"]))
    if "convergence" in kinds or "edit_control" in kinds:
        setup = VerifySetup(
            registry=cfg.registry,
            condition=vsection["condition"],
            scales=cfg.scales,
            grid=cfg.grid,
            transport=cfg.transport,
            z_target=z_target,
            n_runs=vsection["n_runs"],
            seed=cfg.seed,
        )
        if "convergence" in kinds:
            reports.append(verify_convergence_bound(setup, vsection["beta0_list"]))
        if "edit_control" in kinds:
            reports.append(verify_edit_control_bound(setup, vsection["edit_beta0_list"], vsection["phi"]))
    return reports


def _report_lines(cfg, metrics=None, reports=None):
    lines = ["[run]", f"name = {cfg.name}", f"algorithm = {cfg.algorithm}", f"seed = {cfg.seed}", ""]
    if metrics is not None:
        lines.append("[result]")
        for key in _METRIC_COLUMNS:
            lines.append(f"{key} = {_fmt(metrics[key])}")
        lines.append("")
    for rep in reports or []:
        lines.append(f"[report.{rep.bound_kind}]")
        lines.append(f"passed = {_fmt(rep.passed)}")
        lines.append(f"slope = {_fmt(rep.slope)}")
        for key in sorted(rep.fitted_constants):
            lines.append(f"{key} = {_fmt(rep.fitted_constants[key])}")
        for key in sorted(rep.tolerance_used):
            val = rep.tolerance_used[key]
            text = ", ".join(_fmt(v) for v in val) if isinstance(val, tuple) else _fmt(val)
            lines.append(f"tolerance.{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def _measured_csv(report):
    return _csv_text([["series", "control", "observed"]]
                     + [[series, _fmt(control), _fmt(observed)]
                        for series, control, observed in report.measured])


def run_experiment(cfg, out_dir=None):
    """Execute one configured run and write its artifacts.

    Editing runs write a trajectory CSV and a report; generate writes the
    sample cloud; verify writes one measured CSV per bound.  Plots are added
    for 2-D data when experiment.plot is true.
    """
    out_dir = out_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, cfg.name)
    files = []
    reports = []

    if cfg.algorithm == "verify":
        reports = run_verify(cfg)
        for rep in reports:
            files.append(atomic_write_text(f"{base}_{rep.bound_kind}_measured.csv",
                                           _measured_csv(rep)))
        metrics = None
    else:
        metrics, result = _RUNNERS[cfg.algorithm](cfg, cfg.seed)
        if cfg.algorithm == "generate":
            stem, text, dim = "samples", points_csv(result), result.shape[1]
        else:
            stem, text, dim = "trajectory", trajectory_csv(result.trajectory), result.trajectory.dim
        files.append(atomic_write_text(f"{base}_{stem}.csv", text))
        if cfg.plot and dim == 2:
            files.append(atomic_write_text(f"{base}_{stem}.svg", render_csv(text, files[-1])))

    files.append(atomic_write_text(f"{base}_report.txt",
                                   _report_lines(cfg, metrics, reports)))
    return RunArtifacts(files=files, metrics=metrics or {}, reports=reports)


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: one sweep cell's failure is
    that cell's row, not the sweep's."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return exc


def _plan_cells(cfg, paths, cells):
    """Yield (group key, config) for each cell in order, the config being
    the exception derive_config(cfg, overrides) raises on that cell when it
    fails.  Yielding lets a cell's config go once its rows have run.

    Cells whose overrides differ only in transport.beta0 form a group keyed
    by the other overrides, derived once; each distinct beta0 value is parsed
    and checked once, by config.cell_beta0, and the cell's config is its
    group's with that beta0.  A cell whose beta0 or group fails is derived
    alone, so it fails with derive_config's own error, in derive_config's
    order of checks (a grid.* error before a bad beta0 before an editor.*
    error).
    """
    groups, beta0s = {}, {}
    for combo in cells:
        overrides = dict(zip(paths, combo))
        key = tuple(item for item in overrides.items() if item[0] != _BETA0)
        if key not in groups:
            groups[key] = _attempt(derive_config, cfg, dict(key))
        group = groups[key]
        text = overrides.get(_BETA0)
        if text is not None and text not in beta0s:
            beta0s[text] = _attempt(cell_beta0, text)
        beta0 = None if text is None else beta0s[text]
        if isinstance(group, Exception) or isinstance(beta0, Exception):
            yield key, _attempt(derive_config, cfg, overrides)
        elif beta0 is None:
            yield key, group
        else:
            yield key, replace(group, transport=replace(group.transport, beta0=beta0),
                               resolved={**group.resolved, _BETA0: text})


def _sweep_cell(cell_cfg, seed):
    """Run one row of a planned cell: a generate row returns its metrics, an
    invert_edit or flowedit row its x0 for its group's batched edit."""
    if cell_cfg.algorithm in _ROW_RUNNERS:
        return _resolve_x0(cell_cfg, seed)
    runner = _RUNNERS.get(cell_cfg.algorithm)
    if runner is None:
        raise ConfigError(f"sweeps do not support algorithm {cell_cfg.algorithm!r}")
    return runner(cell_cfg, seed)[0]


def run_sweep(cfg, out_dir=None):
    """Run the Cartesian sweep and write one results CSV.

    Row order is the product order of the axes as configured, then replicate.
    Rows run cell by cell from the plan of _plan_cells, and the invert_edit
    or flowedit rows of a group as one batched editor call, each row with
    its own beta0 and seed.  Failed cells keep their row with an error
    message; the caller decides the exit status from n_failed.
    """
    if not cfg.sweep_axes:
        raise ConfigError("sweep needs at least one axis = line in [sweep]")
    out_dir = out_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    paths = [path for path, _ in cfg.sweep_axes]
    cells = list(itertools.product(*[vals for _, vals in cfg.sweep_axes]))

    # batches: group key -> (first row's config, [(row, x0, beta0, seed)])
    # for the _ROW_RUNNERS rows, run once every row has its x0.
    heads, outcomes, batches = [], [], {}
    plan = _plan_cells(cfg, paths, cells)
    for cell_index, (combo, (key, cell_cfg)) in enumerate(zip(cells, plan)):
        for rep in range(cfg.replicates):
            cell_seed = derive_seed(cfg.seed, cell_index, rep)
            heads.append(list(combo) + [str(rep), str(cell_seed)])
            if isinstance(cell_cfg, Exception):
                outcomes.append(cell_cfg)
                continue
            outcome = _attempt(_sweep_cell, cell_cfg, cell_seed)
            if cell_cfg.algorithm in _ROW_RUNNERS and not isinstance(outcome, Exception):
                batches.setdefault(key, (cell_cfg, []))[1].append(
                    (len(outcomes), outcome, cell_cfg.transport.beta0, cell_seed))
                outcome = None
            outcomes.append(outcome)
    for group_cfg, members in batches.values():
        rows, x0s, beta0s, seeds = zip(*members)
        try:
            results = _ROW_RUNNERS[group_cfg.algorithm](group_cfg, x0s, beta0s, seeds)
        except Exception as exc:  # noqa: BLE001 - the group's rows fail, not the sweep
            results = [exc] * len(rows)
        for row, outcome in zip(rows, results):
            outcomes[row] = outcome

    table = [list(paths) + ["replicate", "seed"] + list(_METRIC_COLUMNS) + ["error"]]
    n_failed = 0
    for head, outcome in zip(heads, outcomes):
        if isinstance(outcome, Exception):
            n_failed += 1
            message = f"{type(outcome).__name__}: {outcome}".replace("\n", " ")
            table.append(head + ["" for _ in _METRIC_COLUMNS] + [message])
        else:
            table.append(head + [_fmt(outcome[k]) for k in _METRIC_COLUMNS] + [""])
    text = _csv_text(table)

    results_path = atomic_write_text(os.path.join(out_dir, f"{cfg.name}_results.csv"), text)
    if (cfg.plot and len(paths) == 1
            and _numeric_rows(table[0], table[1:], paths[0], "w2_to_target")):
        atomic_write_text(os.path.join(out_dir, f"{cfg.name}_results.svg"),
                          render_csv(text, results_path))
    return SweepOutcome(results_path=results_path, n_rows=len(cells) * cfg.replicates,
                        n_failed=n_failed)


def _numeric_rows(header, rows, x_key, y_key):
    """(x, y) of each row without an error whose x and y are numbers.  run_sweep
    passes the table its CSV holds, so it sees the chart render_csv draws."""
    points = []
    for values in rows:
        record = dict(zip(header, values))
        if record.get("error"):
            continue
        try:
            points.append((float(record[x_key]), float(record[y_key])))
        except (ValueError, KeyError):
            continue
    return points


def _is_number(text):
    try:
        float(text)
        return True
    except ValueError:
        return False


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


def render_csv(text, source, project=None, x=None, y="w2_to_target"):
    """The SVG of one CSV artifact, chosen by its contents.

    A header starting with t gives the trajectory of the z pair project
    ("I,J"; 0,1 by default for 2-D data), headerless numeric rows a point
    cloud projected the same way, and any other table a chart of y over x
    (its first column by default) without its error rows.  Errors name source.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        return render_trajectories([])
    if not header:
        raise ConfigError(f"{source}: first line is blank")
    if header[0] == "t":
        z_cols = [i for i, name in enumerate(header) if name.startswith("z_")]
        i, j = _parse_projection(project, len(z_cols))
        try:
            states = np.array([[float(r[z_cols[i]]), float(r[z_cols[j]])] for r in reader])
        except (IndexError, ValueError):
            raise ConfigError(f"{source}: trajectory row {reader.line_num} lacks a "
                              f"number in z_{i} or z_{j}") from None
        return render_trajectories([states] if states.size else [],
                                   x_label=f"z_{i}", y_label=f"z_{j}")
    if all(_is_number(c) for c in header):
        try:
            cloud = np.array([[float(v) for v in r] for r in [header, *reader]], dtype=float)
        except ValueError:
            raise ConfigError(f"{source}: point rows must each hold {len(header)} numbers, "
                              "as the first does") from None
        i, j = _parse_projection(project, cloud.shape[1])
        return render_point_cloud([cloud[:, (i, j)]], x_label=f"z_{i}", y_label=f"z_{j}")
    x_key = x or header[0]
    for key in (x_key, y):
        if key not in header:
            raise ConfigError(f"column {key!r} not in {source} header")
    return render_metric_chart(_numeric_rows(header, reader, x_key, y), x_key, y)


def gen_data(cfg, out_dir=None):
    """Materialize every configured dataset as a headerless CSV.

    Point sets are written verbatim; Gaussian specs are sampled with
    inputs.count points using a per-dataset seed offset.
    """
    out_dir = out_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for index, name in enumerate(cfg.registry.names()):
        if cfg.registry.kind(name) == "gaussian":
            pts = cfg.registry.sample_gaussian(name, make_rng(cfg.seed, 3, index),
                                               size=cfg.inputs["count"])
        else:
            pts = cfg.registry.points(name)
        files.append(atomic_write_text(os.path.join(out_dir, f"{name}.csv"), points_csv(pts)))
    return files
