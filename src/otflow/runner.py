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
that cell (if it derives, it is a group of its own).  Every row runs on its
group's config with its own beta0 and seed.  `otflow run` and a sweep group
reach an editor through one dispatch, _edit: a group's invert_edit or
flowedit rows draw their x0s in one pass (FieldRegistry.draw_rows, each row
from its own make_rng(seed, 1)) and run as one (B, d) editor call with a
(B,) beta0 and, for flowedit's noise draws, the rows' B seeds.  The editors'
kernels are batch-invariant, and _group_metrics turns the group's outputs
and summaries into its metric rows with a Gaussian target's W2 as one call
over all rows, so a row equals the single-state run of its cell bit for bit
(`otflow run` is a group of one), and a row that goes non-finite fails
alone.  generate rows run one call each.

Every SVG is render_csv of the CSV written beside it, the function that
`otflow plot` draws with, so plotting a run's CSV gives its SVG's bytes.
"""

import csv
import io
import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import _GENERATE_NEEDS_TARGET, ConfigError, cell_beta0, derive_config, editor_config
from .core import NumericalAbort, _seed_sequence, make_rng
from .editors import transport_enhanced_flowedit, transport_guided_inversion_edit
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
    if isinstance(x, int):
        return str(x)
    return str(float(x))


def atomic_write_text(path, text):
    """Write via temp file + rename so readers never see a truncated file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return path


def derive_seed(base_seed, cell_index, replicate):
    """64-bit seed for one sweep cell, independent of execution order: the
    first uint64 word of SeedSequence([base_seed, cell_index, replicate]),
    built by core._seed_sequence, which takes nonnegative integers only."""
    ss = _seed_sequence(base_seed, cell_index, replicate)
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


def _cloud_w2_to_condition(cloud, registry, condition):
    """W2 from a generated cloud to its dataset condition: a Gaussian's by
    the Bures formula on the cloud's moments, a point set's by exact
    assignment against its atoms repeated to the cloud's size, None for the
    null condition or a size the atoms do not divide.  W2 scales by s when
    both measures are scaled by s, with the same optimal assignment, so a
    cloud whose squares overflow is measured divided by s, the largest
    |entry| of cloud and target, and the result multiplied by s."""
    if condition.kind != "dataset":
        return None
    cloud = np.asarray(cloud, dtype=float)
    if registry.kind(condition.name) == "gaussian":
        mean, cov = registry.gaussian(condition.name)
        span = max(np.abs(mean).max(), np.sqrt(np.abs(cov).max()))

        def w2(s):
            x = cloud / s
            emp_mean = x.mean(axis=0)
            centered = x - emp_mean
            return s * w2_gaussian(emp_mean, centered.T @ centered / len(x), mean / s, cov / s / s)
        with np.errstate(over="ignore", invalid="ignore"):
            value = w2(1.0)
        huge = not np.isfinite(value)
    else:
        pts = registry.points(condition.name)
        if len(cloud) % len(pts) or len(cloud) > _EMPIRICAL_CAP:
            return None
        reps = np.repeat(pts, len(cloud) // len(pts), axis=0)
        span = np.abs(pts).max()

        def w2(s):
            return s * w2_empirical_exact(cloud / s, reps / s)[0]
        # An overflowing squared distance would leave the assignment
        # infeasible or wrong, so the distances are checked before it runs.
        from scipy.spatial.distance import cdist
        with np.errstate(over="ignore"):
            huge = not np.isfinite(cdist(cloud, pts, "sqeuclidean")).all()
        value = None if huge else w2(1.0)
    return w2(max(np.abs(cloud).max(), span)) if huge else value


def _x0_rows(cfg, seeds):
    """The (B, d) sources of the rows with these seeds: inputs.x0 in every
    row, else each row's draw from inputs.sample_source by make_rng(seed, 1)."""
    if cfg.inputs["x0"] is not None:
        return np.tile(cfg.inputs["x0"], (len(seeds), 1))
    return cfg.registry.draw_rows(cfg.inputs["sample_source"], [make_rng(s, 1) for s in seeds])


# The cfg.editor key of each editing algorithm's target condition.
_TARGET_KEYS = {"invert_edit": "condition_target", "flowedit": "cond_tar"}


def _edit(cfg, x0, beta0=None, seeds=None):
    """cfg.algorithm's editor, configured from cfg.editor, on one (d,) source
    or a (B, d) batch with a (B,) beta0 and, for flowedit's noise draws, B
    seeds; both default to the config's own."""
    if cfg.algorithm == "invert_edit":
        # The inversion draws nothing, so a row's seed goes only into its x0.
        return transport_guided_inversion_edit(editor_config(cfg), cfg.registry, cfg.codec,
                                               x0, cfg.inputs["x_target"], beta0)
    return transport_enhanced_flowedit(editor_config(cfg), cfg.registry, cfg.codec, x0,
                                       beta0, seeds)


def _group_metrics(cfg, outputs, summaries, aborts):
    """Each row's metric dict, or its abort.  A point-set target's W2 runs
    per row: a (B, n, d) difference would be B times the set."""
    condition = cfg.editor[_TARGET_KEYS[cfg.algorithm]]
    if condition.kind != "dataset":
        w2 = [None] * len(outputs)
    elif cfg.registry.kind(condition.name) == "gaussian":
        w2 = w2_dirac_to_gaussian(outputs, *cfg.registry.gaussian(condition.name)).tolist()
    else:
        w2 = [w2_dirac_to_points(row, cfg.registry.points(condition.name)) for row in outputs]
    return [abort if abort is not None else {**vars(summary), "w2_to_target": w2_row}
            for summary, abort, w2_row in zip(summaries, aborts, w2)]


def _generate(cfg, seed, beta0):
    """(metrics, sample cloud) of inputs.count samples from the seed's noise,
    guided by the transport term at strength beta0."""
    x_target = cfg.inputs["x_target"]
    # Checked at load too; here for the sweep rows, whose beta0 the sweep
    # plan gives past the load checks, with the text derive_config gives.
    if beta0 > 0.0 and x_target is None:
        raise ConfigError(f"transport.beta0: {_GENERATE_NEEDS_TARGET}")
    noise = make_rng(seed).standard_normal((cfg.inputs["count"], cfg.registry.dim()))
    anchor = None if x_target is None else cfg.codec.encode(x_target)
    final = guided_final_states(cfg.registry, cfg.editor["condition"], cfg.scales, cfg.grid,
                                replace(cfg.transport, beta0=beta0), anchor, noise)
    # final is finite (integrate_final raises otherwise), so a non-finite
    # cloud is the codec's overflow, located here rather than warned of.
    with np.errstate(over="ignore"):
        cloud = cfg.codec.decode(final)
    if not np.isfinite(cloud).all():
        raise NumericalAbort(f"decoded samples are non-finite at t={cfg.grid.t_end}",
                             t=cfg.grid.t_end, step=cfg.grid.n_steps, term="decode")
    metrics = {
        "reconstruction_l2": None,
        "displacement_l2": None,
        "transport_work": None,
        "w2_to_target": _cloud_w2_to_condition(cloud, cfg.registry, cfg.editor["condition"]),
    }
    return metrics, cloud


def _run_rows(cfg, seeds, beta0s):
    """Each row's metrics, or the exception that row hit, for the rows of one
    sweep group: invert_edit or flowedit rows as one batched edit, generate
    rows one call each."""
    if cfg.algorithm in _TARGET_KEYS:
        result = _edit(cfg, _x0_rows(cfg, seeds), np.array(beta0s), seeds)
        return _group_metrics(cfg, result.output, result.summary, result.aborts)
    if cfg.algorithm == "generate":
        outcomes = [_attempt(_generate, cfg, seed, beta0) for seed, beta0 in zip(seeds, beta0s)]
        return [o if isinstance(o, Exception) else o[0] for o in outcomes]
    raise ConfigError(f"sweeps do not support algorithm {cfg.algorithm!r}")


def run_verify(cfg):
    """Run the configured bound verifications and return BoundReports."""
    vsection = cfg.verify
    rng = make_rng(cfg.seed, 2)
    dim = cfg.registry.dim()
    names, condition = cfg.registry.names(), vsection["condition"]
    name = condition.name if condition.kind == "dataset" else names[rng.integers(len(names))]
    z_target = cfg.registry.draw_rows(name, [rng])[0]
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


def _report_lines(cfg, metrics, reports):
    lines = ["[run]", f"name = {cfg.name}", f"algorithm = {cfg.algorithm}", f"seed = {cfg.seed}", ""]
    if metrics is not None:
        lines.append("[result]")
        for key in _METRIC_COLUMNS:
            lines.append(f"{key} = {_fmt(metrics[key])}")
        lines.append("")
    for rep in reports:
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
        if cfg.algorithm == "generate":
            metrics, cloud = _generate(cfg, cfg.seed, cfg.transport.beta0)
            stem, text, dim = "samples", points_csv(cloud), cloud.shape[1]
        else:
            result = _edit(cfg, _x0_rows(cfg, [cfg.seed])[0])
            metrics, = _group_metrics(cfg, result.output[None], (result.summary,), (None,))
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
    """Yield (group key, group config, beta0) for each cell in order, the
    config being the exception derive_config(cfg, overrides) raises on that
    cell when it fails.

    Cells whose overrides differ only in transport.beta0 form a group keyed
    by the other overrides, derived once; each distinct beta0 value is parsed
    and checked once, by config.cell_beta0, and a cell without a beta0 axis
    takes its group's.  A cell whose beta0 or group fails is derived alone,
    so it fails with derive_config's own error, in derive_config's order of
    checks (a grid.* error before a bad beta0 before an editor.* error).  If
    it derives alone, it is a group of its own, keyed by all its overrides,
    with its own config's beta0 (a generate group at a base beta0 > 0 without
    a target fails, while its beta0 = 0 cell runs).
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
            cell = _attempt(derive_config, cfg, overrides)
            yield (tuple(overrides.items()), cell,
                   None if isinstance(cell, Exception) else cell.transport.beta0)
        else:
            yield key, group, group.transport.beta0 if beta0 is None else beta0


def run_sweep(cfg, out_dir=None):
    """Run the Cartesian sweep and write one results CSV.

    Row order is the product order of the axes as configured, then replicate.
    Each row is filed under its group from the plan of _plan_cells, and each
    group's rows run on the group's config by one _run_rows call, each row
    with its own beta0 and seed.  Failed cells keep their row with an error
    message; the caller decides the exit status from n_failed.
    """
    if not cfg.sweep_axes:
        raise ConfigError("sweep needs at least one axis = line in [sweep]")
    out_dir = out_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    paths = [path for path, _ in cfg.sweep_axes]
    cells = list(itertools.product(*[vals for _, vals in cfg.sweep_axes]))

    # groups: group key -> (group config, [(row, seed, beta0)])
    heads, outcomes, groups = [], [], {}
    plan = _plan_cells(cfg, paths, cells)
    for cell_index, (combo, (key, group_cfg, beta0)) in enumerate(zip(cells, plan)):
        for rep in range(cfg.replicates):
            cell_seed = derive_seed(cfg.seed, cell_index, rep)
            heads.append(list(combo) + [str(rep), str(cell_seed)])
            if isinstance(group_cfg, Exception):
                outcomes.append(group_cfg)
                continue
            groups.setdefault(key, (group_cfg, []))[1].append((len(outcomes), cell_seed, beta0))
            outcomes.append(None)
    for group_cfg, members in groups.values():
        rows, seeds, beta0s = zip(*members)
        results = _attempt(_run_rows, group_cfg, seeds, beta0s)
        if isinstance(results, Exception):
            results = [results] * len(rows)
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
    chart = _numeric_rows(table[0], table[1:], paths[0], "w2_to_target")
    if cfg.plot and len(paths) == 1 and next(chart, None) is not None:
        atomic_write_text(os.path.join(out_dir, f"{cfg.name}_results.svg"),
                          render_csv(text, results_path))
    return SweepOutcome(results_path=results_path, n_rows=len(cells) * cfg.replicates,
                        n_failed=n_failed)


def _numeric_rows(header, rows, x_key, y_key):
    """Yield (x, y) of each row without an error whose x and y are numbers.
    run_sweep passes the table its CSV holds, so it sees the chart render_csv
    draws, and stops at the first point."""
    for values in rows:
        record = dict(zip(header, values))
        if record.get("error"):
            continue
        try:
            point = float(record[x_key]), float(record[y_key])
        except (ValueError, KeyError):
            continue
        yield point


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
