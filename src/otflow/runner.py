"""Experiment execution and on-disk artifacts.

All files go through an atomic temp+rename write, floats are formatted with
shortest round-trip repr, and every random draw is keyed off explicit integer
seeds, so identical configs produce byte-identical outputs regardless of
timing.

Seed discipline: the editor noise stream uses the experiment seed directly;
auxiliary draws use fixed offsets (seed, 1) for input sampling and (seed, 2)
for verification states; sweep cell c replicate r derives its seed from
(base seed, c, r), so a cell's row does not depend on the cells run before it.
Sweeps run in the calling thread.  Each cell's config is derived and
validated, and its x0 resolved, in turn; then every group of invert_edit
rows whose overrides differ only in transport.beta0 runs as one (B, d)
editor call with a (B,) beta0.  The editor's kernels are batch-invariant, so
a row equals the single-state run of its cell bit for bit, and a row that
goes non-finite fails alone.  flowedit and generate cells run one editor
call each.
"""

import csv
import io
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, derive_config
from .core import integrate
from .editors import (FlowEditConfig, InversionEditConfig, RngSeed,
                      transport_enhanced_flowedit, transport_guided_inversion_edit)
from .fields import make_velocity
from .metrics import (VerifySetup, verify_convergence_bound, verify_discretization_bound,
                      verify_edit_control_bound, w2_dirac_to_gaussian, w2_dirac_to_points,
                      w2_empirical_exact, w2_gaussian)
from .svgplot import render_metric_chart, render_point_cloud, render_trajectories
from .transport import make_enhanced

_METRIC_COLUMNS = ("reconstruction_l2", "displacement_l2", "transport_work", "w2_to_target")


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
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(float(x))


def atomic_write_text(path, text):
    """Write via temp file + rename so readers never see a truncated file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return path


def _rng(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


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
        mean, cov = registry.gaussian(name)
        return rng.multivariate_normal(mean, cov)
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
    if cloud.shape[0] % len(pts) == 0 and cloud.shape[0] <= 2048:
        # Equal-size exact assignment against the atom-replicated dataset.
        reps = np.repeat(pts, cloud.shape[0] // len(pts), axis=0)
        return w2_empirical_exact(cloud, reps)[0]
    return None


def _resolve_x0(cfg, seed):
    if cfg.inputs["x0"] is not None:
        return cfg.inputs["x0"]
    rng = _rng(seed, 1)
    return _draw_from_dataset(cfg.registry, cfg.inputs["sample_source"], rng)


def _edit_metrics(summary, output, cfg, condition):
    return {
        "reconstruction_l2": summary.reconstruction_l2,
        "displacement_l2": summary.displacement_l2,
        "transport_work": summary.transport_work,
        "w2_to_target": _w2_to_condition(output, cfg.registry, condition),
    }


def _inversion_edit(cfg, x0, beta0=None):
    edit_cfg = InversionEditConfig(
        eta=cfg.editor["eta"],
        transport=cfg.transport,
        grid=cfg.grid,
        condition_target=cfg.editor["condition"],
        scales=cfg.scales,
        eta_window=cfg.editor["eta_window"],
    )
    return transport_guided_inversion_edit(edit_cfg, cfg.registry, cfg.codec, x0,
                                           cfg.inputs["x_target"], beta0)


def _run_invert_edit(cfg, seed):
    result = _inversion_edit(cfg, _resolve_x0(cfg, seed))
    return _edit_metrics(result.summary, result.output, cfg, cfg.editor["condition"]), result


def _run_invert_rows(cfg, x0s, beta0s):
    """One batched edit for sweep rows whose configs differ from cfg only in
    transport.beta0: each row's metrics, or the NumericalAbort it hit."""
    result = _inversion_edit(cfg, np.array(x0s), np.array(beta0s))
    return [abort if abort is not None
            else _edit_metrics(summary, output, cfg, cfg.editor["condition"])
            for output, summary, abort in zip(result.output, result.summary, result.aborts)]


def _run_flowedit(cfg, seed):
    edit_cfg = FlowEditConfig(
        transport=cfg.transport,
        grid=cfg.grid,
        cond_src=cfg.editor["cond_src"],
        cond_tar=cfg.editor["cond_tar"],
        scales=cfg.scales,
        seed=RngSeed(seed),
        n_avg=cfg.editor["n_avg"],
        n_max=cfg.editor["n_max"],
        n_min=cfg.editor["n_min"],
    )
    x0 = _resolve_x0(cfg, seed)
    result = transport_enhanced_flowedit(edit_cfg, cfg.registry, cfg.codec, x0)
    return _edit_metrics(result.summary, result.output, cfg, cfg.editor["cond_tar"]), result


def _run_generate(cfg, seed):
    rng = _rng(seed)
    noise = rng.standard_normal((cfg.inputs["count"], cfg.registry.dim()))
    field = make_velocity(cfg.registry, cfg.editor["condition"], cfg.scales)
    if cfg.transport.beta0 > 0.0:
        if cfg.inputs["x_target"] is None:
            raise ConfigError("generate with transport.beta0 > 0 needs inputs.x_target")
        field = make_enhanced(field, cfg.codec.encode(cfg.inputs["x_target"]), cfg.transport)
    traj = integrate(field, noise, cfg.grid)
    cloud = cfg.codec.decode(traj.final_state)
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


def run_verify(cfg, seed):
    """Run the configured bound verifications and return BoundReports."""
    vsection = cfg.verify
    rng = _rng(seed, 2)
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
            seed=seed,
        )
        if "convergence" in kinds:
            reports.append(verify_convergence_bound(setup, vsection["beta0_list"]))
        if "edit_control" in kinds:
            reports.append(verify_edit_control_bound(setup, vsection["edit_beta0_list"], vsection["phi"]))
    return reports


def _report_lines(cfg, seed, metrics=None, reports=None):
    lines = ["[run]", f"name = {cfg.name}", f"algorithm = {cfg.algorithm}", f"seed = {seed}", ""]
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


def run_experiment(cfg, out_dir=None, seed=None):
    """Execute one configured run and write its artifacts.

    Editing runs write a trajectory CSV and a report; generate writes the
    sample cloud; verify writes one measured CSV per bound.  Plots are added
    for 2-D data when experiment.plot is true.
    """
    out_dir = out_dir or cfg.output_dir
    seed = cfg.seed if seed is None else seed
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, cfg.name)
    files = []
    reports = []

    if cfg.algorithm == "verify":
        reports = run_verify(cfg, seed)
        for rep in reports:
            files.append(atomic_write_text(f"{base}_{rep.bound_kind}_measured.csv",
                                           _measured_csv(rep)))
        metrics = None
    else:
        metrics, result = _RUNNERS[cfg.algorithm](cfg, seed)
        if cfg.algorithm == "generate":
            files.append(atomic_write_text(f"{base}_samples.csv", points_csv(result)))
            if cfg.plot and result.shape[1] == 2:
                files.append(atomic_write_text(f"{base}_samples.svg",
                                               render_point_cloud([result])))
        else:
            files.append(atomic_write_text(f"{base}_trajectory.csv",
                                           trajectory_csv(result.trajectory)))
            if cfg.plot and result.trajectory.dim == 2:
                files.append(atomic_write_text(f"{base}_trajectory.svg",
                                               render_trajectories([result.trajectory.states])))

    files.append(atomic_write_text(f"{base}_report.txt",
                                   _report_lines(cfg, seed, metrics, reports)))
    return RunArtifacts(files=files, metrics=metrics or {}, reports=reports)


def _sweep_cell(cfg, overrides, seed):
    """Derive one cell's config and run it: flowedit and generate cells return
    their metrics, an invert_edit cell returns (config, x0) for its group's
    batched edit."""
    cell_cfg = derive_config(cfg, overrides)
    if cell_cfg.algorithm == "invert_edit":
        return cell_cfg, _resolve_x0(cell_cfg, seed)
    runner = _RUNNERS.get(cell_cfg.algorithm)
    if runner is None:
        raise ConfigError(f"sweeps do not support algorithm {cell_cfg.algorithm!r}")
    return runner(cell_cfg, seed)[0]


def run_sweep(cfg, out_dir=None, seed=None):
    """Run the Cartesian sweep and write one results CSV.

    Row order is the product order of the axes as configured, then replicate.
    Every cell is derived and validated in turn; invert_edit rows whose
    overrides differ only in transport.beta0 then run as one batched editor
    call.  Failed cells keep their row with an error message; the caller
    decides the exit status from n_failed.
    """
    if not cfg.sweep_axes:
        raise ConfigError("sweep needs at least one axis = line in [sweep]")
    out_dir = out_dir or cfg.output_dir
    base_seed = cfg.seed if seed is None else seed
    os.makedirs(out_dir, exist_ok=True)
    paths = [path for path, _ in cfg.sweep_axes]
    cells = list(itertools.product(*[vals for _, vals in cfg.sweep_axes]))

    # groups: overrides other than transport.beta0 -> (first row's config,
    # [(row, x0, beta0)]) for the invert_edit rows, run once all are derived.
    heads, outcomes, groups = [], [], {}
    for cell_index, combo in enumerate(cells):
        overrides = dict(zip(paths, combo))
        for rep in range(cfg.replicates):
            cell_seed = derive_seed(base_seed, cell_index, rep)
            heads.append(list(combo) + [str(rep), str(cell_seed)])
            try:
                outcome = _sweep_cell(cfg, overrides, cell_seed)
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                outcome = exc
            if isinstance(outcome, tuple):
                cell_cfg, x0 = outcome
                key = tuple(item for item in overrides.items() if item[0] != "transport.beta0")
                groups.setdefault(key, (cell_cfg, []))[1].append(
                    (len(outcomes), x0, cell_cfg.transport.beta0))
                outcome = None
            outcomes.append(outcome)
    for group_cfg, members in groups.values():
        rows, x0s, beta0s = zip(*members)
        try:
            results = _run_invert_rows(group_cfg, x0s, beta0s)
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
    if cfg.plot and len(paths) == 1:
        rows = _numeric_rows(text, paths[0], "w2_to_target")
        if rows:
            atomic_write_text(os.path.join(out_dir, f"{cfg.name}_results.svg"),
                              render_metric_chart(rows, paths[0], "w2_to_target"))
    return SweepOutcome(results_path=results_path, n_rows=len(cells) * cfg.replicates,
                        n_failed=n_failed)


def _numeric_rows(csv_text, x_key, y_key):
    reader = csv.DictReader(io.StringIO(csv_text))
    rows = []
    for record in reader:
        if record.get("error"):
            continue
        try:
            rows.append((float(record[x_key]), float(record[y_key])))
        except (ValueError, KeyError, TypeError):
            continue
    return rows


def gen_data(cfg, out_dir=None, seed=None):
    """Materialize every configured dataset as a headerless CSV.

    Point sets are written verbatim; Gaussian specs are sampled with
    inputs.count points using a per-dataset seed offset.
    """
    out_dir = out_dir or cfg.output_dir
    seed = cfg.seed if seed is None else seed
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for index, name in enumerate(cfg.registry.names()):
        if cfg.registry.kind(name) == "gaussian":
            mean, cov = cfg.registry.gaussian(name)
            rng = _rng(seed, 3, index)
            pts = rng.multivariate_normal(mean, cov, size=cfg.inputs["count"])
        else:
            pts = cfg.registry.points(name)
        files.append(atomic_write_text(os.path.join(out_dir, f"{name}.csv"), points_csv(pts)))
    return files
