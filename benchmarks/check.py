"""Correctness gate for one workload's outputs, run in a fresh interpreter.

    python3 benchmarks/check.py WORKLOAD CONFIG BASE_SEED WORKLOAD_SEED OUT_DIR RESULT_JSON

Writes {"attempted": n, "failed": [operation ids], "messages": [...]}, where
an operation is one sweep row or one bound report.

invert_sweep     every row has no error, finite metrics, the seed
                 derive_seed(base, cell, replicate); beta0 = 0 rows do no
                 transport work; 8 rows chosen by the workload seed match
                 `otflow run` on the same overrides and seed to 1e-9 relative.
flowedit_points  the same row checks; every beta0 = 0 row equals
                 baseline_flowedit on the same seed bit for bit.
verify_bounds    all three bound reports are present and passed.
"""

import csv
import json
import math
import os
import sys

import numpy as np

_REL_TOL = 1e-9
_SAMPLED_ROWS = 8


def _parse_report(path):
    """{section: {key: value}} of an otflow report file."""
    sections = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("[") and line.endswith("]"):
                current = sections.setdefault(line[1:-1], {})
            elif "=" in line and current is not None:
                key, _, value = line.partition("=")
                current[key.strip()] = value.strip()
    return sections


def _close(a, b):
    return a == b or abs(a - b) <= _REL_TOL * max(abs(a), abs(b))


class Gate:
    def __init__(self):
        self.failed = set()
        self.messages = []

    def fail(self, op, message):
        self.failed.add(op)
        if len(self.messages) < 20:
            self.messages.append(f"op {op}: {message}")


def _sweep_rows(cfg, base_seed, out_dir, gate):
    """Read the results CSV and apply the checks every sweep row must pass."""
    from otflow.runner import derive_seed

    with open(os.path.join(out_dir, f"{cfg.name}_results.csv"), encoding="utf-8",
              newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        rows = list(reader)
    (axis, values), = cfg.sweep_axes
    metric_cols = header[header.index("seed") + 1:header.index("error")]
    expected = len(values) * cfg.replicates
    for i in range(len(rows), expected):
        gate.fail(i, "row missing")
    if len(rows) > expected:
        gate.fail(expected, f"{len(rows)} rows, expected {expected}")
    for i, row in enumerate(rows):
        cell, rep = divmod(i, cfg.replicates)
        if row["error"]:
            gate.fail(i, f"error {row['error']!r}")
            continue
        if cell >= len(values) or row[axis] != values[cell] or int(row["replicate"]) != rep:
            gate.fail(i, "row out of product order")
            continue
        if int(row["seed"]) != derive_seed(base_seed, cell, rep):
            gate.fail(i, "seed is not derive_seed(base, cell, replicate)")
        if not all(row[c] and math.isfinite(float(row[c])) for c in metric_cols):
            gate.fail(i, "non-finite or missing metric")
    return axis, metric_cols, rows, expected


def _check_invert_sweep(config, base_seed, workload_seed, out_dir, gate):
    import contextlib
    import io

    from otflow.cli import main
    from otflow.config import load_config

    cfg = load_config(config)
    axis, metric_cols, rows, expected = _sweep_rows(cfg, base_seed, out_dir, gate)
    for i, row in enumerate(rows):
        if i not in gate.failed and float(row[axis]) == 0.0 and float(row["transport_work"]) != 0.0:
            gate.fail(i, "beta0 = 0 row did transport work")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([workload_seed, 99])))
    run_dir = out_dir.rstrip(os.sep) + "_check"
    for i in sorted(int(k) for k in rng.choice(len(rows), _SAMPLED_ROWS, replace=False)):
        row = rows[i]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", config, "--set", f"{axis}={row[axis]}", "--seed", row["seed"],
                         "--out-dir", run_dir])
        if code != 0:
            gate.fail(i, f"otflow run exited {code}")
            continue
        result = _parse_report(os.path.join(run_dir, f"{cfg.name}_report.txt"))["result"]
        for col in metric_cols:
            if not _close(float(result[col]), float(row[col])):
                gate.fail(i, f"{col} {row[col]} != otflow run {result[col]}")
    return expected


def _check_flowedit_points(config, base_seed, workload_seed, out_dir, gate):
    from otflow.config import derive_config, load_config
    from otflow.editors import FlowEditConfig, baseline_flowedit
    from otflow.metrics import w2_dirac_to_points

    cfg = load_config(config)
    axis, metric_cols, rows, expected = _sweep_rows(cfg, base_seed, out_dir, gate)
    cell_cfg = derive_config(cfg, {axis: "0"})
    src, tar = cell_cfg.editor["cond_src"], cell_cfg.editor["cond_tar"]
    source_points = cell_cfg.registry.points(cell_cfg.inputs["sample_source"])
    for i, row in enumerate(rows):
        if i in gate.failed or float(row[axis]) != 0.0:
            continue
        seed = int(row["seed"])
        # Input draws use the (seed, 1) stream, as the runner documents.
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
        x0 = np.array(source_points[rng.integers(len(source_points))])
        edit = FlowEditConfig(transport=cell_cfg.transport, grid=cell_cfg.grid, cond_src=src,
                              cond_tar=tar, scales=cell_cfg.scales, seed=seed,
                              n_avg=cell_cfg.editor["n_avg"], n_max=cell_cfg.editor["n_max"],
                              n_min=cell_cfg.editor["n_min"])
        base = baseline_flowedit(edit, cell_cfg.registry, cell_cfg.codec, x0)
        want = {
            "reconstruction_l2": base.summary.reconstruction_l2,
            "displacement_l2": base.summary.displacement_l2,
            "transport_work": base.summary.transport_work,
            "w2_to_target": w2_dirac_to_points(base.output, cell_cfg.registry.points(tar.name)),
        }
        for col in metric_cols:
            if float(row[col]) != want[col]:
                gate.fail(i, f"{col} {row[col]} != baseline_flowedit {want[col]!r}")
    return expected


def _check_verify_bounds(config, base_seed, workload_seed, out_dir, gate):
    from otflow.config import load_config

    kinds = ("discretization", "convergence", "edit_control")
    cfg = load_config(config)
    report = _parse_report(os.path.join(out_dir, f"{cfg.name}_report.txt"))
    for op, kind in enumerate(kinds):
        if report.get(f"report.{kind}", {}).get("passed") != "true":
            gate.fail(op, f"{kind} bound not passed")
    return len(kinds)


_CHECKS = {"invert_sweep": _check_invert_sweep, "flowedit_points": _check_flowedit_points,
           "verify_bounds": _check_verify_bounds}


def main():
    name, config, base_seed, workload_seed, out_dir, result_path = sys.argv[1:7]
    gate = Gate()
    attempted = _CHECKS[name](config, int(base_seed), int(workload_seed), out_dir, gate)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"attempted": attempted, "failed": sorted(gate.failed),
                   "messages": gate.messages}, fh)


if __name__ == "__main__":
    main()
