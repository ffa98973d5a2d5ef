"""Experiment runner artifacts and the command-line surface.

Determinism contract under test: identical configs must produce byte-identical
files, sweeps must not depend on the --workers flag, and every exit code in
the CLI contract must be reachable.
"""

import collections
import csv
import io
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from otflow import (ConfigError, NumericalAbort, derive_config, load_config_text, runner,
                    w2_dirac_to_points, w2_empirical_exact)
from otflow.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_PARTIAL,
                        EXIT_VERIFY, main)
from otflow.config import _ELEMENT_CAP, _GENERATE_NEEDS_TARGET, load_config
from otflow.core import make_rng
from otflow.runner import (atomic_write_text, derive_seed, gen_data, points_csv,
                           run_experiment, run_sweep, run_verify, trajectory_csv)
from otflow.svgplot import render_metric_chart, render_trajectories
from reference_passes import split_reference, two_pass_discretization

_EDIT_CFG = """\
[experiment]
algorithm = invert_edit
name = edit
[dataset.a]
mean = -1.5, 0.0
cov = 0.16, 0; 0, 0.16
[dataset.b]
mean = 1.5, 0.5
cov = 0.16, 0; 0, 0.16
[inputs]
x0 = -1.3, 0.1
[editor]
condition = b
eta = 0.5
[transport]
beta0 = 0.1
clip_tau = 1.0
[scales]
w = 2.0
"""

_SWEEP_CFG = """\
[experiment]
algorithm = flowedit
name = sw
[dataset.a]
mean = -2.0, 0.0
cov = 0.16, 0; 0, 0.16
[dataset.b]
mean = 2.0, 0.0
cov = 0.16, 0; 0, 0.16
[inputs]
x0 = -2.3, 0.2
[editor]
source_condition = a
target_condition = b
n_max = 24
[transport]
phi = 1.0
orientation = remaining
clip_tau = 1.0
[scales]
w_src = 1.5
w_tar = 5.5
[sweep]
axis = transport.beta0: 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0
replicates = 4
"""

# The invert_sweep benchmark's shape, with a beta0 that overflows.
_INVERT_SWEEP_CFG = """\
[experiment]
algorithm = invert_edit
name = isw
[grid]
n_steps = 28
[dataset.a]
mean = -1.5, 0.0
cov = 0.25, 0; 0, 0.25
[dataset.b]
mean = 1.5, 0.5
cov = 0.25, 0; 0, 0.25
[inputs]
sample_source = a
[editor]
eta = 0.5
eta_stop = 0.25
condition = b
[transport]
clip_tau = 1.0
[scales]
w = 7.5
[sweep]
axis = transport.beta0: 0, 0.5, 1e300
replicates = 2
"""

_VERIFY_PASS_CFG = """\
[experiment]
algorithm = verify
name = vp
[dataset.data]
mean = 1.0, -0.5
cov = 0.8, 0.2; 0.2, 0.5
[transport]
beta0 = 0.2
phi = 0.3
clip_tau = 1.0
[verify]
condition = data
"""

_VERIFY_FAIL_CFG = """\
[experiment]
algorithm = verify
name = vf
[dataset.data]
mean = 1.0, -0.5
cov = 0.8, 0.2; 0.2, 0.5
[transport]
clip_tau = 10.0
phi = 1.0
[verify]
kind = convergence
beta0_list = 0, 2, 4, 8
condition = data
"""

_GEN_CFG = """\
[experiment]
algorithm = generate
name = gen
[dataset.a]
mean = -1.5, 0.0
cov = 0.16, 0; 0, 0.16
[editor]
condition = a
[inputs]
count = 64
"""


# Two point-set datasets, x0 drawn from the first: flowedit_points' shape.
_POINTS_CFG = """\
[experiment]
algorithm = flowedit
name = pts
[grid]
n_steps = 8
[dataset.a]
points = -2, 0; -1.5, 0.5; -1, -0.5
[dataset.b]
points = 1, 0; 1.5, 0.5; 2, -0.5; 2.5, 0
[inputs]
sample_source = a
[editor]
source_condition = a
target_condition = b
"""


def _cfg(text, **kw):
    return load_config_text(text, **kw)


def test_trajectory_csv_structure():
    from otflow import InversionEditConfig, transport_guided_inversion_edit

    cfg = _cfg(_EDIT_CFG)
    res = transport_guided_inversion_edit(
        InversionEditConfig(eta=0.5, transport=cfg.transport, grid=cfg.grid,
                            condition_target=cfg.editor["condition_target"], scales=cfg.scales),
        cfg.registry, cfg.codec, cfg.inputs["x0"])
    text = trajectory_csv(res.trajectory)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["t", "z_0", "z_1", "v_0", "v_1", "transport_norm", "weight"]
    assert len(rows) == cfg.grid.n_steps + 2  # header + one row per grid point
    ts = [float(r[0]) for r in rows[1:]]
    assert ts[0] == 1.0 and ts[-1] == 0.0 and all(a > b for a, b in zip(ts, ts[1:]))
    # the terminal record carries no step data
    assert rows[-1][3:] == ["0.0", "0.0", "0.0", "0.0"]


def test_points_csv_formatting():
    text = points_csv(np.array([[0.0, 1.0], [2.5, -3.0]]))
    assert text == "0.0,1.0\n2.5,-3.0\n"


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(0, 0, 0) == derive_seed(0, 0, 0)
    seen = {derive_seed(0, c, r) for c in range(5) for r in range(4)}
    assert len(seen) == 20
    assert all(0 <= s < 2 ** 64 for s in seen)


def test_atomic_write_leaves_no_temp(tmp_path):
    path = str(tmp_path / "f.txt")
    atomic_write_text(path, "hello")
    assert open(path).read() == "hello"
    assert os.listdir(tmp_path) == ["f.txt"]


def test_run_experiment_invert_edit_artifacts(tmp_path):
    cfg = _cfg(_EDIT_CFG, overrides=["experiment.seed=3"])
    art = run_experiment(cfg, out_dir=str(tmp_path))
    names = sorted(os.path.basename(p) for p in art.files)
    assert names == ["edit_report.txt", "edit_trajectory.csv"]
    report = open(os.path.join(tmp_path, "edit_report.txt")).read()
    assert "[run]" in report and "seed = 3" in report
    assert "[result]" in report and "reconstruction_l2 = " in report
    assert set(art.metrics) == {"reconstruction_l2", "displacement_l2",
                                "transport_work", "w2_to_target"}
    assert art.metrics["w2_to_target"] is not None
    assert art.metrics["transport_work"] > 0.0


def test_run_experiment_is_byte_deterministic(tmp_path):
    cfg = _cfg(_EDIT_CFG)
    a1 = run_experiment(cfg, out_dir=str(tmp_path / "r1"))
    a2 = run_experiment(cfg, out_dir=str(tmp_path / "r2"))
    for p1, p2 in zip(sorted(a1.files), sorted(a2.files)):
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_run_experiment_generate(tmp_path):
    cfg = _cfg(_GEN_CFG)
    art = run_experiment(cfg, out_dir=str(tmp_path))
    cloud = np.loadtxt(os.path.join(tmp_path, "gen_samples.csv"), delimiter=",")
    assert cloud.shape == (64, 2)
    # samples concentrate near the dataset mean
    assert np.linalg.norm(cloud.mean(axis=0) - np.array([-1.5, 0.0])) < 0.3
    assert art.metrics["w2_to_target"] is not None


def test_generate_with_transport_needs_target(tmp_path):
    # Load rejects such a config (tests/test_config.py); the run-time check
    # still guards one given its beta0 past the load checks, as a sweep cell is.
    plain = _cfg(_GEN_CFG)
    cfg = replace(plain, transport=replace(plain.transport, beta0=0.5))
    with pytest.raises(ConfigError, match="x_target"):
        run_experiment(cfg, out_dir=str(tmp_path))
    ok = _cfg(_GEN_CFG + "[transport]\nbeta0 = 0.5\n[inputs]\nx_target = -1.5, 0.0\n")
    art = run_experiment(ok, out_dir=str(tmp_path))
    assert art.metrics["w2_to_target"] is not None


@pytest.mark.parametrize("x_target", ["", "x_target = 1.0, 0.0\n"], ids=["no-anchor", "anchor"])
def test_generate_at_zero_beta0_is_plain_denoising(tmp_path, x_target):
    # The guided sampler adds nothing at beta0 = 0: the cloud is the plain
    # integration of the condition's field over the seeded noise, bit for bit.
    from otflow import integrate, make_velocity
    from otflow.core import make_rng

    cfg = _cfg(_GEN_CFG + "[inputs]\n" + x_target)
    run_experiment(cfg, out_dir=str(tmp_path))
    noise = make_rng(cfg.seed).standard_normal((64, 2))
    field = make_velocity(cfg.registry, cfg.editor["condition"], cfg.scales)
    plain = cfg.codec.decode(integrate(field, noise, cfg.grid).final_state)
    assert open(tmp_path / "gen_samples.csv").read() == points_csv(plain)


def test_generate_sweep_beta0_cell_without_anchor_fails_alone(tmp_path):
    # The sweep plan sets beta0 past the load checks; the run-time check
    # fails exactly the beta0 > 0 rows.
    text = _GEN_CFG + "[sweep]\naxis = transport.beta0: 0, 0.5\nreplicates = 2\n"
    out = run_sweep(_cfg(text), out_dir=str(tmp_path))
    records = list(csv.DictReader(open(out.results_path)))
    assert out.n_failed == 2 and [r["error"] for r in records] == ["", ""] + [
        "ConfigError: transport.beta0: generate with transport.beta0 > 0 needs inputs.x_target"] * 2


def test_generate_sweep_cell_without_anchor_errs_alike_at_either_base_beta0(tmp_path):
    # At base beta0 0 the generate group derives and its beta0 = 0.5 rows fail
    # at run time; at base beta0 0.5 the group fails to derive and the cell
    # derives alone.  Both report the text derive_config gives the cell.
    axes = "axis = experiment.algorithm: invert_edit, generate\naxis = transport.beta0: 0, 0.5\n"
    errors = []
    for base in ("0", "0.5"):
        text = _EDIT_CFG.replace("beta0 = 0.1", f"beta0 = {base}") + "[sweep]\n" + axes
        out = run_sweep(_cfg(text), out_dir=str(tmp_path / base))
        records = csv.DictReader(open(out.results_path, encoding="utf-8"))
        errors.append([r["error"] for r in records])
    failed = "ConfigError: transport.beta0: " + _GENERATE_NEEDS_TARGET
    assert errors[0] == errors[1] == ["", "", "", failed]


def test_run_verify_kind_dispatch():
    one = run_verify(_cfg(_VERIFY_PASS_CFG + "kind = convergence\n"))
    assert [r.bound_kind for r in one] == ["convergence"]
    all_three = run_verify(_cfg(_VERIFY_PASS_CFG))
    assert [r.bound_kind for r in all_three] == ["discretization", "convergence",
                                                 "edit_control"]
    assert all(r.passed for r in all_three)


def test_run_verify_integrates_each_arm_once(monkeypatch):
    # The default lists hold five distinct arms (beta0 0, 0.1, 0.2, 0.4, 0.8
    # at the template's phi): each is one n_runs-row integration, and the
    # reports equal those of a fresh VerifySetup per verifier, bit for bit.
    from dataclasses import replace

    from otflow import metrics

    cfg = _cfg(_VERIFY_PASS_CFG + "n_runs = 16\n")
    setups, batches = [], []
    real_setup, real_integrate = runner.VerifySetup, metrics.integrate_final

    def recording_setup(**kw):
        setups.append(real_setup(**kw))
        return setups[-1]

    def counting_integrate(velocity, z0, grid):
        if np.ndim(z0) == 2:
            batches.append(z0.shape[0])
        return real_integrate(velocity, z0, grid)

    monkeypatch.setattr(runner, "VerifySetup", recording_setup)
    monkeypatch.setattr(metrics, "integrate_final", counting_integrate)
    _, conv, edit = run_verify(cfg)
    assert batches == [16] * 5 and len(setups) == 1
    vsec = cfg.verify
    assert conv.measured == metrics.verify_convergence_bound(
        replace(setups[0]), vsec["beta0_list"]).measured
    assert edit.measured == metrics.verify_edit_control_bound(
        replace(setups[0]), vsec["edit_beta0_list"], vsec["phi"]).measured


def _benchmark_workloads():
    # benchmarks/workloads.py, which writes each benchmark workload's inputs.
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "benchmarks", "workloads.py")
    spec = importlib.util.spec_from_file_location("otflow_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_workload_work_counts(tmp_path, monkeypatch):
    # The verify_bounds benchmark workload at seed 1, shrunk to 16 noise
    # runs, pins the work verify does, so a change in it shows without a
    # timer.  Field calls: 216 for the paired RK4 reference, whose base walk
    # of 50 steps is kept (its stated error is at most 1e-3 of every error
    # it measures), 1 probe, 80 for the four Euler runs walked together
    # (their grids nest), and for the five arms one shared first call on the
    # noise bank at t = 1 and 27 each.  The discretization check's binding
    # builds the Gaussian terms at each call at a new time (192).  The arms'
    # binding builds each grid time once on its first arm and once more,
    # into its table, on the second (28 + 27), and the later arms build
    # none: 247 builds in all, none of the arms' grid times built more than
    # twice.  The rows evaluated (2651) are those the runs would evaluate
    # one by one, less the four repeated first calls' 4 * 16.
    from otflow import fields, metrics

    workload = _benchmark_workloads().build("verify_bounds", 1, str(tmp_path), 1)
    cfg = load_config(workload.config_path, overrides=[
        "verify.n_runs=16", f"experiment.seed={workload.base_seed}"])
    calls, rows, terms, bindings = [], [], [], []
    bind, build = fields.make_velocity, fields._gaussian_terms

    def counting_bind(*args):
        field = bind(*args)
        bindings.append(field)

        def counted(z, t):
            calls.append((len(bindings), t))
            rows.append(z.shape[0] if np.ndim(z) == 2 else 1)
            return field(z, t)
        return counted

    def counting_build(stack, t, ops):
        # The binding that is calling: the one of the last counted call.
        terms.append(calls[-1])
        return build(stack, t, ops)

    monkeypatch.setattr(runner, "make_velocity", counting_bind)
    monkeypatch.setattr(metrics, "make_velocity", counting_bind)
    monkeypatch.setattr(fields, "_gaussian_terms", counting_build)
    reports = run_verify(cfg)
    assert [r.passed for r in reports] == [True] * 3
    assert len(bindings) == 2
    assert len(calls) == 216 + 1 + 80 + 1 + 5 * 27 == 433
    assert len(terms) == 192 + 28 + 27 == 247 and sum(rows) == 2651
    arm_builds = collections.Counter(t for binding, t in terms if binding == 2)
    assert sorted(arm_builds) == sorted(cfg.grid.points[:-1].tolist())
    assert max(arm_builds.values()) == 2
    fitted = reports[0].fitted_constants
    assert fitted["reference_steps"] == 50
    assert fitted["reference_error"] <= 1e-3 * min(e for _, _, e in reports[0].measured)


def test_invert_sweep_work_counts(tmp_path, monkeypatch):
    # The invert_sweep benchmark workload at seed 1, shrunk to 2 beta0
    # values x 2 replicates, pins the work a sweep does, so a change in it
    # shows without a timer.  Its 4 cells differ only in beta0 and seed, so
    # they form one group, run as one 4-row invert_edit with per-row beta0:
    # 28 null-field calls inverting the sources and 28 target-field calls
    # denoising them, each on the 4 rows.  Each binding meets every time of
    # its grid once, so it builds the Gaussian terms at each call.
    from otflow import editors, fields

    workload = _benchmark_workloads().build("invert_sweep", 1, str(tmp_path), 1)
    text = open(workload.config_path).read()
    lines = [line for line in text.splitlines() if not line.startswith(("axis", "replicates"))]
    path = tmp_path / "tiny.cfg"
    path.write_text("\n".join(lines) + "\naxis = transport.beta0: 0, 0.2\nreplicates = 2\n")
    cfg = load_config(str(path), overrides=[f"experiment.seed={workload.base_seed}",
                                            "experiment.plot=false"])
    calls, rows, terms = [], [], []
    bind, build = fields.make_velocity, fields._gaussian_terms

    def counting_bind(*args):
        field = bind(*args)

        def counted(z, t):
            calls.append(t)
            rows.append(z.shape[0] if np.ndim(z) == 2 else 1)
            return field(z, t)
        return counted

    def counting_build(stack, t, ops):
        terms.append(t)
        return build(stack, t, ops)

    monkeypatch.setattr(editors, "make_velocity", counting_bind)
    monkeypatch.setattr(fields, "_gaussian_terms", counting_build)
    out = run_sweep(cfg, out_dir=str(tmp_path / "out"))
    assert out.n_rows == 4 and out.n_failed == 0
    assert len(calls) == 28 + 28 == 56 and rows == [4] * 56
    assert len(terms) == 56


def test_run_experiment_verify_artifacts(tmp_path):
    cfg = _cfg(_VERIFY_PASS_CFG)
    art = run_experiment(cfg, out_dir=str(tmp_path))
    names = sorted(os.path.basename(p) for p in art.files)
    assert names == ["vp_convergence_measured.csv", "vp_discretization_measured.csv",
                     "vp_edit_control_measured.csv", "vp_report.txt"]
    report = open(os.path.join(tmp_path, "vp_report.txt")).read()
    for kind in ("discretization", "convergence", "edit_control"):
        assert f"[report.{kind}]" in report
    rows = list(csv.reader(open(os.path.join(tmp_path, "vp_convergence_measured.csv"))))
    assert rows[0] == ["series", "control", "observed"]
    assert len(rows) == 5  # four beta0 arms


def test_run_sweep_rows_and_determinism(tmp_path):
    cfg = _cfg(_SWEEP_CFG)
    out = run_sweep(cfg, out_dir=str(tmp_path / "s1"))
    assert out.n_rows == 44 and out.n_failed == 0
    rows = list(csv.reader(open(out.results_path)))
    assert rows[0] == ["transport.beta0", "replicate", "seed", "reconstruction_l2",
                       "displacement_l2", "transport_work", "w2_to_target", "error"]
    assert len(rows) == 45
    # product-then-replicate order
    assert [r[0] for r in rows[1:6]] == ["0", "0", "0", "0", "0.1"]
    assert [r[1] for r in rows[1:6]] == ["0", "1", "2", "3", "0"]

    again = run_sweep(cfg, out_dir=str(tmp_path / "s2"))
    assert open(out.results_path, "rb").read() == open(again.results_path, "rb").read()


def test_run_sweep_isolates_failed_cells(tmp_path):
    text = _SWEEP_CFG.replace(
        "axis = transport.beta0: 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0",
        "axis = transport.beta0: 0, -1").replace("replicates = 4", "replicates = 2")
    out = run_sweep(_cfg(text), out_dir=str(tmp_path))
    assert out.n_rows == 4 and out.n_failed == 2
    rows = list(csv.reader(open(out.results_path)))
    good = [r for r in rows[1:] if r[0] == "0"]
    bad = [r for r in rows[1:] if r[0] == "-1"]
    assert all(r[-1] == "" and r[3] != "" for r in good)
    assert all(r[-1] != "" and r[3] == "" for r in bad)


def test_invert_sweep_isolates_overflowing_rows(tmp_path, capsys):
    # The invert_edit rows run as one batched edit; the 1e300 rows overflow
    # and fail alone, with the text `otflow run` aborts with on that cell.
    cfg_path = _write(tmp_path, "isw.cfg", _INVERT_SWEEP_CFG)
    with np.errstate(all="ignore"):
        out = run_sweep(_cfg(_INVERT_SWEEP_CFG, overrides=["experiment.seed=3"]),
                        out_dir=str(tmp_path / "mixed"))
    assert out.n_rows == 6 and out.n_failed == 2
    lines = open(out.results_path, encoding="utf-8").read().splitlines()
    for record in csv.DictReader(lines[5:], fieldnames=lines[0].split(",")):
        with np.errstate(all="ignore"):
            code = main(["run", cfg_path, "--set", "transport.beta0=1e300",
                         "--seed", record["seed"], "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_NUMERIC
        message = "velocity non-finite at t=0.9642857142857143"
        assert capsys.readouterr().err == (
            f"numerical abort: {message} (step=1, t=0.9642857142857143, term=velocity)\n")
        assert record["error"] == f"NumericalAbort: {message}"
        assert record["reconstruction_l2"] == ""

    clean = _INVERT_SWEEP_CFG.replace("0, 0.5, 1e300", "0, 0.5")
    out = run_sweep(_cfg(clean, overrides=["experiment.seed=3"]), out_dir=str(tmp_path / "clean"))
    assert out.n_failed == 0
    assert open(out.results_path, encoding="utf-8").read().splitlines() == lines[:5]


def test_flowedit_sweep_isolates_overflowing_rows(tmp_path, capsys):
    # The flowedit rows run as one batched edit; the 1e300 rows overflow and
    # fail alone, with the text `otflow run` aborts with on that cell.
    text = _SWEEP_CFG.replace("0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0",
                              "0, 0.5, 1e300").replace("replicates = 4", "replicates = 2")
    cfg_path = _write(tmp_path, "fsw.cfg", text)
    with np.errstate(all="ignore"):
        out = run_sweep(_cfg(text, overrides=["experiment.seed=3"]),
                        out_dir=str(tmp_path / "mixed"))
    assert out.n_rows == 6 and out.n_failed == 2
    lines = open(out.results_path, encoding="utf-8").read().splitlines()
    for record in csv.DictReader(lines[5:], fieldnames=lines[0].split(",")):
        with np.errstate(all="ignore"):
            code = main(["run", cfg_path, "--set", "transport.beta0=1e300",
                         "--seed", record["seed"], "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_NUMERIC
        message = "velocity non-finite at t=0.7857142857142857"
        assert capsys.readouterr().err == (
            f"numerical abort: {message} (step=6, t=0.7857142857142857, term=velocity)\n")
        assert record["error"] == f"NumericalAbort: {message}"
        assert record["reconstruction_l2"] == ""

    clean = text.replace("0, 0.5, 1e300", "0, 0.5")
    out = run_sweep(_cfg(clean, overrides=["experiment.seed=3"]), out_dir=str(tmp_path / "clean"))
    assert out.n_failed == 0
    assert open(out.results_path, encoding="utf-8").read().splitlines() == lines[:5]


def test_points_sweep_reports_finite_w2_of_huge_outputs(tmp_path):
    # Outputs near (1e200, 1e200) are finite, but their squared distances to
    # the 3-atom target overflow: each row reports the rescaled W2, quietly,
    # and no error.
    text = (_POINTS_CFG.replace("; 2.5, 0", "").replace("sample_source = a", "x0 = 1e200, 1e200")
            + "[sweep]\naxis = transport.beta0: 0, 0.5\n")
    out = run_sweep(_cfg(text), out_dir=str(tmp_path))
    assert out.n_rows == 2 and out.n_failed == 0
    for record in csv.DictReader(open(out.results_path, encoding="utf-8")):
        assert record["error"] == ""
        np.testing.assert_allclose(float(record["w2_to_target"]), np.sqrt(2.0) * 1e200,
                                   rtol=1e-15)


def test_flowedit_sweep_runs_one_editor_call_per_group(tmp_path, monkeypatch):
    # Two groups (editor.n_max 20 and 24) of 2 beta0 values x 4 replicates:
    # two batched editor calls of 8 rows, each row with its own beta0 and seed.
    text = _SWEEP_CFG.replace("axis = transport.beta0: 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, "
                              "0.8, 0.9, 1.0",
                              "axis = editor.n_max: 20, 24\naxis = transport.beta0: 0, 0.5")
    edit = runner.transport_enhanced_flowedit
    calls = []

    def counting_edit(edit_cfg, registry, codec, x0, beta0=None, seeds=None):
        calls.append((edit_cfg.n_max, x0.shape, tuple(beta0), tuple(seeds)))
        return edit(edit_cfg, registry, codec, x0, beta0, seeds)

    monkeypatch.setattr(runner, "transport_enhanced_flowedit", counting_edit)
    out = run_sweep(_cfg(text), out_dir=str(tmp_path))
    assert out.n_rows == 16 and out.n_failed == 0
    records = list(csv.DictReader(open(out.results_path, encoding="utf-8")))
    assert [call[:2] for call in calls] == [(20, (8, 2)), (24, (8, 2))]
    for (_, _, beta0, seeds), group in zip(calls, (records[:8], records[8:])):
        assert beta0 == tuple(float(r["transport.beta0"]) for r in group)
        assert seeds == tuple(int(r["seed"]) for r in group)


@pytest.mark.parametrize("text", [
    _SWEEP_CFG,
    _INVERT_SWEEP_CFG.replace("1e300", "0.25"),
    _GEN_CFG.replace("count = 64", "count = 16\nx_target = 1.0, 0.0")
    + "[sweep]\naxis = transport.beta0: 0, 0.5\nreplicates = 2\n",
], ids=["flowedit", "invert_edit", "generate"])
def test_sweep_rows_equal_run_reports(tmp_path, text):
    # run and sweep share one path per algorithm: each row's metric strings
    # equal the report of run_experiment on that cell and seed, exactly.
    cfg = _cfg(text, overrides=["experiment.seed=7"])
    out = run_sweep(cfg, out_dir=str(tmp_path))
    (axis, _), = cfg.sweep_axes
    records = list(csv.DictReader(open(out.results_path, encoding="utf-8")))
    assert len(records) == out.n_rows
    for record in records:
        run_experiment(derive_config(cfg, {axis: record[axis], "experiment.seed": record["seed"]}),
                       out_dir=str(tmp_path / "run"))
        report = open(tmp_path / "run" / f"{cfg.name}_report.txt", encoding="utf-8").read()
        result = report.split("[result]\n")[1].split("\n\n")[0]
        want = dict(line.partition(" = ")[::2] for line in result.splitlines())
        assert record["error"] == ""
        assert {key: record[key] for key in want} == want


def test_sweep_cell_with_rejected_eta_fails_alone(tmp_path):
    text = _INVERT_SWEEP_CFG.replace("axis = transport.beta0: 0, 0.5, 1e300",
                                     "axis = editor.eta: 0.5, 1.5")
    out = run_sweep(_cfg(text, overrides=["experiment.seed=3"]), out_dir=str(tmp_path))
    assert out.n_rows == 4 and out.n_failed == 2
    for record in csv.DictReader(open(out.results_path, encoding="utf-8")):
        if record["editor.eta"] == "1.5":
            assert record["error"] == "ConfigError: editor.eta: eta must be in [0, 1], got 1.5"
        else:
            assert record["error"] == "" and record["w2_to_target"] != ""


_BETA0_ERROR = "ConfigError: transport.beta0: beta0 must be finite and >= 0, got {}"


@pytest.mark.parametrize("axes, errors", [
    ("axis = transport.beta0: -1, nan, abc, 0.5, inf\naxis = editor.eta: 0.5, 2",
     [_BETA0_ERROR.format("-1.0")] * 2 + [_BETA0_ERROR.format("nan")] * 2
     + ["ConfigError: transport.beta0: cannot parse 'abc' as float "
        "(could not convert string to float: 'abc')"] * 2
     + ["", "ConfigError: editor.eta: eta must be in [0, 1], got 2.0"]
     + [_BETA0_ERROR.format("inf")] * 2),
    ("axis = transport.beta0: -1, 0.5\naxis = grid.n_steps: 0, 8",
     ["ConfigError: grid.n_steps: n_steps must be a positive integer, got 0",
      _BETA0_ERROR.format("-1.0"),
      "ConfigError: grid.n_steps: n_steps must be a positive integer, got 0", ""]),
], ids=["beta0-before-editor", "grid-before-beta0"])
def test_sweep_cell_errors_follow_derive_config_order(tmp_path, axes, errors):
    # Cells are derived once per group, yet a failing cell reports the error
    # derive_config gives it alone: a bad beta0 wins over an editor.* error
    # and loses to a grid.* error.  A good cell equals its single run.
    text = _INVERT_SWEEP_CFG.replace("axis = transport.beta0: 0, 0.5, 1e300", axes)
    cfg = _cfg(text.replace("replicates = 2", "replicates = 1"), overrides=["experiment.seed=3"])
    out = run_sweep(cfg, out_dir=str(tmp_path / "sweep"))
    records = list(csv.DictReader(open(out.results_path, encoding="utf-8")))
    assert [r["error"] for r in records] == errors
    assert out.n_failed == sum(1 for e in errors if e)
    metrics = ("reconstruction_l2", "displacement_l2", "transport_work", "w2_to_target")
    for record in records:
        overrides = {path: record[path] for path, _ in cfg.sweep_axes}
        if record["error"]:
            with pytest.raises(ConfigError) as err:
                derive_config(cfg, overrides)
            assert record["error"] == f"ConfigError: {err.value}"
            assert all(record[k] == "" for k in metrics)
        else:
            cell_cfg = derive_config(cfg, {**overrides, "experiment.seed": record["seed"]})
            art = run_experiment(cell_cfg, out_dir=str(tmp_path / "run"))
            assert all(record[k] == runner._fmt(art.metrics[k]) for k in metrics)


def test_sweep_cell_runs_alone_when_its_group_fails(tmp_path):
    # The generate group, derived at the base beta0 0.5 without a target,
    # fails; its beta0 = 0 cell derives alone and equals its single run.
    text = (_SWEEP_CFG.replace("phi = 1.0", "beta0 = 0.5\nphi = 1.0")
            .replace("n_max = 24", "n_max = 24\ncondition = b")
            .replace(_SWEEP_CFG.split("[sweep]\n")[1],
                     "axis = experiment.algorithm: flowedit, generate\n"
                     "axis = transport.beta0: 0, 0.5\nreplicates = 2\n"))
    cfg = _cfg(text, overrides=["experiment.seed=3"])
    out = run_sweep(cfg, out_dir=str(tmp_path / "sweep"))
    records = list(csv.DictReader(open(out.results_path, encoding="utf-8")))
    assert out.n_rows == 8 and out.n_failed == 2
    for record in records:
        overrides = {path: record[path] for path, _ in cfg.sweep_axes}
        if overrides == {"experiment.algorithm": "generate", "transport.beta0": "0.5"}:
            assert record["error"] == "ConfigError: transport.beta0: " + _GENERATE_NEEDS_TARGET
            continue
        art = run_experiment(derive_config(cfg, {**overrides, "experiment.seed": record["seed"]}),
                             out_dir=str(tmp_path / "run"))
        assert record["error"] == "" and record["w2_to_target"] != ""
        assert all(record[k] == runner._fmt(v) for k, v in art.metrics.items())


@pytest.mark.parametrize("text", [
    _INVERT_SWEEP_CFG.replace("0.5, 1e300", "0.25, 0.5")
    .replace("replicates = 2", "replicates = 4"),
    _GEN_CFG.replace("count = 64", "count = 8\nx_target = 1.0, 0.0")
    + "[sweep]\naxis = transport.beta0: 0, 0.25, 0.5\nreplicates = 4\n",
], ids=["invert_edit", "generate"])
def test_beta0_sweep_derives_its_config_once(tmp_path, monkeypatch, text):
    # 3 beta0 values x 4 replicates share one group: one derive_config call.
    calls = []
    derive = runner.derive_config

    def counting_derive(cfg, overrides):
        calls.append(overrides)
        return derive(cfg, overrides)

    monkeypatch.setattr(runner, "derive_config", counting_derive)
    out = run_sweep(_cfg(text), out_dir=str(tmp_path))
    assert out.n_rows == 12 and out.n_failed == 0
    assert calls == [{}]


def test_points_sample_source_and_w2_to_target():
    # x0 is the atom at rng.integers(n) of the (seed, 1) stream, and
    # w2_to_target of a point-set target is the Dirac-to-atoms W2.
    cfg = _cfg(_POINTS_CFG)
    pts_a, pts_b = cfg.registry.points("a"), cfg.registry.points("b")
    for seed in (0, 11):
        seeded = replace(cfg, seed=seed)
        result = runner._edit(seeded, runner._x0_rows(seeded, [seed])[0])
        metrics, = runner._group_metrics(seeded, result.output[None], (result.summary,), (None,))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
        assert np.array_equal(result.trajectory.states[0], pts_a[rng.integers(len(pts_a))])
        assert metrics["w2_to_target"] == w2_dirac_to_points(result.output, pts_b)


def _gaussian_source_cfg(d):
    # invert_edit with x0 drawn from a d-dimensional Gaussian of full cov.
    a = np.random.default_rng(d).standard_normal((d, d))
    cov = a @ a.T / d + 0.5 * np.eye(d)

    def vec(values):
        return ", ".join(repr(float(v)) for v in values)
    return (f"[experiment]\nalgorithm = invert_edit\nname = g{d}\n[dataset.a]\n"
            f"mean = {vec(np.linspace(-1.0, 1.0, d))}\ncov = {'; '.join(vec(r) for r in cov)}\n"
            "[inputs]\nsample_source = a\n[editor]\ncondition = a\n")


@pytest.mark.parametrize("text", [_INVERT_SWEEP_CFG, _gaussian_source_cfg(16), _POINTS_CFG],
                         ids=["gaussian-2", "gaussian-16", "points"])
def test_x0_rows_equal_per_row_draws(text):
    # A group's sources come in one pass, each row from its own
    # make_rng(seed, 1) stream: row i equals the one-row draw for seed i.
    cfg = _cfg(text)
    name = cfg.inputs["sample_source"]
    seeds = [derive_seed(5, i, 0) for i in range(40)]
    rows = runner._x0_rows(cfg, seeds)
    assert rows.shape == (40, cfg.registry.dim())
    for seed, row in zip(seeds, rows):
        rng = make_rng(seed, 1)
        if cfg.registry.kind(name) == "gaussian":
            want = cfg.registry.sample_gaussian(name, rng)
        else:
            pts = cfg.registry.points(name)
            want = pts[rng.integers(len(pts))]
        assert np.array_equal(row, want)


def test_group_with_a_failing_row_keeps_its_abort_alone(tmp_path):
    # One batched invert_edit group: the 1e300 row keeps its NumericalAbort,
    # and every other row's metric dict equals `otflow run` on its cell.
    cfg = _cfg(_INVERT_SWEEP_CFG)
    beta0s = [0.0, 0.5, 1e300, 0.25]
    seeds = [derive_seed(3, i, 0) for i in range(4)]
    with np.errstate(all="ignore"):
        rows = runner._run_rows(cfg, seeds, beta0s)
    assert isinstance(rows[2], NumericalAbort)
    assert str(rows[2]) == "velocity non-finite at t=0.9642857142857143"
    for seed, beta0, row in zip(seeds, beta0s, rows):
        if beta0 != 1e300:
            cell = derive_config(cfg, {"transport.beta0": repr(beta0), "experiment.seed": str(seed)})
            assert run_experiment(cell, out_dir=str(tmp_path)).metrics == row


def test_sweep_rows_with_huge_finite_states_report_finite_metrics(tmp_path):
    # beta0 up to 1e250 under clip_tau = 1e300 drives the states to about
    # 1e249: finite, but their squared norms overflow.  No row may report
    # inf without an error.
    text = _INVERT_SWEEP_CFG.replace("n_steps = 28", "n_steps = 16").replace(
        "clip_tau = 1.0", "clip_tau = 1e300\nwindow_hi = 0.07\norientation = remaining").replace(
        "axis = transport.beta0: 0, 0.5, 1e300\nreplicates = 2",
        "axis = transport.beta0: 0, 1e100, 1e170, 1e250")
    out = run_sweep(_cfg(text), out_dir=str(tmp_path))
    records = list(csv.DictReader(open(out.results_path, encoding="utf-8")))
    assert out.n_failed == 0 and len(records) == 4
    for record in records:
        values = [float(record[key]) for key in runner._METRIC_COLUMNS]
        assert record["error"] == "" and np.all(np.isfinite(values)), record
    assert float(records[3]["w2_to_target"]) > 1e248


@pytest.mark.parametrize("target, count", [
    ("mean = -1.5, 0.0\ncov = 0.16, 0; 0, 0.16", 64),
    ("points = -1, 0; 1, 0.5; 0, 2; 1, 1", 8),
], ids=["gaussian", "points"])
def test_generate_w2_on_a_finite_cloud_whose_squares_overflow(tmp_path, capsys, target, count):
    # codec.scale = 1e200 decodes the samples to about 1e200: finite, but
    # their squares overflow the moments and the assignment's costs.  The
    # run exits 0 with a W2 equal, to rounding, to the cloud's root mean
    # square norm, which the target's O(1) terms cannot move at that scale.
    text = ("[experiment]\nalgorithm = generate\nname = g\nseed = 3\n"
            f"[dataset.g]\n{target}\n[codec]\nscale = 1e200, 1e200\n"
            f"[editor]\ncondition = g\n[inputs]\ncount = {count}\n")
    cfg_path = _write(tmp_path, "g.cfg", text)
    assert main(["run", cfg_path, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    cloud = np.loadtxt(tmp_path / "out" / "g_samples.csv", delimiter=",")
    assert cloud.shape == (count, 2) and np.abs(cloud).max() > 1e199
    report = open(tmp_path / "out" / "g_report.txt").read()
    w2 = float(report.split("w2_to_target = ")[1].split("\n")[0])
    rms = np.sqrt(np.mean(np.sum((cloud / 1e200) ** 2, axis=1))) * 1e200
    assert abs(w2 - rms) <= 1e-12 * rms


def test_generate_aborts_on_a_cloud_that_decodes_non_finite(tmp_path, capsys):
    # codec.scale = 1e308 decodes finite latents past the largest double.
    # The run stops with a located abort in the decode term, not in the W2
    # metric's covariance check, and a sweep row records it while the row
    # at scale 1 keeps its metrics.
    text = ("[experiment]\nalgorithm = generate\nname = g\nseed = 3\n"
            "[dataset.g]\nmean = -1.5, 0.0\ncov = 0.16, 0; 0, 0.16\n"
            "[editor]\ncondition = g\n[inputs]\ncount = 64\n")
    cfg_path = _write(tmp_path, "g.cfg", text + "[codec]\nscale = 1e308, 1e308\n")
    assert main(["run", cfg_path, "--out-dir", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert capsys.readouterr().err == ("numerical abort: decoded samples are non-finite at "
                                       "t=0.0 (step=28, t=0.0, term=decode)\n")
    sweep_path = _write(tmp_path, "s.cfg", text + "[sweep]\naxis = codec.scale: 1, 1e308\n")
    assert main(["sweep", sweep_path, "--out-dir", str(tmp_path / "sweep")]) == EXIT_PARTIAL
    records = list(csv.DictReader(open(tmp_path / "sweep" / "g_results.csv", encoding="utf-8")))
    assert [r["error"] for r in records] == [
        "", "NumericalAbort: decoded samples are non-finite at t=0.0"]
    assert float(records[0]["w2_to_target"]) > 0.0


_DECODE_OVERFLOW_CFG = """\
[experiment]
algorithm = invert_edit
name = d
[dataset.a]
mean = 0, 0
cov = 1, 0; 0, 1
[dataset.b]
mean = 5, 5
cov = 1, 0; 0, 1
[inputs]
x0 = 1.5e308, 1.5e308
[codec]
scale = 1e308, 1e308
[editor]
eta = 0
condition = b
[transport]
beta0 = 0.2
"""


def test_edit_aborts_on_an_output_that_decodes_non_finite(tmp_path, capsys):
    # The source encodes to (1.5, 1.5) and the edit lands near the target's
    # mean, (5, 5), whose decoded output is past the largest double.  The run
    # stops with a located abort in the decode term and writes no file; each
    # sweep row, a batch of two, fails with the same abort.
    cfg_path = _write(tmp_path, "d.cfg", _DECODE_OVERFLOW_CFG)
    assert main(["run", cfg_path, "--out-dir", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert capsys.readouterr() == ("", "numerical abort: decoded output is non-finite at t=0.0 "
                                       "(step=28, t=0.0, term=decode)\n")
    assert os.listdir(tmp_path / "out") == []
    sweep_path = _write(tmp_path, "s.cfg", _DECODE_OVERFLOW_CFG
                        + "[sweep]\naxis = transport.beta0: 0, 0.2\n")
    assert main(["sweep", sweep_path, "--out-dir", str(tmp_path / "sweep")]) == EXIT_PARTIAL
    records = list(csv.DictReader(open(tmp_path / "sweep" / "d_results.csv", encoding="utf-8")))
    assert [r["error"] for r in records] == [
        "NumericalAbort: decoded output is non-finite at t=0.0"] * 2
    assert all(r[key] == "" for r in records for key in runner._METRIC_COLUMNS)


def test_generate_on_points_w2_against_replicated_atoms(tmp_path):
    text = ("[experiment]\nalgorithm = generate\nname = g\n"
            "[dataset.p]\npoints = -1, 0; 1, 0.5; 0, 2\n"
            "[editor]\ncondition = p\n[inputs]\ncount = 12\n")
    art = run_experiment(_cfg(text), out_dir=str(tmp_path / "even"))
    cloud = np.loadtxt(tmp_path / "even" / "g_samples.csv", delimiter=",")
    atoms = np.repeat(_cfg(text).registry.points("p"), 4, axis=0)
    assert art.metrics["w2_to_target"] == w2_empirical_exact(cloud, atoms)[0]
    # 10 samples do not split evenly over 3 atoms: no exact W2, an empty value.
    art = run_experiment(_cfg(text.replace("count = 12", "count = 10")),
                         out_dir=str(tmp_path / "odd"))
    assert art.metrics["w2_to_target"] is None
    assert "w2_to_target = \n" in open(tmp_path / "odd" / "g_report.txt").read()


def test_run_sweep_generate_cells(tmp_path):
    text = (_GEN_CFG.replace("count = 64", "count = 16\nx_target = 1.0, 0.0")
            + "[sweep]\naxis = transport.beta0: 0, 0.5\nreplicates = 2\n")
    out = run_sweep(_cfg(text), out_dir=str(tmp_path))
    assert out.n_rows == 4 and out.n_failed == 0
    records = list(csv.DictReader(open(out.results_path)))
    assert [r["transport.beta0"] for r in records] == ["0", "0", "0.5", "0.5"]
    assert all(np.isfinite(float(r["w2_to_target"])) and r["error"] == "" for r in records)


def test_sweep_rejects_algorithm_outside_runner_table(tmp_path, capsys):
    text = _VERIFY_PASS_CFG + "[sweep]\naxis = transport.beta0: 0, 0.1\nreplicates = 2\n"
    cfg_path = _write(tmp_path, "vs.cfg", text)
    assert main(["sweep", cfg_path, "--out-dir", str(tmp_path)]) == EXIT_PARTIAL
    capsys.readouterr()
    records = list(csv.DictReader(open(tmp_path / "vp_results.csv")))
    assert len(records) == 4
    assert all(r["error"].startswith("ConfigError: sweeps do not support algorithm 'verify'")
               and r["w2_to_target"] == "" for r in records)


def test_public_runners_read_the_seed_from_the_config():
    import inspect

    for fn, params in ((run_experiment, ["cfg", "out_dir"]), (run_sweep, ["cfg", "out_dir"]),
                       (gen_data, ["cfg", "out_dir"]), (run_verify, ["cfg"])):
        assert list(inspect.signature(fn).parameters) == params


def test_run_verify_null_condition_draws_target_from_a_random_dataset(monkeypatch):
    # Under verify.condition = null, z_target is a draw from the dataset at
    # names[rng.integers(2)] of the (seed, 2) stream.
    text = (_VERIFY_PASS_CFG.replace("condition = data", "condition = null")
            .replace("[dataset.data]", "[dataset.other]\nmean = -2.0, 1.0\n"
                     "cov = 0.3, 0; 0, 0.3\n[dataset.data]")
            + "kind = convergence\nn_runs = 8\n")
    targets = []
    real_setup = runner.VerifySetup

    def recording_setup(**kw):
        targets.append(kw["z_target"])
        return real_setup(**kw)

    monkeypatch.setattr(runner, "VerifySetup", recording_setup)
    drawn = set()
    for seed in (0, 4):  # these seeds pick different datasets
        cfg = _cfg(text, overrides=[f"experiment.seed={seed}"])
        run_verify(cfg)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 2])))
        name = cfg.registry.names()[rng.integers(2)]
        mean, cov = cfg.registry.gaussian(name)
        assert np.array_equal(targets[-1], rng.multivariate_normal(mean, cov))
        drawn.add(name)
    assert drawn == {"data", "other"}


def test_null_condition_reports_empty_w2_to_target(tmp_path):
    for name, text in (("edit", _EDIT_CFG), ("gen", _GEN_CFG)):
        art = run_experiment(_cfg(text, overrides=["editor.condition=null"]),
                             out_dir=str(tmp_path))
        assert art.metrics["w2_to_target"] is None
        assert "w2_to_target = \n" in open(tmp_path / f"{name}_report.txt").read()


def test_sweep_row_with_unparsable_value_fails_alone(tmp_path):
    text = _INVERT_SWEEP_CFG.replace("0, 0.5, 1e300", "0, abc")
    out = run_sweep(_cfg(text), out_dir=str(tmp_path))
    assert out.n_rows == 4 and out.n_failed == 2
    for record in csv.DictReader(open(out.results_path, encoding="utf-8")):
        if record["transport.beta0"] == "abc":
            assert record["error"] == ("ConfigError: transport.beta0: cannot parse 'abc' as "
                                       "float (could not convert string to float: 'abc')")
        else:
            assert record["error"] == "" and record["w2_to_target"] != ""


def test_run_sweep_without_axes_rejected(tmp_path):
    with pytest.raises(ConfigError, match="axis"):
        run_sweep(_cfg(_EDIT_CFG), out_dir=str(tmp_path))


def test_gen_data_files(tmp_path):
    text = _GEN_CFG + "[dataset.p]\npoints = 1,2; 3,4\n"
    files = gen_data(_cfg(text), out_dir=str(tmp_path))
    names = sorted(os.path.basename(p) for p in files)
    assert names == ["a.csv", "p.csv"]
    assert np.array_equal(np.loadtxt(tmp_path / "p.csv", delimiter=","),
                          np.array([[1.0, 2.0], [3.0, 4.0]]))
    sampled = np.loadtxt(tmp_path / "a.csv", delimiter=",")
    assert sampled.shape == (64, 2)
    again = gen_data(_cfg(text), out_dir=str(tmp_path / "again"))
    assert open(files[0], "rb").read() == open(again[0], "rb").read()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_run_ok(tmp_path, capsys):
    cfg_path = _write(tmp_path, "edit.cfg", _EDIT_CFG)
    code = main(["run", cfg_path, "--out-dir", str(tmp_path / "out"), "--seed", "5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "wrote" in out and "reconstruction_l2" in out
    report = open(tmp_path / "out" / "edit_report.txt").read()
    assert "seed = 5" in report


def test_cli_config_error_exit(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG
    bad = _write(tmp_path, "bad.cfg", "[experiment]\nalgorithm = nope\n")
    assert main(["run", bad]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_seed_out_of_range_is_a_config_error(tmp_path, capsys):
    # --seed and experiment.seed share RngSeed's range, 0 <= seed < 2**64.
    cfg_path = _write(tmp_path, "edit.cfg", _EDIT_CFG)
    big_path = _write(tmp_path, "big.cfg", _EDIT_CFG.replace("name = edit\n",
                                                            f"name = edit\nseed = {2 ** 64}\n"))
    cases = [(["--seed", "-1"], cfg_path, "", -1),
             (["--seed", str(2 ** 64)], cfg_path, "", 2 ** 64),
             ([], big_path, "line 4: ", 2 ** 64)]
    for flags, path, line, seed in cases:
        assert main(["run", path, *flags, "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {line}experiment.seed: seed must be a nonnegative integer "
            f"below 2**64, got {seed}\n")
    assert not os.path.exists(tmp_path / "out")


def test_cli_numerical_abort_exit(tmp_path, capsys):
    text = ("[experiment]\nalgorithm = generate\nname = boom\n"
            "[dataset.p]\npoints = 1e200, 0; -1e200, 0\n"
            "[editor]\ncondition = p\n[inputs]\ncount = 4\n")
    cfg_path = _write(tmp_path, "boom.cfg", text)
    with np.errstate(all="ignore"):
        code = main(["run", cfg_path, "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_NUMERIC
    assert "numerical abort" in capsys.readouterr().err


def test_cli_sweep_exits(tmp_path, capsys):
    cfg_path = _write(tmp_path, "sw.cfg", _SWEEP_CFG)
    assert main(["sweep", cfg_path, "--out-dir", str(tmp_path / "ok")]) == EXIT_OK
    partial = _SWEEP_CFG.replace(
        "axis = transport.beta0: 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0",
        "axis = transport.beta0: 0, -1")
    bad_path = _write(tmp_path, "bad.cfg", partial)
    assert main(["sweep", bad_path, "--out-dir", str(tmp_path / "bad")]) == EXIT_PARTIAL
    capsys.readouterr()


def test_cli_sweep_rejects_axis_as_set_key(tmp_path, capsys):
    cfg_path = _write(tmp_path, "sw.cfg", _SWEEP_CFG)
    assert main(["sweep", cfg_path, "--set", "sweep.axis=scales.w: 1, 2",
                 "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --set: unknown key 'sweep.axis'\n"
    assert not os.path.exists(tmp_path / "out")


def test_cli_sweep_workers_env(tmp_path, capsys, monkeypatch):
    cfg_path = _write(tmp_path, "sw.cfg", _SWEEP_CFG)
    monkeypatch.setenv("OTFLOW_WORKERS", "3")
    assert main(["sweep", cfg_path, "--out-dir", str(tmp_path / "env")]) == EXIT_OK
    monkeypatch.delenv("OTFLOW_WORKERS")
    assert main(["sweep", cfg_path, "--out-dir", str(tmp_path / "one")]) == EXIT_OK
    capsys.readouterr()
    assert (open(tmp_path / "env" / "sw_results.csv", "rb").read()
            == open(tmp_path / "one" / "sw_results.csv", "rb").read())


def test_cli_sweep_runs_cells_in_calling_thread(tmp_path, capsys, monkeypatch):
    # --workers and OTFLOW_WORKERS are ignored; a malformed value must not crash
    cfg_path = _write(tmp_path, "sw.cfg", _SWEEP_CFG)
    calls = []
    run_rows = runner._run_rows

    def recording_rows(cfg, seeds, beta0s):
        calls.append((threading.get_ident(), tuple(seeds)))
        return run_rows(cfg, seeds, beta0s)

    monkeypatch.setattr(runner, "_run_rows", recording_rows)
    monkeypatch.setenv("OTFLOW_WORKERS", "two")
    for flags in ([], ["--workers", "4"]):
        assert main(["sweep", cfg_path, *flags, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    assert {thread for thread, _ in calls} == {threading.get_ident()}
    row_seeds = [derive_seed(0, cell, rep) for cell in range(11) for rep in range(4)]
    assert [seed for _, seeds in calls for seed in seeds] == 2 * row_seeds


def test_cli_verify_exit_codes(tmp_path, capsys):
    ok_path = _write(tmp_path, "vp.cfg", _VERIFY_PASS_CFG)
    assert main(["verify", ok_path, "--out-dir", str(tmp_path / "vp")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "discretization: pass" in out
    fail_path = _write(tmp_path, "vf.cfg", _VERIFY_FAIL_CFG)
    assert main(["verify", fail_path, "--out-dir", str(tmp_path / "vf")]) == EXIT_VERIFY
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_rejects_run_values_at_load(tmp_path, capsys):
    path = _write(tmp_path, "vn.cfg", _VERIFY_PASS_CFG + "n_runs = 0\n")
    assert main(["verify", path, "--out-dir", str(tmp_path / "vn")]) == EXIT_CONFIG
    line = _VERIFY_PASS_CFG.count("\n") + 1
    assert capsys.readouterr().err == (
        f"config error: line {line}: verify.n_runs: n_runs must be a positive integer, got 0\n")
    ok_path = _write(tmp_path, "vp.cfg", _VERIFY_PASS_CFG)
    assert main(["verify", ok_path, "--set", "verify.phi=0",
                 "--out-dir", str(tmp_path / "vn")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: verify.phi: phi must lie in (0, 1], got 0.0\n"
    assert not os.path.exists(tmp_path / "vn")


_CODEC_SCALE = "codec.scale: codec scale entries must be nonzero with a finite reciprocal"


@pytest.mark.parametrize("command, text, extra, message", [
    ("verify", _VERIFY_PASS_CFG, "phi = 5e-324\n",
     "verify.phi: phi = 5e-324 gives a schedule integral of 0"),
    ("verify", _VERIFY_PASS_CFG, "[grid]\nt_start = 5e-324\n",
     "grid.t_start: t_start 5e-324 and t_end 0.0 give a zero or non-finite step over 28 steps"),
    ("run", _GEN_CFG, "[grid]\nt_start = 5e-324\n",
     "grid.t_start: t_start 5e-324 and t_end 0.0 give a zero or non-finite step over 28 steps"),
    ("run", _EDIT_CFG, "[codec]\nscale = 1e-320, 1e-320\n", _CODEC_SCALE),
    ("sweep", _INVERT_SWEEP_CFG, "[codec]\nscale = 5e-324\n", _CODEC_SCALE),
    ("run", _POINTS_CFG, "[codec]\nscale = 1e-320, 1e-320\n", _CODEC_SCALE),
    ("sweep", _SWEEP_CFG, "[codec]\nscale = 5e-324\n", _CODEC_SCALE),
], ids=["phi-5e-324", "verify-t_start", "generate-t_start", "invert_edit-scale",
        "invert_sweep-scale", "flowedit-scale", "flowedit_sweep-scale"])
def test_cli_rejects_values_that_underflow_at_load(tmp_path, capsys, command, text, extra,
                                                   message):
    # A verify.phi whose schedule integral is 0 (edit control divides by it),
    # a grid whose steps underflow to 0 and a codec.scale whose reciprocal
    # overflows (encoding divides by it) fail at load on their own line.
    path = _write(tmp_path, "u.cfg", text + extra)
    assert main([command, path, "--out-dir", str(tmp_path / "u")]) == EXIT_CONFIG
    line = (text + extra).count("\n")
    assert capsys.readouterr().err == f"config error: line {line}: {message}\n"
    assert not os.path.exists(tmp_path / "u")


_HUGE = "1000000000000000000"


@pytest.mark.parametrize("command, text, key", [
    ("run", _GEN_CFG + f"[grid]\nn_steps = {_HUGE}\n", "grid.n_steps"),
    ("run", _GEN_CFG.replace("count = 64", f"count = {_HUGE}"), "inputs.count"),
    ("run", _POINTS_CFG.replace("target_condition = b", f"target_condition = b\nn_avg = {_HUGE}"),
     "editor.n_avg"),
    ("verify", _VERIFY_PASS_CFG + f"n_runs = {_HUGE}\n", "verify.n_runs"),
    ("verify", _VERIFY_PASS_CFG + f"step_counts = 10, 20, {_HUGE}\n", "verify.step_counts"),
], ids=["n_steps", "count", "n_avg", "n_runs", "step_counts"])
def test_cli_rejects_oversized_size_keys_at_load(tmp_path, capsys, command, text, key):
    # A size key whose value (a list key's largest) times the registry's
    # dimension exceeds the element cap fails at load on its own line, not
    # with a MemoryError or numpy's "array is too big" in the run.
    path = _write(tmp_path, "big.cfg", text)
    assert main([command, path, "--out-dir", str(tmp_path / "big")]) == EXIT_CONFIG
    line = next(i for i, row in enumerate(text.splitlines(), 1)
                if row.startswith(f"{key.split('.')[1]} = ") and row.endswith(_HUGE))
    assert capsys.readouterr().err == (f"config error: line {line}: {key}: {_HUGE} x dimension 2 "
                                       f"exceeds the cap of {_ELEMENT_CAP} elements\n")
    assert not os.path.exists(tmp_path / "big")


_ARMS_CFG = """\
[experiment]
algorithm = verify
name = arms
[dataset.g]
mean = 0.5, -0.5
cov = 1, 0; 0, 1
[verify]
condition = g
n_runs = 16
"""


@pytest.mark.parametrize("extra, message", [
    ("beta0_list = 0, 0.1, 1e160", "verify.beta0_list: beta0 = 1e+160 has a square of inf, "
                                   "not finite"),
    ("beta0_list = 0, 0.1, 1e300", "verify.beta0_list: beta0 = 1e+300 has a square of inf, "
                                   "not finite"),
    ("edit_beta0_list = 0, 5e-324, 0.1, 0.2",
     "verify.edit_beta0_list: beta0 = 5e-324 gives beta0^2 * schedule integral of 0 at "
     "phi = 0.3"),
    ("edit_beta0_list = 0, 1e-300, 0.1, 0.2",
     "verify.edit_beta0_list: beta0 = 1e-300 gives beta0^2 * schedule integral of 0 at "
     "phi = 0.3"),
], ids=["beta0-1e160", "beta0-1e300", "edit-5e-324", "edit-1e-300"])
def test_cli_rejects_verify_arms_the_fits_cannot_take_at_load(tmp_path, capfd, extra, message):
    # A convergence arm whose beta0^2 overflows (np.linalg.lstsq raised
    # LinAlgError on the fit and LAPACK printed DLASCL lines) and a positive
    # edit-control arm whose beta0^2 * schedule integral underflows to 0 (the
    # bound divides by it) fail at load on their own line, and nothing else
    # reaches stdout or stderr.
    text = _ARMS_CFG + extra + "\n"
    path = _write(tmp_path, "arms.cfg", text)
    assert main(["verify", path, "--out-dir", str(tmp_path / "arms")]) == EXIT_CONFIG
    out, err = capfd.readouterr()
    assert (out, err) == ("", f"config error: line {text.count(chr(10))}: {message}\n")
    assert not os.path.exists(tmp_path / "arms")


def test_cli_verify_fails_a_slope_fit_over_zero_displacements(tmp_path, capsys):
    # Steps of about 3.6e-302 leave every guided arm on the unguided one, so
    # every edit-control displacement is 0: the log-log fit has no data, and
    # the bound fails with slope nan instead of taking log(0).
    path = _write(tmp_path, "v.cfg", _VERIFY_PASS_CFG)
    assert main(["verify", path, "--set", "grid.t_start=1e-300",
                 "--out-dir", str(tmp_path / "v")]) == EXIT_VERIFY
    assert "edit_control: FAIL (slope nan)" in capsys.readouterr().out
    report = open(tmp_path / "v" / "vp_report.txt").read()
    section = report.split("[report.edit_control]\n")[1]
    assert section.startswith("passed = false\nslope = nan\n")


def test_cli_run_exits_5_on_a_failed_bound_as_verify_does(tmp_path, capsys):
    # run and verify are one command: on a verify config, run prints the
    # same report lines and files and exits 5 when a bound fails.
    path = _write(tmp_path, "vf.cfg", _VERIFY_FAIL_CFG)
    out_dir = str(tmp_path / "vf")
    assert main(["run", path, "--out-dir", out_dir]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert out.startswith("convergence: FAIL (slope 29.510)\n")
    assert main(["verify", path, "--out-dir", out_dir]) == EXIT_VERIFY
    assert capsys.readouterr().out == out


def _report_section(path, kind):
    # The key = value lines of one [report.<kind>] section of a report file.
    section = open(path, encoding="utf-8").read().split(f"[report.{kind}]\n")[1]
    return dict(line.split(" = ") for line in section.split("\n\n")[0].splitlines())


@pytest.mark.parametrize("sets, slope, local, global_", [
    (["transport.beta0=2", "verify.probe_t=1"], "2.453", (2.2, None), (0.8, 1.2)),
    (["verify.step_counts=2, 3, 4"], "2.016", (1.8, 2.2), (None, 0.8)),
    (["transport.beta0=2", "transport.clip_tau=10", "verify.step_counts=2, 3, 4"], "2.014",
     (1.8, 2.2), (1.2, None)),
], ids=["local-above", "global-below", "global-above"])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_fails_each_discretization_slope_band_alone(tmp_path, capsys, command, sets, slope,
                                                        local, global_):
    # Configs the CLI reaches: a probe step from t = 1 (local slope above
    # its band, [1.8, 2.2]), and step counts too coarse for the asymptotic
    # regime (global slope below or above its band, [0.8, 1.2]).  Each time
    # the other band holds, so that band alone fails the bound: exit 5.
    path = _write(tmp_path, "vd.cfg", _VERIFY_PASS_CFG + "kind = discretization\n")
    args = [command, path, "--out-dir", str(tmp_path / "vd")]
    for item in sets:
        args += ["--set", item]
    assert main(args) == EXIT_VERIFY
    assert capsys.readouterr().out.startswith(f"discretization: FAIL (slope {slope})\n")
    report = _report_section(tmp_path / "vd" / "vp_report.txt", "discretization")
    assert report["passed"] == "false"
    for key, (lo, hi) in (("local_slope", local), ("global_slope", global_)):
        value = float(report[key])
        assert (lo is None or lo <= value) and (hi is None or value <= hi), (key, value)


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_fails_a_negative_transport_curvature_alone(tmp_path, capsys, monkeypatch, command):
    # No config was found whose fitted c_transport is below 0 by more than
    # rounding, so the arms are stubbed: each arm's squared error to the
    # target is 1 - beta0^2, a fit with eps_rf equal to the beta0 = 0 error
    # (that condition holds) and c_transport = -1, which alone fails.
    from otflow import metrics

    def arms(setup, beta0, transport=None):
        unit = np.eye(len(setup.z_target))[0]
        return np.tile(setup.z_target + np.sqrt(1.0 - beta0 * beta0) * unit, (setup.n_runs, 1))

    monkeypatch.setattr(metrics, "_run_outputs", arms)
    path = _write(tmp_path, "vc.cfg", _VERIFY_PASS_CFG + "kind = convergence\n")
    assert main([command, path, "--out-dir", str(tmp_path / "vc")]) == EXIT_VERIFY
    assert capsys.readouterr().out.startswith("convergence: FAIL (slope -1.000)\n")
    report = _report_section(tmp_path / "vc" / "vp_report.txt", "convergence")
    assert report["passed"] == "false"
    eps_rf, baseline = float(report["eps_rf"]), float(report["baseline_mse"])
    assert abs(eps_rf - baseline) <= float(report["tolerance.eps_rf_rel"]) * baseline
    assert float(report["c_transport"]) < 0.0


@pytest.mark.parametrize("kind, term", [("convergence", "mse"), ("edit_control", "displacement")])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_aborts_on_a_verify_arm_that_overflows(tmp_path, capsys, monkeypatch, command, kind, term):
    # Finite stand-in arms: the target, moved by 1e155 along the first axis
    # from beta0 = 0.4 on, so that arm's squared error and displacement
    # overflow.  The run stops with a located abort at the arms' end.
    from otflow import metrics

    def arms(setup, beta0, transport=None):
        shift = 1e155 if beta0 >= 0.4 else beta0
        return np.tile(setup.z_target + shift * np.eye(len(setup.z_target))[0], (setup.n_runs, 1))

    monkeypatch.setattr(metrics, "_run_outputs", arms)
    path = _write(tmp_path, "vo.cfg", _VERIFY_PASS_CFG + f"kind = {kind}\n")
    assert main([command, path, "--out-dir", str(tmp_path / "vo")]) == EXIT_NUMERIC
    assert capsys.readouterr().err == (f"numerical abort: the beta0=0.4 arm's {term} is non-finite "
                                       f"at t=0.0 (step=28, t=0.0, term={term})\n")


def test_cli_verify_forces_algorithm(tmp_path, capsys):
    # a config whose algorithm is not verify still verifies under the
    # verify subcommand
    text = _VERIFY_PASS_CFG.replace("algorithm = verify", "algorithm = generate")
    text += "kind = convergence\n"
    cfg_path = _write(tmp_path, "v.cfg", text)
    assert main(["verify", cfg_path, "--out-dir", str(tmp_path / "v")]) == EXIT_OK
    capsys.readouterr()


def test_cli_gen_data_and_set_preset_flow(tmp_path, capsys):
    text = ("[dataset.a]\nmean = -1.5, 0.0\ncov = 0.16, 0; 0, 0.16\n"
            "[dataset.b]\nmean = 1.5, 0.5\ncov = 0.16, 0; 0, 0.16\n"
            "[inputs]\nx0 = -1.3, 0.1\ncount = 8\n"
            "[editor]\ncondition = b\nsource_condition = a\ntarget_condition = b\n")
    cfg_path = _write(tmp_path, "p.cfg", text)
    assert main(["gen-data", cfg_path, "--preset", "stroke",
                 "--out-dir", str(tmp_path / "d")]) == EXIT_OK
    assert sorted(os.listdir(tmp_path / "d")) == ["a.csv", "b.csv"]
    # preset supplies the algorithm; --set moves one knob
    code = main(["run", cfg_path, "--preset", "stroke", "--set", "transport.beta0=0.0",
                 "--out-dir", str(tmp_path / "r")])
    assert code == EXIT_OK
    report = open(tmp_path / "r" / "experiment_report.txt").read()
    assert "transport_work = 0.0" in report
    assert main(["run", cfg_path, "--preset", "stroke",
                 "--set", "experiment.preset=semantic"]) == EXIT_CONFIG
    capsys.readouterr()


def test_cli_plot_all_input_kinds(tmp_path, capsys):
    cfg_path = _write(tmp_path, "edit.cfg", _EDIT_CFG)
    main(["run", cfg_path, "--out-dir", str(tmp_path / "out")])
    traj_csv = str(tmp_path / "out" / "edit_trajectory.csv")
    svg1 = str(tmp_path / "t.svg")
    assert main(["plot", traj_csv, svg1]) == EXIT_OK
    assert open(svg1).read().startswith("<svg")

    gen_path = _write(tmp_path, "gen.cfg", _GEN_CFG)
    main(["run", gen_path, "--out-dir", str(tmp_path / "out")])
    svg2 = str(tmp_path / "c.svg")
    assert main(["plot", str(tmp_path / "out" / "gen_samples.csv"), svg2]) == EXIT_OK
    assert "circle" in open(svg2).read()

    sweep_path = _write(tmp_path, "sw.cfg", _SWEEP_CFG)
    main(["sweep", sweep_path, "--out-dir", str(tmp_path / "out")])
    svg3 = str(tmp_path / "m.svg")
    assert main(["plot", str(tmp_path / "out" / "sw_results.csv"), svg3,
                 "--x", "transport.beta0", "--y", "w2_to_target"]) == EXIT_OK
    assert open(svg3).read().startswith("<svg")
    capsys.readouterr()


@pytest.mark.parametrize("text, command, stem", [
    (_EDIT_CFG, "run", "edit_trajectory"),
    (_GEN_CFG, "run", "gen_samples"),
    (_INVERT_SWEEP_CFG.replace("1e300", "0.25"), "sweep", "isw_results"),
], ids=["trajectory", "samples", "results"])
def test_runner_svg_equals_cli_plot_of_its_csv(tmp_path, capsys, text, command, stem):
    cfg_path = _write(tmp_path, "p.cfg", text + "[experiment]\nplot = true\n")
    out = tmp_path / "out"
    assert main([command, cfg_path, "--out-dir", str(out)]) == EXIT_OK
    assert main(["plot", str(out / f"{stem}.csv"), str(tmp_path / "cli.svg")]) == EXIT_OK
    capsys.readouterr()
    assert (out / f"{stem}.svg").read_bytes() == (tmp_path / "cli.svg").read_bytes()


def test_cli_plot_projection_errors(tmp_path, capsys):
    cloud = "\n".join("1.0,2.0,3.0" for _ in range(4)) + "\n"
    path = _write(tmp_path, "c3.csv", cloud)
    out = str(tmp_path / "o.svg")
    assert main(["plot", path, out]) == EXIT_CONFIG          # d = 3 needs --project
    assert main(["plot", path, out, "--project", "0,5"]) == EXIT_CONFIG
    assert main(["plot", path, out, "--project", "x,y"]) == EXIT_CONFIG
    assert main(["plot", path, out, "--project", "0,2"]) == EXIT_OK
    assert main(["plot", str(tmp_path / "nope.csv"), out]) == EXIT_CONFIG
    capsys.readouterr()


def test_invert_group_whose_editor_call_raises_fails_only_its_rows(tmp_path, monkeypatch):
    # Two batched groups, one per editor.eta; the eta = 0.5 call raises, so
    # its rows carry that text and the other group's rows are untouched.
    text = _INVERT_SWEEP_CFG.replace("axis = transport.beta0: 0, 0.5, 1e300",
                                     "axis = editor.eta: 0.25, 0.5\n"
                                     "axis = transport.beta0: 0, 0.5")
    clean = run_sweep(_cfg(text), out_dir=str(tmp_path / "clean"))
    edit = runner.transport_guided_inversion_edit
    calls = []

    def failing_edit(edit_cfg, *args):
        calls.append(edit_cfg.eta)
        if edit_cfg.eta == 0.5:
            raise RuntimeError("editor failed")
        return edit(edit_cfg, *args)

    monkeypatch.setattr(runner, "transport_guided_inversion_edit", failing_edit)
    out = run_sweep(_cfg(text), out_dir=str(tmp_path / "forced"))
    assert calls == [0.25, 0.5]
    assert out.n_rows == 8 and out.n_failed == 4
    forced = list(csv.DictReader(open(out.results_path, encoding="utf-8")))
    good = list(csv.DictReader(open(clean.results_path, encoding="utf-8")))
    for row, want in zip(forced, good):
        if row["editor.eta"] == "0.5":
            assert row["error"] == "RuntimeError: editor failed"
            assert all(row[k] == "" for k in ("reconstruction_l2", "w2_to_target"))
        else:
            assert row == want


def test_plotted_sweep_chart_skips_error_rows(tmp_path):
    text = _SWEEP_CFG.replace(
        "axis = transport.beta0: 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0",
        "axis = transport.beta0: 0, -1, 0.5").replace("replicates = 4", "replicates = 2")
    out = run_sweep(_cfg(text + "[experiment]\nplot = true\n"), out_dir=str(tmp_path))
    assert out.n_failed == 2
    rows = list(csv.DictReader(open(out.results_path, encoding="utf-8")))
    points = [(float(r["transport.beta0"]), float(r["w2_to_target"]))
              for r in rows if not r["error"]]
    assert len(points) == 4
    assert (tmp_path / "sw_results.svg").read_text(encoding="utf-8") == render_metric_chart(
        points, "transport.beta0", "w2_to_target")
    # A chart of error rows alone has no point, so no SVG is written.
    failing = text.replace("0, -1, 0.5", "-1, -2")
    out = run_sweep(_cfg(failing + "[experiment]\nplot = true\n"), out_dir=str(tmp_path / "none"))
    assert out.n_failed == 4
    assert os.listdir(tmp_path / "none") == ["sw_results.csv"]


@pytest.mark.parametrize("command", ["run", "verify", "gen-data"])
def test_cli_workers_is_a_sweep_flag(tmp_path, capsys, command):
    cfg_path = _write(tmp_path, "edit.cfg", _EDIT_CFG)
    with pytest.raises(SystemExit) as err:
        main([command, cfg_path, "--workers", "2", "--out-dir", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("text, message", [
    ("\n1,2\n", "first line is blank"),
    ("1,2\n3\n", "point rows must each hold 2 numbers, as the first does"),
    ("t,z_0,z_1\n0,1,2\n1,3\n", "trajectory row 3 lacks a number in z_0 or z_1"),
], ids=["blank-first-line", "ragged-points", "short-trajectory-row"])
def test_cli_plot_malformed_csv_is_a_config_error(tmp_path, capsys, text, message):
    path = _write(tmp_path, "in.csv", text)
    out = tmp_path / "o.svg"
    assert main(["plot", path, str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {path}: {message}\n"
    assert not out.exists()


_RESULTS_WITH_GAPS = ("x,w2_to_target,error\n"
                      "1,2.5,\n2,,\n3,4.0,ValueError: boom\n4,1.5,\n")


@pytest.mark.parametrize("text, flags, code, svg", [
    ("", [], EXIT_OK, render_trajectories([])),
    (_RESULTS_WITH_GAPS, [], EXIT_OK,
     render_metric_chart([(1.0, 2.5), (4.0, 1.5)], "x", "w2_to_target")),
    (_RESULTS_WITH_GAPS, ["--y", "nope"], EXIT_CONFIG, None),
], ids=["empty", "gaps", "missing-column"])
def test_cli_plot_edge_inputs(tmp_path, capsys, text, flags, code, svg):
    # An empty file gives empty axes; a results chart skips error rows and
    # blank values; a missing column names itself and the file.
    path = _write(tmp_path, "in.csv", text)
    out = tmp_path / "o.svg"
    assert main(["plot", path, str(out), *flags]) == code
    captured = capsys.readouterr()
    if svg is None:
        assert captured.err == f"config error: column 'nope' not in {path} header\n"
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == svg


# ROADMAP item 13's edge table: a 2-D registry of a 4-point set and a
# Gaussian, with every algorithm's keys set at tiny sizes.
_EDGE_CFG = """\
[experiment]
name = edge
algorithm = invert_edit
[grid]
n_steps = 6
[dataset.a]
points = -2, 0; -1.5, 0.5; -1, -0.5; -1.5, -0.5
[dataset.b]
mean = 1.5, 0.5
cov = 0.25, 0; 0, 0.25
[inputs]
x0 = -1.5, 0.2
x_target = 1.0, 0.5
count = 8
[editor]
condition = b
source_condition = a
target_condition = b
[transport]
beta0 = 0.2
[verify]
condition = b
n_runs = 16
"""
_EDGE_VALUES = ("0", "-1", "1e308", "-1e308", "nan", "inf", "5e-324", "1e300", "1e-300")


def _edge_cases():
    # (key, value text) for each numeric _KEYS entry and dataset.b.mean, at
    # each edge value, and 1e18 for the int keys: a vector gets the value in
    # both entries, a list key its default with the last entry replaced.
    from otflow.config import _KEYS

    keys = [(path, kind, default) for path, (kind, default) in _KEYS.items()
            if kind in ("int", "float", "vector", "floats", "ints")]
    for path, kind, default in keys + [("dataset.b.mean", "vector", None)]:
        for value in _EDGE_VALUES + (("1e18",) if kind in ("int", "ints") else ()):
            if kind in ("floats", "ints"):
                yield path, ", ".join(default.split(", ")[:-1] + [value])
            else:
                yield path, f"{value}, {value}" if kind == "vector" else value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algorithm", ["invert_edit", "flowedit", "generate", "verify"])
def test_every_edge_value_exits_with_a_documented_code(algorithm, tmp_path, capsys):
    # Every case returns one of the CLI's exit codes and none raises.
    # Warnings are ignored here: as errors, some cases still stop at a
    # warning first (ROADMAP item 13).
    path = tmp_path / "edge.cfg"
    path.write_text(_EDGE_CFG)
    cases = list(_edge_cases())
    assert len(cases) == 297
    codes = (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_PARTIAL, EXIT_VERIFY)
    wrong = []
    for key, value in cases:
        argv = ["run", str(path), "--out-dir", str(tmp_path / "out"),
                "--set", f"experiment.algorithm={algorithm}", "--set", f"{key}={value}"]
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - a raise is what the table reports
            code = repr(exc)
        if code not in codes:
            wrong.append((key, value, code))
    capsys.readouterr()
    assert wrong == []


def test_edge_base_config_keeps_the_200_step_reference(monkeypatch):
    # On the edge table's base config the clip switches while the guided
    # state falls below clip_tau, a kink transport.kinks cannot list, so the
    # base walk's stated error is too large a share of the errors it
    # measures, already at its pause past the last probe step's end, and
    # the check walks 200 RK4 steps after 80 + 4 * 28 + 1 calls.  Its
    # measured values and slopes are then those of a 200-step reference
    # built as separate passes (reference_passes), bit for bit, and
    # reference_error is the largest estimate over the states the check
    # reads (probe_t, each probe step's end and t = 0), as at 50 steps.
    from otflow import metrics
    from otflow.transport import kinks, make_enhanced

    cfg = load_config_text(_EDGE_CFG, overrides=["experiment.algorithm=verify",
                                                 "verify.kind=discretization"])
    args, calls = [], []
    real = runner.verify_discretization_bound

    def spy(field, *rest, **kw):
        args.append((field, *rest, kw))
        return real(lambda z, t: calls.append(t) or field(z, t), *rest, **kw)

    monkeypatch.setattr(runner, "verify_discretization_bound", spy)
    [report] = run_verify(cfg)
    [(field, transport, z_init, z_target, counts, kw)] = args
    counts, probe_t = sorted(counts), kw["probe_t"]
    assert report.fitted_constants["reference_steps"] == metrics._REF_STEPS == 200
    assert len(calls) == 80 + 4 * 28 + 1 + 4 * 202 + 1
    measured = two_pass_discretization(field, transport, z_init, z_target, counts, probe_t, 200)
    assert report.measured == tuple(measured)
    for series in ("local", "global"):
        dts, errs = zip(*[(dt, e) for s, dt, e in measured if s == series])
        assert report.fitted_constants[f"{series}_slope"] == metrics._fit_loglog_slope(dts, errs)
    # The half pass rides in the full pass's calls, at its stage times, so
    # its end state is the half-count split pass's only to rounding (1.9e-15
    # apart here).
    enhanced = make_enhanced(field, z_target, transport)
    ends = [probe_t - 1.0 / n for n in counts]
    times = [1.0, *kinks(transport, 1.0, 0.0, probe_t, *ends), 0.0]
    half = metrics._segment_steps(times, 100)
    pairs = list(metrics._paired_reference(enhanced, z_init, times, half))
    end, end_half = pairs[-1]
    want = split_reference(enhanced, z_init, times, half)[-1]
    assert metrics.l2_distance(end_half, want) <= 1e-12 * np.linalg.norm(want)
    estimates = [metrics.l2_distance(*pairs[times.index(t)]) / 15.0 for t in [probe_t, *ends, 0.0]]
    assert report.fitted_constants["reference_error"] == max(estimates)
    assert max(estimates) >= metrics.l2_distance(end, end_half) / 15.0
