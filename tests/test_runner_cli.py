"""Experiment runner artifacts and the command-line surface.

Determinism contract under test: identical configs must produce byte-identical
files, sweeps must not depend on the --workers flag, and every exit code in
the CLI contract must be reachable.
"""

import csv
import io
import os
import threading

import numpy as np
import pytest

from otflow import (ConfigError, derive_config, load_config_text, runner, w2_dirac_to_points,
                    w2_empirical_exact)
from otflow.cli import (EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_PARTIAL,
                        EXIT_VERIFY, main)
from otflow.runner import (atomic_write_text, derive_seed, gen_data, points_csv,
                           run_experiment, run_sweep, run_verify, trajectory_csv)

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
                            condition_target=cfg.editor["condition"], scales=cfg.scales),
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
    cfg = _cfg(_EDIT_CFG)
    art = run_experiment(cfg, out_dir=str(tmp_path), seed=3)
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
    a1 = run_experiment(cfg, out_dir=str(tmp_path / "r1"), seed=0)
    a2 = run_experiment(cfg, out_dir=str(tmp_path / "r2"), seed=0)
    for p1, p2 in zip(sorted(a1.files), sorted(a2.files)):
        assert open(p1, "rb").read() == open(p2, "rb").read()


def test_run_experiment_generate(tmp_path):
    cfg = _cfg(_GEN_CFG)
    art = run_experiment(cfg, out_dir=str(tmp_path), seed=0)
    cloud = np.loadtxt(os.path.join(tmp_path, "gen_samples.csv"), delimiter=",")
    assert cloud.shape == (64, 2)
    # samples concentrate near the dataset mean
    assert np.linalg.norm(cloud.mean(axis=0) - np.array([-1.5, 0.0])) < 0.3
    assert art.metrics["w2_to_target"] is not None


def test_generate_with_transport_needs_target(tmp_path):
    cfg = _cfg(_GEN_CFG + "[transport]\nbeta0 = 0.5\n")
    with pytest.raises(ConfigError, match="x_target"):
        run_experiment(cfg, out_dir=str(tmp_path), seed=0)
    ok = _cfg(_GEN_CFG + "[transport]\nbeta0 = 0.5\n[inputs]\nx_target = -1.5, 0.0\n")
    art = run_experiment(ok, out_dir=str(tmp_path), seed=0)
    assert art.metrics["w2_to_target"] is not None


def test_run_verify_kind_dispatch():
    one = run_verify(_cfg(_VERIFY_PASS_CFG + "kind = convergence\n"), seed=0)
    assert [r.bound_kind for r in one] == ["convergence"]
    all_three = run_verify(_cfg(_VERIFY_PASS_CFG), seed=0)
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
    real_setup, real_integrate = runner.VerifySetup, metrics.integrate

    def recording_setup(**kw):
        setups.append(real_setup(**kw))
        return setups[-1]

    def counting_integrate(velocity, z0, grid):
        if np.ndim(z0) == 2:
            batches.append(z0.shape[0])
        return real_integrate(velocity, z0, grid)

    monkeypatch.setattr(runner, "VerifySetup", recording_setup)
    monkeypatch.setattr(metrics, "integrate", counting_integrate)
    _, conv, edit = run_verify(cfg, seed=0)
    assert batches == [16] * 5 and len(setups) == 1
    vsec = cfg.verify
    assert conv.measured == metrics.verify_convergence_bound(
        replace(setups[0]), vsec["beta0_list"]).measured
    assert edit.measured == metrics.verify_edit_control_bound(
        replace(setups[0]), vsec["edit_beta0_list"], vsec["phi"]).measured


def test_run_experiment_verify_artifacts(tmp_path):
    cfg = _cfg(_VERIFY_PASS_CFG)
    art = run_experiment(cfg, out_dir=str(tmp_path), seed=0)
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
    out = run_sweep(cfg, out_dir=str(tmp_path / "s1"), seed=0)
    assert out.n_rows == 44 and out.n_failed == 0
    rows = list(csv.reader(open(out.results_path)))
    assert rows[0] == ["transport.beta0", "replicate", "seed", "reconstruction_l2",
                       "displacement_l2", "transport_work", "w2_to_target", "error"]
    assert len(rows) == 45
    # product-then-replicate order
    assert [r[0] for r in rows[1:6]] == ["0", "0", "0", "0", "0.1"]
    assert [r[1] for r in rows[1:6]] == ["0", "1", "2", "3", "0"]

    again = run_sweep(cfg, out_dir=str(tmp_path / "s2"), seed=0)
    assert open(out.results_path, "rb").read() == open(again.results_path, "rb").read()


def test_run_sweep_isolates_failed_cells(tmp_path):
    text = _SWEEP_CFG.replace(
        "axis = transport.beta0: 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0",
        "axis = transport.beta0: 0, -1").replace("replicates = 4", "replicates = 2")
    out = run_sweep(_cfg(text), out_dir=str(tmp_path), seed=0)
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
        out = run_sweep(_cfg(_INVERT_SWEEP_CFG), out_dir=str(tmp_path / "mixed"), seed=3)
    assert out.n_rows == 6 and out.n_failed == 2
    lines = open(out.results_path, encoding="utf-8").read().splitlines()
    for record in csv.DictReader(lines[5:], fieldnames=lines[0].split(",")):
        with np.errstate(all="ignore"):
            code = main(["run", cfg_path, "--set", "transport.beta0=1e300",
                         "--seed", record["seed"], "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_NUMERIC
        message = capsys.readouterr().err.strip().removeprefix("numerical abort: ")
        assert message == "velocity non-finite at t=0.9642857142857143"
        assert record["error"] == f"NumericalAbort: {message}"
        assert record["reconstruction_l2"] == ""

    clean = _INVERT_SWEEP_CFG.replace("0, 0.5, 1e300", "0, 0.5")
    out = run_sweep(_cfg(clean), out_dir=str(tmp_path / "clean"), seed=3)
    assert out.n_failed == 0
    assert open(out.results_path, encoding="utf-8").read().splitlines() == lines[:5]


@pytest.mark.parametrize("text", [_SWEEP_CFG, _INVERT_SWEEP_CFG.replace("1e300", "0.25")],
                         ids=["flowedit", "invert_edit"])
def test_sweep_rows_equal_run_reports(tmp_path, text):
    # run and sweep share one editor path: each row's metric strings equal
    # the report of run_experiment on that cell and seed, exactly.
    cfg = _cfg(text)
    out = run_sweep(cfg, out_dir=str(tmp_path), seed=7)
    (axis, _), = cfg.sweep_axes
    records = list(csv.DictReader(open(out.results_path, encoding="utf-8")))
    assert len(records) == out.n_rows
    for record in records:
        run_experiment(derive_config(cfg, {axis: record[axis]}), out_dir=str(tmp_path / "run"),
                       seed=int(record["seed"]))
        report = open(tmp_path / "run" / f"{cfg.name}_report.txt", encoding="utf-8").read()
        result = report.split("[result]\n")[1].split("\n\n")[0]
        want = dict(line.partition(" = ")[::2] for line in result.splitlines())
        assert record["error"] == ""
        assert {key: record[key] for key in want} == want


def test_sweep_cell_with_rejected_eta_fails_alone(tmp_path):
    text = _INVERT_SWEEP_CFG.replace("axis = transport.beta0: 0, 0.5, 1e300",
                                     "axis = editor.eta: 0.5, 1.5")
    out = run_sweep(_cfg(text), out_dir=str(tmp_path), seed=3)
    assert out.n_rows == 4 and out.n_failed == 2
    for record in csv.DictReader(open(out.results_path, encoding="utf-8")):
        if record["editor.eta"] == "1.5":
            assert record["error"] == "ConfigError: editor.eta: eta must be in [0, 1], got 1.5"
        else:
            assert record["error"] == "" and record["w2_to_target"] != ""


def test_points_sample_source_and_w2_to_target():
    # x0 is the atom at rng.integers(n) of the (seed, 1) stream, and
    # w2_to_target of a point-set target is the Dirac-to-atoms W2.
    cfg = _cfg(_POINTS_CFG)
    pts_a, pts_b = cfg.registry.points("a"), cfg.registry.points("b")
    for seed in (0, 11):
        metrics, result = runner._RUNNERS["flowedit"](cfg, seed)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))
        assert np.array_equal(result.trajectory.states[0], pts_a[rng.integers(len(pts_a))])
        assert metrics["w2_to_target"] == w2_dirac_to_points(result.output, pts_b)


def test_generate_on_points_w2_against_replicated_atoms(tmp_path):
    text = ("[experiment]\nalgorithm = generate\nname = g\n"
            "[dataset.p]\npoints = -1, 0; 1, 0.5; 0, 2\n"
            "[editor]\ncondition = p\n[inputs]\ncount = 12\n")
    art = run_experiment(_cfg(text), out_dir=str(tmp_path / "even"), seed=0)
    cloud = np.loadtxt(tmp_path / "even" / "g_samples.csv", delimiter=",")
    atoms = np.repeat(_cfg(text).registry.points("p"), 4, axis=0)
    assert art.metrics["w2_to_target"] == w2_empirical_exact(cloud, atoms)[0]
    # 10 samples do not split evenly over 3 atoms: no exact W2, an empty value.
    art = run_experiment(_cfg(text.replace("count = 12", "count = 10")),
                         out_dir=str(tmp_path / "odd"), seed=0)
    assert art.metrics["w2_to_target"] is None
    assert "w2_to_target = \n" in open(tmp_path / "odd" / "g_report.txt").read()


def test_run_sweep_generate_cells(tmp_path):
    text = (_GEN_CFG.replace("count = 64", "count = 16\nx_target = 1.0, 0.0")
            + "[sweep]\naxis = transport.beta0: 0, 0.5\nreplicates = 2\n")
    out = run_sweep(_cfg(text), out_dir=str(tmp_path), seed=0)
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


def test_run_sweep_without_axes_rejected(tmp_path):
    with pytest.raises(ConfigError, match="axis"):
        run_sweep(_cfg(_EDIT_CFG), out_dir=str(tmp_path))


def test_gen_data_files(tmp_path):
    text = _GEN_CFG + "[dataset.p]\npoints = 1,2; 3,4\n"
    files = gen_data(_cfg(text), out_dir=str(tmp_path), seed=0)
    names = sorted(os.path.basename(p) for p in files)
    assert names == ["a.csv", "p.csv"]
    assert np.array_equal(np.loadtxt(tmp_path / "p.csv", delimiter=","),
                          np.array([[1.0, 2.0], [3.0, 4.0]]))
    sampled = np.loadtxt(tmp_path / "a.csv", delimiter=",")
    assert sampled.shape == (64, 2)
    again = gen_data(_cfg(text), out_dir=str(tmp_path / "again"), seed=0)
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
    threads = []
    cell = runner._sweep_cell

    def recording_cell(*args):
        threads.append(threading.get_ident())
        return cell(*args)

    monkeypatch.setattr(runner, "_sweep_cell", recording_cell)
    monkeypatch.setenv("OTFLOW_WORKERS", "two")
    for flags in ([], ["--workers", "4"]):
        assert main(["sweep", cfg_path, *flags, "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    assert len(threads) == 2 * 44 and set(threads) == {threading.get_ident()}


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
