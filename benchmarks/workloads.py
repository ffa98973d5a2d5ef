"""Benchmark workloads: inputs generated from a workload seed, and the CLI call.

Each workload writes a config file (plus CSV datasets where it uses point
clouds) into a work directory and names the `otflow` command line that runs
it.  The program only ever sees these generated files and `--seed`; the
workload seed itself never reaches it.

Why these three (see BENCHMARK.json for the one-line form):

invert_sweep     400 batch-1 inversion edits over a beta0 grid with two
                 threads.  Per-call overhead of the Gaussian/mixture kernels,
                 the transport term, Euler step and recorder, derive_config
                 per cell, thread scheduling and the CSV/SVG writers.  No
                 point-kernel calls.
flowedit_points  16 coupled edits on 1024-point clouds in d=16, one thread.
                 Dominated by the point kernel (n_avg draws one at a time);
                 derive_config re-reads both CSVs per cell.  Gaussian kernels
                 and thread scheduling are idle.
verify_bounds    the bound suite on 8-D Gaussians with n_runs=1024: a batch-1
                 RK4 reference plus ten 1024-row integrations, the large-batch
                 use of the field and core layers.  Editors, derive_config and
                 sweep scheduling are idle.
"""

import os
from dataclasses import dataclass

import numpy as np

NAMES = ("invert_sweep", "flowedit_points", "verify_bounds")


@dataclass(frozen=True)
class Workload:
    name: str
    config_path: str
    base_seed: int   # the --seed the program receives
    argv_head: list  # subcommand, config path and flags, without --out-dir
    unit_ops: str    # what one counted operation is
    ops_per_exec: int
    workers: int


def _rng(seed, name):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed), NAMES.index(name)])))


def _vec(values):
    return ", ".join(repr(float(v)) for v in values)


def _mat(rows):
    return "; ".join(_vec(r) for r in rows)


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _gaussian_section(name, mean, cov):
    return f"[dataset.{name}]\nmean = {_vec(mean)}\ncov = {_mat(cov)}\n"


def _invert_sweep(rng, work_dir, nproc):
    # Means jitter by 0.05 per seed so inputs depend on it; the shape (two
    # well separated 2-D Gaussians, variance 0.25) does not.
    mean_a = np.array([-1.5, 0.0]) + 0.05 * rng.standard_normal(2)
    mean_b = np.array([1.5, 0.5]) + 0.05 * rng.standard_normal(2)
    cov = 0.25 * np.eye(2)
    base_seed = int(rng.integers(0, 2 ** 31))
    beta0 = ", ".join(f"{i / 100:g}" for i in range(50))
    replicates = 8
    text = (
        f"[experiment]\nname = invert_sweep\nalgorithm = invert_edit\n"
        f"seed = {base_seed}\nplot = true\n"
        f"[grid]\nn_steps = 28\n"
        + _gaussian_section("a", mean_a, cov) + _gaussian_section("b", mean_b, cov)
        + "[inputs]\nsample_source = a\n"
        "[editor]\neta = 0.5\neta_stop = 0.25\ncondition = b\n"
        "[transport]\nclip_tau = 1.0\n"
        "[scales]\nw = 7.5\n"
        f"[sweep]\naxis = transport.beta0: {beta0}\nreplicates = {replicates}\n")
    path = os.path.join(work_dir, "invert_sweep.cfg")
    _write(path, text)
    workers = min(2, nproc)
    argv = ["sweep", path, "--workers", str(workers), "--seed", str(base_seed)]
    return Workload("invert_sweep", path, base_seed, argv, "sweep cell",
                    50 * replicates, workers)


def _flowedit_points(rng, work_dir, nproc):
    dim, n = 16, 1024
    clouds = {"a": -1.0 + 0.5 * rng.standard_normal((n, dim)),
              "b": 1.0 + 0.5 * rng.standard_normal((n, dim))}
    for name, pts in clouds.items():
        _write(os.path.join(work_dir, f"{name}.csv"),
               "".join(_vec(row).replace(" ", "") + "\n" for row in pts))
    base_seed = int(rng.integers(0, 2 ** 31))
    replicates = 4
    text = (
        f"[experiment]\nname = flowedit_points\nalgorithm = flowedit\n"
        f"seed = {base_seed}\n"
        "[dataset.a]\ncsv = a.csv\n[dataset.b]\ncsv = b.csv\n"
        "[inputs]\nsample_source = a\n"
        "[editor]\nsource_condition = a\ntarget_condition = b\nn_avg = 4\nn_max = 24\n"
        "[transport]\nphi = 1.0\norientation = remaining\nclip_tau = 1.0\n"
        "[scales]\nw_src = 1.5\nw_tar = 5.5\n"
        f"[sweep]\naxis = transport.beta0: 0, 0.3, 0.6, 0.9\nreplicates = {replicates}\n")
    path = os.path.join(work_dir, "flowedit_points.cfg")
    _write(path, text)
    argv = ["sweep", path, "--workers", "1", "--seed", str(base_seed)]
    return Workload("flowedit_points", path, base_seed, argv, "sweep cell",
                    4 * replicates, 1)


def _verify_bounds(rng, work_dir, nproc):
    dim = 8
    cov = np.full((dim, dim), 0.05) + 0.25 * np.eye(dim)
    mean_a = np.zeros(dim)
    mean_a[0] = -1.5
    mean_b = np.zeros(dim)
    mean_b[:2] = (1.5, 0.5)
    mean_a = mean_a + 0.05 * rng.standard_normal(dim)
    mean_b = mean_b + 0.05 * rng.standard_normal(dim)
    base_seed = int(rng.integers(0, 2 ** 31))
    text = (
        f"[experiment]\nname = verify_bounds\nalgorithm = verify\nseed = {base_seed}\n"
        + _gaussian_section("a", mean_a, cov) + _gaussian_section("b", mean_b, cov)
        + "[verify]\nkind = all\ncondition = b\nn_runs = 1024\n"
        "[transport]\nclip_tau = 1.0\n"
        "[scales]\nw = 2.0\n")
    path = os.path.join(work_dir, "verify_bounds.cfg")
    _write(path, text)
    argv = ["verify", path, "--seed", str(base_seed)]
    return Workload("verify_bounds", path, base_seed, argv, "bound report", 3, 1)


_GENERATORS = {"invert_sweep": _invert_sweep, "flowedit_points": _flowedit_points,
               "verify_bounds": _verify_bounds}


def build(name, seed, work_dir, nproc):
    """Write the inputs of workload `name` for `seed` into work_dir."""
    os.makedirs(work_dir, exist_ok=True)
    return _GENERATORS[name](_rng(seed, name), work_dir, nproc)
