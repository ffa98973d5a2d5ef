"""
Configs, sweeps, and plots from the command line
================================================

The CLI drives everything the library does from a line-oriented config file.
This script writes a config, runs a single edit, sweeps the transport
strength over a grid with replicates, and renders the sweep as an SVG chart.
All artifacts are byte-stable: same config and seed, same files.
"""

import pathlib
import tempfile

from otflow.cli import main

CFG = """\
[experiment]
algorithm = flowedit
name = demo
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
axis = transport.beta0: 0, 0.25, 0.5, 0.75, 1.0
replicates = 3
"""

with tempfile.TemporaryDirectory(prefix="otflow_demo_") as tmp:
    work = pathlib.Path(tmp)
    cfg = work / "demo.cfg"
    cfg.write_text(CFG)

    print(f"workspace: {work}\n")

    print("$ otflow run demo.cfg --seed 0")
    main(["run", str(cfg), "--out-dir", str(work / "run"), "--seed", "0"])

    # A sweep executes the cartesian product of every axis line, replicated with
    # per-cell derived seeds, and writes one CSV row per cell run.
    print("\n$ otflow sweep demo.cfg --seed 0")
    main(["sweep", str(cfg), "--out-dir", str(work / "sweep"), "--seed", "0"])

    results = work / "sweep" / "demo_results.csv"
    print("\nfirst rows of the sweep table:")
    for line in results.read_text().splitlines()[:5]:
        print("   ", line)

    # The plot command picks a renderer from the CSV header: trajectories,
    # point clouds, or metric-vs-parameter charts.
    svg = work / "sweep.svg"
    print(f"\n$ otflow plot {results.name} sweep.svg")
    main(["plot", str(results), str(svg)])
    print(f"chart written to {svg} ({svg.stat().st_size} bytes)")

    print("\nOverrides stack as preset < file < --set, for example:")
    print("  otflow run demo.cfg --set transport.beta0=0.4 --set scales.w_tar=7.0")
