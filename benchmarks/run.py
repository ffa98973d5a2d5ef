"""otflow benchmark: CLI workloads timed end to end, or traced layer by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of workloads.NAMES, or `all` to run each in turn.  The workload
inputs (config file, CSV datasets, the program's --seed) are generated from
N.  For S seconds the benchmark runs the workload's `otflow` command again
and again, each time in a fresh interpreter (benchmarks/child.py), one
process at a time, with BLAS pinned to one thread.  Then every execution's
artifacts are compared byte for byte with the first, and the first is put
through the correctness gate (benchmarks/check.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians over the
executions, each printed with its sample count.  --trace 1 alternates plain
and traced executions and reports the per-layer metrics of BENCHMARK.json;
trace.overhead compares the two kinds.  Counts come from one traced
execution, and the run says whether they repeated in every other one.

Timings are in reference seconds.  On a shared virtual machine (2 vCPUs) the
speed one process gets was seen to drift by 20% and more within minutes, so
each execution also times a fixed calibration loop (child.py) just before
and after the command, and its timings are scaled by CALIBRATION_REF_S over
that loop's time: they read as on a host where the loop takes 0.15 s.  A
change to otflow does not touch the loop, so it moves these figures as it
moves raw seconds.  Raw medians are printed beside them and kept in
result.json.

The last line of standard output is one JSON object: correct, attempted,
failed (operations: sweep cells or bound reports) and metrics.  The exit
code is 0 when the gate passed, 1 when it failed, 2 when the program or
BENCHMARK.json is missing.  Everything is written under .bench_out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MIN_EXECS = 3       # per execution kind, whatever --seconds says
CALIBRATION_REF_S = 0.15
TIME_UNITS = {"s": 1, "ms": 1, "us": 1, "cells/s": -1}  # power of the host factor
BUDGET_S = 170      # one workload, set-up and gate included, ends within 180 s
GATE_RESERVE_S = 20  # kept free for the correctness gate


def _nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("OTFLOW_WORKERS", None)
    return env


def _git_sha():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_identity():
    """(sha256 over src/ python files, their total line count)."""
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
            lines += data.count(b"\n")
    return digest.hexdigest(), lines


def _execute(workload, work_dir, index, traced, env, kill_at):
    """Run one execution in a fresh interpreter and return its record."""
    out_dir = os.path.join(work_dir, f"out-{index}")
    result_path = os.path.join(work_dir, f"exec-{index}.json")
    timeout = max(1.0, kill_at - time.monotonic())
    with open(os.path.join(work_dir, f"exec-{index}.log"), "w", encoding="utf-8") as log:
        started = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)), result_path,
               "1" if traced else "0", os.path.join(work_dir, "spans.tsv"), "--",
               *workload.argv_head, "--out-dir", out_dir]
        try:
            subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log,
                           timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            log.write(f"execution killed after {timeout:.0f} s\n")
        wall = time.monotonic() - started
    record = {"index": index, "traced": traced, "wall_s": wall, "out_dir": out_dir}
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            record.update(json.load(fh))
    return record


def _read_tree(path):
    files = {}
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                files[os.path.relpath(full, path)] = fh.read()
    return files


def _gate(workload, seed, records, work_dir, env, kill_at):
    """(attempted, failed, messages) over every execution."""
    messages = []
    good = [r for r in records if r.get("exit_code") == 0]
    for r in records:
        if r.get("exit_code") != 0:
            messages.append(f"execution {r['index']} exited {r.get('exit_code', 'without result')}"
                            f" (see exec-{r['index']}.log)")
    reference = None
    same = []
    if good:
        reference = good[0]
        ref_files = _read_tree(reference["out_dir"])
        for r in good:
            if r is reference or _read_tree(r["out_dir"]) == ref_files:
                same.append(r["index"])
            else:
                messages.append(f"execution {r['index']} artifacts differ from execution "
                                f"{reference['index']}")
    check_failed = workload.ops_per_exec
    if reference is not None:
        check_path = os.path.join(work_dir, "check.json")
        cmd = [sys.executable, os.path.join(HERE, "check.py"), workload.name,
               workload.config_path, str(workload.base_seed), str(seed), reference["out_dir"],
               check_path]
        with open(os.path.join(work_dir, "check.log"), "w", encoding="utf-8") as log:
            try:
                subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=log,
                               timeout=max(1.0, kill_at - time.monotonic()), check=False)
            except subprocess.TimeoutExpired:
                log.write("correctness check killed\n")
        if os.path.exists(check_path):
            with open(check_path, encoding="utf-8") as fh:
                check = json.load(fh)
            check_failed = len(check["failed"])
            messages += check["messages"]
        else:
            messages.append("correctness check did not finish (see check.log)")
    attempted = workload.ops_per_exec * len(records)
    failed = sum(check_failed if r["index"] in same else workload.ops_per_exec for r in records)
    return attempted, failed, messages


def _median(values):
    return statistics.median(values) if values else 0.0


def _host_factor(record):
    """Multiplier from this execution's raw seconds to reference seconds."""
    return CALIBRATION_REF_S / record["calibration_s"]


def _end_to_end(workload, plain):
    """Raw samples; per sample, the host factor applies to timings."""
    return {
        "setup_s": [r["setup_s"] for r in plain],
        "run_s": [r["run_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "cells_per_s": [workload.ops_per_exec / r["run_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }, [_host_factor(r) for r in plain]


def _per_layer(plain, traced):
    """(raw samples, host factors, whether every count repeated exactly)."""
    samples = {}
    counts = traced[0]["counts"]
    repeat = all(r["counts"] == counts for r in traced)
    for name, value in counts.items():
        samples[name] = [value]
    for name in traced[0]["times"]:
        samples[name] = [r["times"][name] for r in traced]
    factors = [_host_factor(r) for r in traced]
    for editor in ("invert_edit", "flowedit"):
        pooled = [ms * f for r, f in zip(traced, factors)
                  for ms in r["edit_ms"].get(f"editors.{editor}", [])]
        for q in (50, 90):
            samples[f"editors.{editor}.ms_p{q}"] = \
                [float(np.percentile(pooled, q))] if pooled else [0.0]
    traced_run = _median([r["run_s"] * f for r, f in zip(traced, factors)])
    plain_run = _median([r["run_s"] * _host_factor(r) for r in plain])
    samples["trace.overhead"] = [traced_run / plain_run - 1]
    return samples, factors, repeat


def run_workload(name, seed, seconds, trace, spec):
    """Run one workload; return (summary lines, result dict, provenance)."""
    begin = time.monotonic()
    kill_at = begin + BUDGET_S - GATE_RESERVE_S
    work_dir = os.path.join(ROOT, ".bench_out", f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    nproc = _nproc()
    workload = workloads.build(name, seed, os.path.join(work_dir, "inputs"), nproc)
    env = _child_env()
    # Compile otflow's bytecode and warm the file cache outside the timing.
    subprocess.run([sys.executable, "-c", "import otflow"], cwd=ROOT, env=env, check=True,
                   timeout=GATE_RESERVE_S)

    deadline = time.monotonic() + seconds
    kinds = (False, True) if trace else (False,)
    records = []
    while True:
        traced = kinds[len(records) % len(kinds)]
        records.append(_execute(workload, work_dir, len(records), traced, env, kill_at))
        done = {k: sum(1 for r in records if r["traced"] == k) for k in kinds}
        typical = _median([r["wall_s"] for r in records])
        now = time.monotonic()
        if now + 2 * typical > kill_at:
            break
        if min(done.values()) >= MIN_EXECS and now + typical > deadline:
            break

    attempted, failed, messages = _gate(workload, seed, records, work_dir, env,
                                        begin + BUDGET_S)
    for r in records[1:]:
        shutil.rmtree(r["out_dir"], ignore_errors=True)

    ok = [r for r in records if r.get("exit_code") == 0]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    repeat = None
    samples, factors = {}, []
    if plain and trace and traced:
        samples, factors, repeat = _per_layer(plain, traced)
    elif plain and not trace:
        samples, factors = _end_to_end(workload, plain)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    scaled = {}
    for m in listed:
        vals = samples.get(m["name"], [])
        power = TIME_UNITS.get(m["unit"], 0) if len(vals) == len(factors) else 0
        scaled[m["name"]] = [v * f ** power for v, f in zip(vals, factors)] if power else vals
    metrics = {m["name"]: {"value": _median(scaled[m["name"]]), "unit": m["unit"]}
               for m in listed}

    first = ok[0] if ok else {}
    src_sha, src_lines = _src_identity()
    provenance = dict(first.get("provenance", {}), nproc=nproc, git_sha=_git_sha(),
                      src_sha256=src_sha, src_lines=src_lines, workload=name,
                      workload_seed=seed, program_seed=workload.base_seed,
                      workers=workload.workers, seconds=seconds, trace=trace,
                      executions=len(records), plain=len(plain), traced=len(traced))

    lines = [f"== {name}  seed {seed}  trace {trace}  executions {len(records)} "
             f"(plain {len(plain)}, traced {len(traced)})"]
    for m in listed:
        vals = scaled[m["name"]]
        spread = f"  min {min(vals):.6g}  max {max(vals):.6g}" if len(vals) > 1 else ""
        raw = samples.get(m["name"], [])
        raw = f"  raw median {_median(raw):.6g}" if raw != vals else ""
        lines.append(f"  {m['name']:<36} {metrics[m['name']]['value']:>14.6g} {m['unit']:<8}"
                     f" n={len(vals)}{spread}{raw}")
    if factors:
        lines.append(f"  {'host factor':<36} {_median(factors):>14.6g}          "
                     f"n={len(factors)}  min {min(factors):.6g}  max {max(factors):.6g}"
                     f"  (reference seconds / raw seconds)")
    lines.append(f"  {'failed_frac':<36} {failed / attempted:>14.6g} ratio    "
                 f"{failed} of {attempted} ({workload.unit_ops}s)")
    if trace:
        lines.append(f"  counts repeat across traced executions: {repeat}; computed counts: "
                     "fields.point_kernel.pairs (rows x points), *.bytes (encoded text length)")
        unwrapped = first.get("unwrapped") or []
        if unwrapped:
            lines.append(f"  not traced (absent): {', '.join(unwrapped)}")
    lines += [f"  gate: {msg}" for msg in messages[:20]]
    result = {"correct": failed == 0 and bool(plain), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "provenance": provenance, "raw_samples": samples,
                   "host_factors": factors, "messages": messages, "records": records},
                  fh, indent=1)
    return lines, result, provenance


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(SRC, "otflow", "cli.py")) or not os.path.exists(spec_path):
        print(f"benchmark: no otflow sources under {SRC} or no {spec_path}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        lines, result, provenance = run_workload(name, args.seed, args.seconds, args.trace, spec)
        print("\n".join(lines))
        print("  provenance " + json.dumps(provenance, sort_keys=True), flush=True)
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
