"""One execution of a workload in a fresh interpreter.

    python3 benchmarks/child.py SPAWN_NS RESULT_JSON TRACE SPANS_TSV -- OTFLOW_ARGS...

SPAWN_NS is CLOCK_MONOTONIC in nanoseconds, read by the parent just before
it started this process, so set-up time runs from interpreter start through
`import otflow` and `load_config` of the workload's config (which reads its
CSV datasets).  The CLI command is then run through `otflow.cli.main`, which
loads the config again as it always does, and its wall and CPU time are
measured.  A fixed calibration loop runs just before and just after the
command, outside both timings.  With TRACE=1 the layer wrappers of spans.py
are installed first and their spans are written to SPANS_TSV after the
command.

The result JSON is written only after the command returns; a missing file
tells the parent that this execution failed.
"""

import json
import os
import resource
import sys
import time


def _clock_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _blas_threads():
    """(library path, thread count) of the OpenBLAS this process loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return os.path.basename(lib), int(fn())
    return None, None


def _provenance():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib, threads = _blas_threads()
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": lib,
        "blas_threads": threads,
    }


def _calibrate():
    """Seconds taken by a fixed mix of interpreter and small-array numpy work.

    The same work on every host and commit; run.py divides timings by it to
    take out the speed the shared host happens to give this process.
    """
    import numpy as np

    t0 = time.perf_counter()
    a = np.ones(2)
    m = np.ones((64, 16))
    acc = 0.0
    for _ in range(20000):
        a = a * 1.0000001 + 1e-9
        acc += float(a[0]) + float(np.einsum("ij,ij->", m, m))
    return time.perf_counter() - t0


def _workers(argv):
    return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1


def main():
    spawn_ns = int(sys.argv[1])
    result_path, trace, spans_path = sys.argv[2], sys.argv[3] == "1", sys.argv[4]
    argv = sys.argv[6:]

    import otflow
    from otflow.cli import main as cli_main
    from otflow.config import load_config

    load_config(argv[1])
    setup_s = (_clock_ns() - spawn_ns) / 1e9

    tracer = None
    entry = cli_main
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        entry = otflow.cli.main

    cal_before = _calibrate()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = entry(argv)
    run_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cal_after = _calibrate()

    result = {
        "exit_code": code,
        "calibration_s": (cal_before + cal_after) / 2,
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "otflow_file": otflow.__file__,
        "provenance": _provenance(),
    }
    if tracer is not None:
        counts, times, edit_ms = spans.summarize(tracer.spans, run_s, _workers(argv))
        result.update(counts=counts, times=times, edit_ms=edit_ms,
                      n_spans=len(tracer.spans), unwrapped=tracer.missing)
        tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
