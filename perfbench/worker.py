"""Benchmark worker processes, with ``src`` on ``PYTHONPATH``.

``python3 perfbench/worker.py setup``
    A fresh interpreter imports ``madkit.cli``, the set-up every CLI call
    pays before it reads input, and prints one JSON line: the import time
    and the times of two calibrations after it.  Only the standard library
    is imported before the timed import, so it includes numpy and scipy as
    a user's call would.

``python3 perfbench/worker.py serve``
    Imports ``madkit.cli`` once and prints the same line as ``setup``, then
    reads one operation spec path per line from standard input.  Each
    operation runs in a process forked from this one: a fresh process that
    has already imported madkit and shares no state with earlier
    operations.  The child runs the operation (optionally under the tracer)
    and writes its time, peak resident set and per-layer metrics to the
    spec's result path.  The server runs the calibration of
    ``calibrate.py`` just before the fork and just after the child ends,
    and prints a JSON line of the child's exit status and the two
    calibration times.  It exits at the end of its input.
"""

import json
import os
import resource
import sys
import time
import traceback


def run_operation(spec: dict) -> None:
    """The body of a forked child: one CLI call, timed."""
    import madkit

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    start = time.perf_counter()
    code = madkit.cli.main(spec["argv"])
    wall = time.perf_counter() - start

    result = {
        "exit_code": code,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": _blas_threads(),
        "layers": tracer.metrics() if tracer else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def timed_import() -> str:
    """Import ``madkit.cli``; a JSON line of the import time and of two
    calibrations after it."""
    start = time.perf_counter()
    import madkit.cli  # noqa: F401  (the timed set-up)
    setup_s = time.perf_counter() - start
    from calibrate import calibrate

    return json.dumps({"setup_s": setup_s, "calib_s": [calibrate(), calibrate()]})


def setup() -> int:
    print(timed_import())
    return 0


def serve() -> int:
    print(timed_import(), flush=True)
    from calibrate import calibrate

    for line in sys.stdin:
        with open(line.strip(), encoding="utf-8") as fh:
            spec = json.load(fh)
        # here, not in the child, so that its memory is not in the child's peak
        calib_before = calibrate()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.dup2(2, 1)  # standard output carries this server's replies
                run_operation(spec)
                status = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        calib_after = calibrate()
        print(json.dumps({"exit": os.waitstatus_to_exitcode(status),
                          "calib_s": [calib_before, calib_after]}), flush=True)
    return 0


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit({"setup": setup, "serve": serve}[sys.argv[1]]())
