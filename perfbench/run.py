"""Seeded end-to-end and per-layer benchmark of madkit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run makes the workload's inputs from the seed, computes reference
results, times the import of madkit from ``src/`` in fresh interpreters,
then runs operations one at a time, each in a fresh process forked from a
worker that has imported madkit (a closed loop: one client, one operation
in flight), for ``S`` seconds.  Times are scaled to a reference machine
speed by the calibration of ``calibrate.py``.  Every operation's outputs
are checked against the reference; the first correct output is also
damaged on purpose to confirm that the check reports it.

With ``--trace 0`` the last line of output reports the end-to-end metrics
named in ``BENCHMARK.json``; with ``--trace 1`` operations alternate
between traced and untraced, and it reports the per-layer metrics,
including the tracing overhead.  The line before it records the
environment, input digests and every operation.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The whole run, workers included, keeps to one CPU with one BLAS thread:
# on a shared host each CPU is slowed by other tenants on its own schedule,
# so the calibration must run where the operations run (see README.md).
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402  (after the thread settings above)
import scipy  # noqa: E402

import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# every run ends well inside the 180 s a run may take
RUN_BUDGET_S = 170.0
# fresh interpreters per run whose import of madkit gives setup_s
SETUP_SAMPLES = 3
WORKER = Path(__file__).with_name("worker.py")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def source_digest(package: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(path.relative_to(package).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Server:
    """A run's ``worker.py serve`` process, which forks one fresh process,
    with madkit already imported, per operation."""

    def __init__(self, root: Path, workdir: Path, timeout: float):
        self.log_path = workdir / "worker.log"
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(WORKER), "serve"], cwd=root, env=worker_env(root),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, text=True,
                start_new_session=True,
            )
        reply = self._reply(timeout)
        if not reply:
            self.close()
            raise RuntimeError(f"worker did not start: {self.log_tail()}")
        self.setup = json.loads(reply)

    def _reply(self, timeout: float) -> str | None:
        ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 0.0))
        return self.proc.stdout.readline().strip() if ready else None

    def log_tail(self) -> str:
        lines = self.log_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        return lines[-1] if lines else "no output"

    def run(self, spec_path: Path, timeout: float) -> tuple[str, list[float]]:
        """Run one operation: what went wrong (or an empty string), and the
        calibration times around it."""
        try:
            self.proc.stdin.write(f"{spec_path}\n")
            self.proc.stdin.flush()
        except OSError as exc:
            return f"worker is gone: {exc!r}", []
        reply = self._reply(timeout)
        if reply is None:
            self.close()
            return f"operation timed out after {timeout:.0f} s", []
        if not reply:
            return f"worker is gone: {self.log_tail()}", []
        reply = json.loads(reply)
        if reply["exit"] != 0:
            return f"operation exited with {reply['exit']}: {self.log_tail()}", []
        return "", reply["calib_s"]

    def close(self) -> None:
        """End the server and any operation it is running, and wait for them."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # an orphaned operation
        except ProcessLookupError:
            pass
        self.proc.stdout.close()


def worker_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def measure_setup(root: Path, count: int, deadline: float) -> list[dict]:
    """Import times of ``madkit.cli`` in ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(WORKER), "setup"], cwd=root,
                              env=worker_env(root), capture_output=True, text=True,
                              timeout=max(deadline - time.perf_counter(), 1.0))
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise RuntimeError(f"set-up worker exited with {proc.returncode}: {tail[0]}")
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def run_ops(server: Server, workload, workdir: Path, seconds: float, trace: bool,
            deadline: float) -> tuple[list[dict], bool | None]:
    """Operations while the next one should end within ``seconds``; a trace
    run alternates traced and untraced operations and makes at least three."""
    ops: list[dict] = []
    selftest = None
    start = time.perf_counter()
    while True:
        opdir = workdir / f"op{len(ops)}"
        opdir.mkdir()
        traced = trace and len(ops) % 2 == 0
        spec = dict(workload.op(opdir), trace=traced, result=str(opdir / "result.json"))
        spec_path = opdir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        op_start = time.perf_counter()
        error, calib_s = server.run(spec_path, deadline - op_start)
        result = None
        if not error:
            result = json.loads((opdir / "result.json").read_text(encoding="utf-8"))
            result["calib_s"] = calib_s
        problems = [error] if error else []
        if result is not None and result["exit_code"] != 0:
            problems.append(f"exit code {result['exit_code']}")
        if not problems:
            out, problems = workload.check_outputs(opdir)
            if out is not None and not problems and selftest is None:
                selftest = bool(workload.check(workload.corrupt(out)))
        shutil.rmtree(opdir)
        ops.append({"traced": traced, "result": result, "problems": problems,
                    "seconds": time.perf_counter() - op_start})
        if server.proc.poll() is not None:
            break
        # start another operation only if it should end within the run
        now = time.perf_counter()
        typical = statistics.median(op["seconds"] for op in ops)
        if now + max(op["seconds"] for op in ops) > deadline:
            break
        if now - start + typical > seconds and len(ops) >= (3 if trace else 1):
            break
    return ops, selftest


def scaled(item: dict, key: str) -> float:
    """``item[key]`` in seconds at the reference speed of ``calibrate.py``,
    by the calibrations made around it on the same CPU."""
    return item[key] * calibrate.REFERENCE_S / statistics.fmean(item["calib_s"])


def end_to_end(ops: list[dict], setups: list[dict], cells: int) -> dict:
    done = [op["result"] for op in ops if op["result"] is not None]
    wall = statistics.median(scaled(r, "wall_s") for r in done)
    failed = sum(1 for op in ops if op["problems"])
    return {
        "wall_s": wall,
        "cells_per_s": cells / wall,
        "setup_s": statistics.median(scaled(r, "setup_s") for r in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        "ok_frac": (len(ops) - failed) / len(ops),
    }


def per_layer(ops: list[dict]) -> dict:
    """Medians over traced operations, and the tracing overhead.  A traced
    operation whose work counts differ from the first one's is failed."""
    traced = [op for op in ops if op["traced"] and op["result"] is not None]
    plain = [op["result"] for op in ops if not op["traced"] and op["result"] is not None]
    layers = [op["result"]["layers"] for op in traced]
    for op, layer in zip(traced[1:], layers[1:]):
        differ = [name for name in tracing.COUNTS if layer[name] != layers[0][name]]
        if differ:
            op["problems"].append(f"counts differ from the first traced operation: {differ}")
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(scaled(op["result"], "wall_s") for op in traced)
        - statistics.median(scaled(r, "wall_s") for r in plain)
    )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    run_start = time.perf_counter()
    package = root / "src" / "madkit"
    if not (package / "__init__.py").is_file():
        print(f"error: no madkit package at {package}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    compileall.compile_dir(str(package), quiet=1)

    workdir = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "inputs").mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir / "inputs")
        t0 = time.perf_counter()
        workload.prepare()
        prepare_s = time.perf_counter() - t0
        digests = workload.digests()
        deadline = run_start + RUN_BUDGET_S
        server = Server(root, workdir, deadline - time.perf_counter())
        try:
            setups = [server.setup]
            if not args.trace:
                setups += measure_setup(root, SETUP_SAMPLES - 1, deadline)
            ops, selftest = run_ops(server, workload, workdir, args.seconds, bool(args.trace),
                                    deadline)
        finally:
            server.close()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    kinds = {op["traced"] for op in ops if op["result"]}
    if kinds != ({True, False} if args.trace else {False}):
        print("error: too few operations completed: "
              + "; ".join(p for op in ops for p in op["problems"]), file=sys.stderr)
        return 1
    values = per_layer(ops) if args.trace else end_to_end(ops, setups, workload.cells)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    failed = sum(1 for op in ops if op["problems"])
    blas = next((op["result"]["blas_threads"] for op in ops if op["result"]), None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "cpu": CPU,
            "blas_threads": blas,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "git_commit": git_commit(root),
            "madkit_source_sha256": source_digest(package),
            "workers": ("one at a time: one client, closed loop, each operation in its own"
                        " process forked from one worker"),
        },
        "inputs_sha256": digests,
        "prepare_s": prepare_s,
        "setup_samples": setups,
        "checker_selftest": ("passed" if selftest else
                             "failed" if selftest is False else "not run"),
        "ops": [{"traced": op["traced"], "problems": op["problems"],
                 **({"wall_s": op["result"]["wall_s"], "calib_s": op["result"]["calib_s"],
                     "scaled_wall_s": scaled(op["result"], "wall_s"),
                     "peak_rss_mb": op["result"]["peak_rss_mb"]} if op["result"] else {})}
                for op in ops],
    }
    print(json.dumps(record))
    correct = failed == 0 and selftest is True
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
