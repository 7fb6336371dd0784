"""Run perfbench on every workload, untraced and traced, into one JSON file.

Usage, from anywhere in a checkout:

    python3 tools/bench.py --seed 7 --seconds 12 --out BENCH_26.json

For each workload that ``BENCHMARK.json`` names it runs, one at a time,

    python3 perfbench/run.py --workload W --seed S --seconds X --trace T

from the root of the checkout, first with T = 0 and then with T = 1, and
keeps the last two JSON lines of each run: the run record and the metrics
(see ``perfbench/README.md``).  The file holds, per workload:

* ``end_to_end``: the T = 0 run's metrics, with their units;
* ``operations``: the count of the T = 0 run's operations, the count of
  its timed ones (``timed``), and their median and interquartile range of
  per-operation ``scaled_wall_s`` (seconds at the reference speed) and
  ``peak_rss_mb``, the range ``null`` under 4 timed operations; under
  ``second_run`` the same of the T = 1 run's untraced operations: a
  second process on the same tree, so the two medians show how far one
  run sits from the next, which one run's interquartile range understates;
* ``per_layer``: the T = 1 run's metrics, with their units; layer times are
  raw seconds;
* ``layer_scale``: the median of ``scaled_wall_s / wall_s`` over the T = 1
  run's traced operations, the factor that takes a raw second on this
  machine to a second at the reference speed;
* ``per_layer_scaled``: every per-layer time (unit ``s``) times
  ``layer_scale``, so that layer times compare with the end-to-end times
  and across files; ``trace.overhead_s`` is left out, because perfbench
  already computes it from scaled times;
* ``inputs_sha256`` and ``correct``, true when both runs are.

and, once, the environment of the first run (with ``git_commit``) and
``correct`` over all runs.  It exits 1 when a run fails or is not correct,
after writing the file if every run reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def spread(values: list[float]) -> dict | None:
    """Median and interquartile range of ``values``; ``None`` if empty.  The
    range is ``None`` under 4 values: quartiles of 2 or 3 samples say
    nothing of the spread."""
    if not values:
        return None
    iqr = None
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr = q3 - q1
    return {"median": statistics.median(values), "iqr": iqr}


def summary(ops: list[dict]) -> dict:
    """The count of ``ops``, the count of the timed ones, on which the
    spreads rest, and the spread of their scaled wall time and peak RSS."""
    timed = [op for op in ops if "scaled_wall_s" in op]
    return {
        "count": len(ops),
        "timed": len(timed),
        "scaled_wall_s": spread([op["scaled_wall_s"] for op in timed]),
        "peak_rss_mb": spread([op["peak_rss_mb"] for op in timed]),
    }


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """The record and the metrics line of one perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    record, metrics = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    return record, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--out", required=True, help="path of the JSON file to write")
    args = parser.parse_args(argv)
    bench = {"seed": args.seed, "seconds": args.seconds, "correct": True,
             "environment": None, "workloads": {}}
    for workload in WORKLOADS:
        try:
            record, plain = run(workload, args.seed, args.seconds, 0)
            traced_record, traced = run(workload, args.seed, args.seconds, 1)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        correct = plain["correct"] and traced["correct"]
        layer_scale = statistics.median(
            op["scaled_wall_s"] / op["wall_s"]
            for op in traced_record["ops"] if op["traced"] and "wall_s" in op
        )
        bench["environment"] = bench["environment"] or record["environment"]
        bench["correct"] = bench["correct"] and correct
        bench["workloads"][workload] = {
            "correct": correct,
            "inputs_sha256": record["inputs_sha256"],
            "end_to_end": plain["metrics"],
            "operations": {
                **summary(record["ops"]),
                "second_run": summary(
                    [op for op in traced_record["ops"] if not op["traced"]]
                ),
            },
            "per_layer": traced["metrics"],
            "layer_scale": layer_scale,
            "per_layer_scaled": {
                name: {"value": metric["value"] * layer_scale, "unit": "s"}
                for name, metric in traced["metrics"].items()
                if metric["unit"] == "s" and name != "trace.overhead_s"
            },
        }
        print(f"{workload}: wall_s {plain['metrics']['wall_s']['value']:.3f}, "
              f"correct {correct}", file=sys.stderr)
    Path(args.out).write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    return 0 if bench["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
