"""Layer spans and counts for the traced benchmark run.

``Tracer.install`` replaces madkit functions, at the module attributes
their callers look up, with wrappers that record a span (name, start,
duration, parent) and the work counts below.  The package itself is not
modified.  A name that a later version no longer has is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# span name -> (module, attribute) bindings to wrap
BINDINGS = {
    "cli.main": [("madkit.cli", "main")],
    "cli.read_labels": [("madkit.cli", "_read_label_column")],
    "cli.write_scores": [("madkit.cli", "_write_scores_csv")],
    "cli.emit": [("madkit.cli", "_emit")],
    "data.load_csv": [("madkit.cli", "load_csv"), ("madkit.pipeline", "load_csv")],
    "data.save_model": [("madkit.cli", "save_model")],
    "pipeline.run_detect": [("madkit.cli", "run_detect")],
    "pipeline.resolve_data": [("madkit.pipeline", "_resolve_data")],
    "pipeline.fit_detector": [("madkit.cli", "fit_detector"),
                              ("madkit.pipeline", "fit_detector")],
    "pipeline.apply_detector": [("madkit.cli", "apply_detector"),
                                ("madkit.pipeline", "apply_detector")],
    "pipeline.run_explain": [("madkit.cli", "run_explain")],
    "pipeline.run_evaluate": [("madkit.cli", "run_evaluate")],
    "smoothing.smooth_matrix": [("madkit.pipeline", "smooth_matrix")],
    "collinearity.vif_prune": [("madkit.pipeline", "vif_prune")],
    "collinearity.vifs": [("madkit.collinearity", "_vifs_from_gram")],
    "collinearity.center": [("madkit.pipeline", "center"),
                            ("madkit.collinearity", "center")],
    "scoring.fit_scatter": [("madkit.pipeline", "fit_scatter")],
    "scoring.score_all": [("madkit.pipeline", "score_all")],
    "thresholds.threshold": [("madkit.pipeline", "mvt_threshold"),
                             ("madkit.pipeline", "pot_threshold"),
                             ("madkit.pipeline", "chi2_threshold")],
    "thresholds.flag": [("madkit.pipeline", "flag_scores")],
    "importance.assemble": [("madkit.pipeline", "assemble_explain_dataset")],
    "importance.train_forest": [("madkit.pipeline", "train_forest")],
    "importance.gini_importance": [("madkit.pipeline", "gini_importance")],
    "importance.rcde": [("madkit.pipeline", "rcde")],
    "metrics.confusion": [("madkit.pipeline", "confusion")],
    "metrics.extract_clusters": [("madkit.pipeline", "extract_clusters")],
    "metrics.ric": [("madkit.pipeline", "ric")],
}


def _file_size(path) -> int:
    return os.path.getsize(path) if path else 0


def _emitted_bytes(args, kwargs) -> int:
    """Size of the emitted report without its wall-clock ``timing`` member,
    the only part that differs between runs on identical inputs."""
    payload = args[0]
    size = _file_size(args[1] if len(args) > 1 else kwargs.get("out"))
    if isinstance(payload, dict) and "timing" in payload:
        rest = {key: value for key, value in payload.items() if key != "timing"}
        size -= len(json.dumps(payload, indent=2)) - len(json.dumps(rest, indent=2))
    return size


# span name -> function(args, kwargs, result) giving count increments
COUNTERS = {
    "data.load_csv": lambda a, k, r: {"data.load_csv_bytes": _file_size(a[0])},
    "cli.emit": lambda a, k, r: {"cli.emit_bytes": _emitted_bytes(a, k)},
    "smoothing.smooth_matrix": lambda a, k, r: {
        "smoothing.window_cells": a[0].n_vars * r.n_times * a[1].h
    },
    "collinearity.vifs": lambda a, k, r: {
        "collinearity.vif_iterations": 1, "collinearity.regressions": len(r)
    },
    "collinearity.center": lambda a, k, r: {"collinearity.center_calls": 1},
    "scoring.score_all": lambda a, k, r: {"scoring.points_scored": len(r)},
    "thresholds.threshold": lambda a, k, r: (
        {"thresholds.gpd_exceedances": r[1].t_l} if isinstance(r, tuple) else {}
    ),
    "importance.train_forest": lambda a, k, r: {
        "importance.trees": len(r.trees),
        "importance.tree_nodes": sum(t.feature.size for t in r.trees),
    },
    "importance.rcde": lambda a, k, r: {"importance.rcde_refits": a[0].n_features},
    "metrics.extract_clusters": lambda a, k, r: {"metrics.clusters": len(r)},
}

# per-layer metric -> span whose summed duration it reports
SPAN_TIMES = {
    "data.load_csv_s": "data.load_csv",
    "data.save_model_s": "data.save_model",
    "smoothing.smooth_matrix_s": "smoothing.smooth_matrix",
    "collinearity.vif_prune_s": "collinearity.vif_prune",
    "collinearity.center_s": "collinearity.center",
    "scoring.fit_scatter_s": "scoring.fit_scatter",
    "scoring.score_all_s": "scoring.score_all",
    "thresholds.threshold_s": "thresholds.threshold",
    "thresholds.flag_s": "thresholds.flag",
    "importance.assemble_s": "importance.assemble",
    "importance.train_forest_s": "importance.train_forest",
    "importance.gini_importance_s": "importance.gini_importance",
    "importance.rcde_s": "importance.rcde",
    "metrics.confusion_s": "metrics.confusion",
    "metrics.extract_clusters_s": "metrics.extract_clusters",
    "metrics.ric_s": "metrics.ric",
    "pipeline.fit_detector_s": "pipeline.fit_detector",
    "pipeline.apply_detector_s": "pipeline.apply_detector",
    "pipeline.run_explain_s": "pipeline.run_explain",
    "pipeline.run_evaluate_s": "pipeline.run_evaluate",
    "cli.main_s": "cli.main",
    "cli.read_labels_s": "cli.read_labels",
    "cli.write_scores_s": "cli.write_scores",
    "cli.emit_s": "cli.emit",
}

# per-layer metric -> layer whose spans' summed self time it reports
SELF_TIMES = {"pipeline.self_s": "pipeline", "cli.self_s": "cli"}

COUNTS = (
    "data.load_csv_bytes", "smoothing.window_cells", "collinearity.vif_iterations",
    "collinearity.regressions", "collinearity.center_calls", "scoring.points_scored",
    "thresholds.gpd_exceedances", "importance.trees", "importance.tree_nodes",
    "importance.rcde_refits", "metrics.clusters", "cli.emit_bytes",
)


class Tracer:
    """Spans and counts of one operation, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []

    def install(self) -> None:
        for name, bindings in BINDINGS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if callable(original):
                    setattr(module, attr, self._wrap(name, original))

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["duration"] = time.perf_counter() - start
                span["start"] = start
                self._stack.pop()
            if counter is not None:
                try:
                    increments = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    increments = {}  # an interface this counter does not know
                for key, value in increments.items():
                    self.counts[key] += int(value)
            return result

        return traced

    def metrics(self) -> dict:
        """Per-layer metric values of the operation."""
        out = {metric: 0.0 for metric in list(SPAN_TIMES) + list(SELF_TIMES)}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["duration"]
        by_name = {span_name: metric for metric, span_name in SPAN_TIMES.items()}
        by_layer = {layer: metric for metric, layer in SELF_TIMES.items()}
        for span, children in zip(self.spans, child_time):
            if span["name"] in by_name:
                out[by_name[span["name"]]] += span["duration"]
            layer = span["name"].split(".")[0]
            if layer in by_layer:
                out[by_layer[layer]] += span["duration"] - children
        out.update(self.counts)
        seconds = out["data.load_csv_s"]
        out["data.load_csv_mb_per_s"] = (
            out["data.load_csv_bytes"] / 2**20 / seconds if seconds > 0 else 0.0
        )
        return out
