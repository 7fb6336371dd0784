"""End-to-end detection, explanation, and evaluation runs.

The detection pipeline runs in a fixed order: smooth, vif_prune, center,
fit_scatter, score, threshold, flag.  Fitting touches only training data;
scoring applies the fitted model to the test block.  Each run produces a
JSON-serializable report that records the step order, per-step wall-clock
timings (training fit and test scoring separately), the pruning trace, and
the threshold.  Reports are deterministic for fixed inputs and configuration
except for the ``timing`` block.  The test block is smoothed and scored in
column blocks of the scoring solve's width, so no smoothed copy of it is
held whole.
"""

from __future__ import annotations

import copy
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import __version__ as _version
from .collinearity import vif_prune
from .data import (
    DetectorModel,
    ModelFormatError,
    SeriesMatrix,
    SmoothConfig,
    load_csv,
    split as split_matrix,
)
from .importance import (
    ImportanceReport,
    assemble_explain_dataset,
    gini_importance,
    rcde,
    train_forest,
)
from .metrics import confusion, extract_clusters, f1, mcc, precision, recall, ric
# the pipeline solves its own blocks in place, under the name perfbench traces
from .scoring import _SOLVE_COLUMNS, _score_in_place as score_all, fit_scatter
from .smoothing import smooth_matrix
from .thresholds import (
    ThresholdSpec,
    chi2_threshold,
    flag as flag_scores,
    mvt_threshold,
    pot_threshold,
)

STEP_ORDER = (
    "smooth",
    "vif_prune",
    "center",
    "fit_scatter",
    "score",
    "threshold",
    "flag",
)

# OpenBLAS's dgemv sums an array of 1 to 3 columns in another order than the
# same columns viewed in a wider array, so a forward solve of a block that
# narrow rounds differently from the whole-block solve's last sub-block
_MIN_BLOCK = 4

# step 5's rankings and the columns they are computed from
IMPORTANCE_KINDS = ("rf", "lr", "both")
STEP5_FEATURE_KINDS = ("smoothed", "raw")

# distinct process exit code per failing pipeline stage
EXIT_CODES = {
    "ok": 0,
    "error": 1,
    "config": 2,
    "ingest": 10,
    "smooth": 11,
    "collinearity": 12,
    "scatter": 13,
    "threshold": 14,
    "score": 15,
    "explain": 16,
    "evaluate": 17,
}


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name and exit code."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.exit_code = EXIT_CODES.get(stage, EXIT_CODES["error"])
        self.cause = cause
        super().__init__(f"{stage}: {cause}")


@contextmanager
def _stage(stage: str, timings: dict | None = None, step: str | None = None):
    """Run a block as pipeline stage ``stage``.

    The block's wall-clock time is added to ``timings[step or stage]``.  A
    ``ValueError`` or ``RuntimeError`` raised in it becomes
    ``PipelineError(stage, exc)``, an ``OSError`` (a file that cannot be
    read or written) or a ``ModelFormatError`` (a model file that does not
    load) ``PipelineError("ingest", exc)``; a ``PipelineError`` from a
    nested stage passes through unchanged.
    """
    t0 = time.perf_counter()
    try:
        yield
    except (ValueError, RuntimeError, OSError) as exc:
        if isinstance(exc, PipelineError):
            raise
        failed = "ingest" if isinstance(exc, (OSError, ModelFormatError)) else stage
        raise PipelineError(failed, exc) from exc
    if timings is not None:
        key = step or stage
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0


@dataclass
class PipelineConfig:
    """All knobs of a detection / explanation run.

    ``train`` and ``test`` may be file paths or in-memory matrices; as an
    alternative, ``data`` plus ``train_end`` splits one source in two.
    """

    train: str | Path | SeriesMatrix | None = None
    test: str | Path | SeriesMatrix | None = None
    data: str | Path | SeriesMatrix | None = None
    train_end: int | None = None
    label_column: str | None = None
    smooth: SmoothConfig = dataclass_field(default_factory=SmoothConfig)
    vif_threshold: float = 5.0
    threshold: ThresholdSpec = dataclass_field(default_factory=ThresholdSpec)
    importance: str = "rf"
    rf_trees: int = 100
    rf_seed: int = 0
    step5_window: tuple[int, int] | None = None
    step5_extra: int = 1000
    step5_features: str = "smoothed"
    top: int = 5
    min_cluster_len: int = 1

    def __post_init__(self):
        if self.importance not in IMPORTANCE_KINDS:
            raise ValueError("importance must be 'rf', 'lr', or 'both'")
        if self.step5_features not in STEP5_FEATURE_KINDS:
            raise ValueError("step5_features must be 'smoothed' or 'raw'")
        if self.top < 1:
            raise ValueError("top must be at least 1")


@dataclass
class DetectionResult:
    """Scores and 0/1 ``int8`` flags over the smoothed test timeline.

    ``time_offset`` maps score index 0 back to original test position
    ``h - 1``.
    """

    scores: np.ndarray
    flags: np.ndarray
    time_offset: int


def load_matrix(source, label_column: str | None = None) -> SeriesMatrix:
    """``source`` itself when it is a matrix, else the matrix read, in stage
    ``ingest``, from the CSV file it names."""
    if isinstance(source, SeriesMatrix):
        return source
    with _stage("ingest"):
        return load_csv(source, label_column=label_column)[0]


def _resolve_data(cfg: PipelineConfig):
    """Check ``cfg``'s sources; read and split ``data``, leave the others unread."""
    with _stage("config"):
        if cfg.data is not None:
            if cfg.train is not None or cfg.test is not None:
                raise ValueError(
                    "give either data with train_end or train and test "
                    "sources, not both"
                )
            if cfg.train_end is None:
                raise ValueError("data source requires train_end")
            data = load_matrix(cfg.data, cfg.label_column)
            return split_matrix(data, cfg.train_end)
        if cfg.train is None or cfg.test is None:
            raise ValueError(
                "provide train and test sources, or data with train_end"
            )
        if cfg.train_end is not None:
            raise ValueError(
                "train_end splits a data source; it does not apply to "
                "train and test sources"
            )
        return cfg.train, cfg.test


def fit_detector(
    train: SeriesMatrix,
    smooth: SmoothConfig | None = None,
    vif_threshold: float = PipelineConfig.vif_threshold,
    threshold: ThresholdSpec | None = None,
) -> tuple[DetectorModel, dict]:
    """Fit a detector on training data (steps 1 to 4).

    Returns the model plus a fit report holding the pruning trace,
    training-score summary, per-step timings and, under ``"smoothed"``,
    the smoothed training block.  The raw block is let go once smoothed
    (freed when passed as a temporary); only the retained rows are centered.
    """
    smooth = smooth or SmoothConfig()
    threshold = threshold or ThresholdSpec()
    timings: dict[str, float] = {}
    with _stage("smooth", timings):
        smoothed = smooth_matrix(train, smooth)
    del train
    with _stage("collinearity", timings, "vif_prune"):
        report = vif_prune(smoothed, vif_threshold)
    reduced = smoothed.values[report.retained]
    reduced -= report.means[report.retained][:, None]
    with _stage("scatter", timings, "fit_scatter"):
        fit = fit_scatter(reduced, report.means[report.retained])
    with _stage("score", timings):
        train_scores = score_all(fit, reduced)
    with _stage("threshold", timings):
        gpd = None
        if threshold.kind == "mvt":
            k = mvt_threshold(train_scores)
        elif threshold.kind == "pot":
            k, gpd = pot_threshold(train_scores, threshold)
        else:
            k = chi2_threshold(fit.m, threshold.alpha)

    model = DetectorModel(
        retained=list(report.retained),
        smooth=smooth,
        scatter=fit,
        threshold_kind=threshold.kind,
        k=float(k),
        gpd=gpd,
        vif_trace=list(report.removed),
        names=list(smoothed.names),
    )
    threshold_block = {"kind": model.threshold_kind, "k": model.k}
    if gpd is not None:
        threshold_block["gpd"] = asdict(gpd)
    info = {
        "vif": {
            "threshold": vif_threshold,
            "removed": [[int(i), float(v)] for i, v in report.removed],
            "retained": [int(i) for i in report.retained],
            "final_vifs": [float(v) for v in report.final_vifs],
        },
        "threshold": threshold_block,
        "train_scores": {
            "count": int(train_scores.size),
            "max": float(train_scores.max()),
            "mean": float(train_scores.mean()),
        },
        "timing": timings,
        "smoothed": smoothed,
    }
    return model, info


def apply_detector(
    model: DetectorModel, test: SeriesMatrix
) -> tuple[DetectionResult, dict]:
    """Score and flag a test block with a fitted model (step scoring).

    The test variables must match the model's in count and, when the model
    knows their names, in name and order.  The info dict holds the
    per-step timings, each summed over the column blocks that are smoothed
    and scored in turn: no smoothed copy of the whole test block is made,
    and ``test`` is never written.
    """
    _check_variables(model, test)
    return _detect(model, test, model.smooth)


def _check_variables(model: DetectorModel, test: SeriesMatrix) -> None:
    with _stage("score"):
        if test.n_vars != model.n_original:
            raise ValueError(
                f"model was fitted on {model.n_original} variables, "
                f"test data has {test.n_vars}"
            )
        if model.names is not None and list(test.names) != model.names:
            i = [a == b for a, b in zip(test.names, model.names)].index(False)
            raise ValueError(
                f"test variable {i} is {test.names[i]!r}, but the model "
                f"was fitted with {model.names[i]!r} there"
            )


def _detect(
    model: DetectorModel, test: SeriesMatrix, smooth: SmoothConfig | None
) -> tuple[DetectionResult, dict]:
    """:func:`apply_detector` on ``test`` smoothed with ``smooth``, or
    already smoothed with the model's window when it is ``None``: blocks of
    ``_SOLVE_COLUMNS`` scores, smoothed from views of all rows, are scored
    and freed in turn, and keep the bits of one whole-block solve."""
    timings: dict[str, float] = {}
    width = 1 if smooth is None else smooth.h
    # one block at least, so that a series too short to smooth fails there;
    # a last block under _MIN_BLOCK columns joins the one before it, and the
    # solve splits that block where a whole-block solve would
    size = max(test.n_times - width + 1, 1)
    edges = [*range(0, max(size - _MIN_BLOCK + 1, 1), _SOLVE_COLUMNS), size]
    scores = np.empty(size)
    for start, stop in zip(edges, edges[1:]):
        block = test.values[:, start : stop + width - 1]
        if smooth is not None:
            with _stage("smooth", timings):
                block = smooth_matrix(SeriesMatrix(test.names, block), smooth).values
        with _stage("score", timings):
            reduced = block[model.retained]
            del block
            reduced -= model.scatter.mu[:, None]
            scores[start:stop] = score_all(model.scatter, reduced)
            del reduced
    with _stage("score", timings, "flag"):
        flags = flag_scores(scores, model.k)
    result = DetectionResult(
        scores=scores, flags=flags, time_offset=model.smooth.h - 1
    )
    return result, {"timing": timings}


def fit_from_config(cfg: PipelineConfig, train) -> tuple[DetectorModel, dict]:
    """``fit_detector``'s result on ``train`` (a matrix or a CSV file)
    under ``cfg``'s smoothing, VIF and threshold settings."""
    # passed by position: an *args tuple would keep a block read here alive
    smooth, vif, threshold = cfg.smooth, cfg.vif_threshold, cfg.threshold
    return fit_detector(load_matrix(train, cfg.label_column), smooth, vif, threshold)


def run_detect(
    cfg: PipelineConfig,
) -> tuple[DetectorModel, DetectionResult, dict]:
    """Run the full detection pipeline from a configuration: check it, read
    and fit the train file, then read and score the test file, keeping no
    block that the next step no longer needs (two (n, T) blocks at most,
    while the train block is smoothed; the test side holds its raw block
    and one column block of scoring)."""
    train, test = _resolve_data(cfg)
    model, fit_info = fit_from_config(cfg, train)
    del fit_info["smoothed"]  # not held while the test block is scored
    result, score_info = apply_detector(model, load_matrix(test, cfg.label_column))
    report = {
        "tool": {"name": "madkit", "version": _version},
        "config": _config_block(cfg),
        "steps": list(STEP_ORDER),
        "vif": fit_info["vif"],
        "threshold": fit_info["threshold"],
        "train_scores": fit_info["train_scores"],
        "detection": {
            "n_scores": int(result.scores.size),
            "n_flags": int(result.flags.sum()),
            "time_offset": result.time_offset,
            "flagged_intervals": _intervals(result.flags, result.time_offset),
        },
        "timing": {
            "fit_seconds": sum(fit_info["timing"].values()),
            "score_seconds": sum(score_info["timing"].values()),
            "per_step": {
                "fit": fit_info["timing"],
                "score": score_info["timing"],
            },
        },
    }
    return model, result, report


def report_core(report: dict) -> dict:
    """Copy of a detection report without the wall-clock timing block.

    Everything in the core is a pure function of inputs and configuration,
    so two runs on identical inputs produce byte-identical JSON
    serialisations of it.
    """
    return {k: copy.deepcopy(v) for k, v in report.items() if k != "timing"}


def _config_block(cfg: PipelineConfig) -> dict:
    def describe(source):
        if isinstance(source, SeriesMatrix):
            return f"<in-memory {source.n_vars}x{source.n_times}>"
        return str(source) if source is not None else None

    return {
        "train": describe(cfg.train),
        "test": describe(cfg.test),
        "data": describe(cfg.data),
        "train_end": cfg.train_end,
        "smooth_window": cfg.smooth.h,
        "smooth_kind": cfg.smooth.kind,
        "vif_threshold": cfg.vif_threshold,
        "threshold": cfg.threshold.kind,
        "pot_q": cfg.threshold.q,
        "pot_percentile": cfg.threshold.percentile,
        "chi2_alpha": cfg.threshold.alpha,
    }


def _intervals(flags: np.ndarray, offset: int) -> list[dict]:
    clusters = extract_clusters(flags)
    starts, ends = clusters.starts + offset, clusters.ends + offset
    rows = zip(starts.tolist(), ends.tolist(), clusters.lengths.tolist())
    return [{"start": s, "end": e, "length": n} for s, e, n in rows]


def run_explain(
    cfg: PipelineConfig, model: DetectorModel | None = None
) -> list[ImportanceReport]:
    """Rank variables behind the flags in the configured window.

    As :func:`run_detect` does, this resolves ``cfg``'s data, fits a model
    on the train block unless ``model`` is given, and flags the test block.
    Features come from the representation that produced the flags
    (smoothed, unless ``cfg.step5_features == "raw"``), over the original
    pre-pruning variable set, with ``cfg.step5_extra`` known-normal rows
    from the end of the training block.  Each block is smoothed once: the
    features reuse the block the fit smoothed, and the test block is
    smoothed whole, its raw block let go, and scored as already smoothed.
    Files are read in :func:`run_detect`'s order; a raw block is kept where
    the features use it.
    """
    train, test = _resolve_data(cfg)
    if model is not None or cfg.step5_features == "raw":
        train = load_matrix(train, cfg.label_column)
    fit_info = None
    if model is None:
        model, fit_info = fit_from_config(cfg, train)
    test = load_matrix(test, cfg.label_column)
    if cfg.step5_features == "smoothed":
        _check_variables(model, test)
        with _stage("smooth"):
            feat_test = smooth_matrix(test, model.smooth)
        del test
        result, _ = _detect(model, feat_test, None)
        if fit_info is not None:
            feat_train = fit_info["smoothed"]
        else:
            with _stage("smooth"):
                feat_train = smooth_matrix(train, model.smooth)
    else:
        result, _ = apply_detector(model, test)
        # raw columns aligned to the smoothed timeline (window ends)
        h = model.smooth.h
        feat_test = test.slice_time(h - 1, test.n_times)
        feat_train = train.slice_time(h - 1, train.n_times)
    window = cfg.step5_window or (0, feat_test.n_times)
    n_extra = min(cfg.step5_extra, feat_train.n_times)
    with _stage("explain"):
        dataset = assemble_explain_dataset(
            feat_test,
            result.flags,
            window,
            train_tail=feat_train if n_extra > 0 else None,
            n_extra=n_extra,
        )
        # RCDE first: on a separable window it fails before a forest grows
        lr = [rcde(dataset)] if cfg.importance in ("lr", "both") else []
        rf = []
        if cfg.importance in ("rf", "both"):
            forest = train_forest(
                dataset, n_trees=cfg.rf_trees, seed=cfg.rf_seed
            )
            rf = [gini_importance(forest, dataset)]
    return rf + lr


def run_evaluate(pred, truth, min_cluster_len: int = 1) -> dict:
    """Pointwise and cluster metrics for aligned prediction/truth vectors.

    The block's ``clusters`` member is :func:`extract_clusters`'s
    ``ClusterColumns``; ``cli._emit`` writes it as a list of
    ``{"start", "end", "length"}`` records.
    """
    with _stage("evaluate"):
        if len(pred) != len(truth):
            raise ValueError(
                f"prediction length {len(pred)} does not match aligned "
                f"truth length {len(truth)}"
            )
        counts = confusion(pred, truth)
        clusters = extract_clusters(truth, min_length=min_cluster_len)
        block = {
            "counts": asdict(counts),
            "precision": precision(counts),
            "recall": recall(counts),
            "f1": f1(counts),
            "mcc": mcc(counts),
            "clusters": clusters,
        }
        block["ric"] = ric(pred, clusters) if clusters else None
    return block
