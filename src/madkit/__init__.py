"""Semi-supervised anomaly detection for multivariate time series.

The detection pipeline has five steps: (1) moving-window smoothing,
(2) variance-inflation-factor pruning of near-collinear variables,
(3) Mahalanobis-distance scoring against the training scatter,
(4) threshold selection (training maximum, peaks-over-threshold tail
extrapolation, or a chi-square reference quantile) with strict-exceedance
flagging, and (5) per-variable explanation of flagged windows by
random-forest Gini importance and logistic deviance shares.  Supporting
modules provide evaluation metrics, seeded synthetic corpora, and a
batch CLI (``madkit``).
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .collinearity import (
    ConstantVariableError,
    VifReport,
    center,
    compute_vifs,
    vif_prune,
)
from .data import (
    CsvFormatError,
    DetectorModel,
    GpdParameters,
    ModelFormatError,
    SeriesMatrix,
    load_csv,
    load_headerless,
    load_model,
    save_csv,
    save_model,
    split,
)
from .importance import (
    ConvergenceError,
    DecisionTree,
    ExplainDataset,
    Forest,
    ImportanceReport,
    SingleClassError,
    assemble_explain_dataset,
    gini_importance,
    oob_accuracy,
    rcde,
    train_forest,
)
from .metrics import (
    AnomalyCluster,
    ClusterColumns,
    ConfusionCounts,
    confusion,
    extract_clusters,
    f1,
    mcc,
    precision,
    recall,
    ric,
)
from .pipeline import (
    EXIT_CODES,
    DetectionResult,
    PipelineConfig,
    PipelineError,
    apply_detector,
    fit_detector,
    report_core,
    run_detect,
    run_evaluate,
    run_explain,
)
from .scoring import (
    EigenBasis,
    ScatterFit,
    SingularCovarianceError,
    eigen_basis,
    fit_scatter,
    score,
    score_all,
)
from .smoothing import SmoothConfig, align_labels, smooth_matrix, smooth_series
from .synthetic import AnomalySpec, CollinearGroup, SynthConfig, generate
from .thresholds import (
    GpdFitError,
    ThresholdSpec,
    chi2_threshold,
    fit_gpd,
    flag,
    gpd_loglik,
    mvt_threshold,
    pot_quantile,
    pot_threshold,
)

# Every public name imported above; the imports also bind the submodules.
__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
