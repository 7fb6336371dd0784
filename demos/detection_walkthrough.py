"""End-to-end detection on a generated dataset, step by step.

Run from the repository root:

    python3 demos/detection_walkthrough.py
"""

import numpy as np

from madkit import (
    AnomalySpec,
    CollinearGroup,
    SmoothConfig,
    SynthConfig,
    ThresholdSpec,
    apply_detector,
    extract_clusters,
    fit_detector,
    generate,
    ric,
)

# ---------------------------------------------------------------------------
# Build a 12-variable system: 3 of the variables are exact copies-with-slope
# of others (they carry no extra information), and the test half hides two
# sustained 6-sigma shifts.
t_train, t_test = 20000, 5000
config = SynthConfig(
    n=12,
    t_train=t_train,
    t_test=t_test,
    collinear_groups=(CollinearGroup(base=0, dependents=(3, 8)),
                      CollinearGroup(base=1, dependents=(5,))),
    anomalies=(
        AnomalySpec(start=t_train + 800, length=120, variables=(2, 6), magnitude=6.0),
        AnomalySpec(start=t_train + 3000, length=200, variables=(10,), magnitude=-6.0),
    ),
    seed=7,
)
matrix, truth, split_spec = generate(config)
train = matrix.slice_time(0, split_spec.train_end)
test = matrix.slice_time(split_spec.train_end, matrix.n_times)
print(f"dataset: {matrix.n_vars} variables, {t_train} train / {t_test} test points")

# ---------------------------------------------------------------------------
# Fit: light median smoothing, VIF pruning at 5, MVT threshold.
model, info = fit_detector(
    train,
    smooth=SmoothConfig(h=3, kind="median"),
    vif_threshold=5.0,
    threshold=ThresholdSpec(kind="mvt"),
)
removed = [matrix.names[i] for i, _ in model.vif_trace]
print(f"pruned {len(removed)} collinear variables: {removed}")
# each exact-copy group loses members until one representative remains;
# ties in the (infinite) VIFs are broken toward the lowest index
print(f"retained {len(model.retained)}, threshold k = {model.k:.3f}")

# ---------------------------------------------------------------------------
# Score the held-out half and compare flags against the planted truth.
result, _ = apply_detector(model, test)
flags = result.flags
print(f"{flags.sum()} flagged points out of {flags.size}")

# smoothing shortens the series; align the truth labels the same way
aligned_truth = truth[t_train:][model.smooth.h - 1:]
clusters = extract_clusters(aligned_truth, min_length=50)
print(f"planted clusters (aligned): "
      f"{[(c.start, c.end) for c in clusters]}")
print(f"cluster recall (RIC): {ric(flags, clusters):.2f}")

# where did the flags land?
flagged = np.flatnonzero(flags)
print(f"flag positions span {flagged.min()}..{flagged.max()}")
