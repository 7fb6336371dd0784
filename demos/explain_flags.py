"""Rank the variables behind a flagged window, two ways.

A detector tells you WHEN something went wrong; the explanation step tells
you WHICH variables drove it.  Both rankings below should put the planted
variables first: the forest by Gini importance, the logistic model by
drop in classification power when a variable is withheld.

    python3 demos/explain_flags.py
"""

from madkit import (
    AnomalySpec,
    PipelineConfig,
    SynthConfig,
    ThresholdSpec,
    generate,
    run_detect,
    run_explain,
)

# two variables misbehave for 150 samples in the test half
t_train = 20000
config = SynthConfig(
    n=10,
    t_train=t_train,
    t_test=4000,
    anomalies=(
        AnomalySpec(start=t_train + 1500, length=150,
                    variables=(3, 7), magnitude=6.0),
    ),
    seed=11,
)
matrix, truth, split_spec = generate(config)
train = matrix.slice_time(0, split_spec.train_end)
test = matrix.slice_time(split_spec.train_end, matrix.n_times)

cfg = PipelineConfig(
    train=train,
    test=test,
    threshold=ThresholdSpec(kind="pot", q=1e-3, percentile=0.99),
    importance="both",           # random forest AND logistic ranking
    step5_window=(1400, 1800),   # examine the region around the flags
    rf_trees=100,
    rf_seed=0,
)
model, result, report = run_detect(cfg)
print(f"{result.flags.sum()} flags in the test half")

# run_explain fits and flags as run_detect does; passing the model skips the refit
reports = run_explain(cfg, model)
for imp in reports:
    ranked = ", ".join(f"{name}={score:.2e}" for name, score in imp.ranking[:4])
    print(f"{imp.method:8s} top 4: {ranked}")

# variable indices 3 and 7 carry the shift; names are 1-based, so v4 and v8.
# Note the logistic scores: because the pair is redundant (either variable
# separates the classes alone), withholding one barely hurts, so both get
# small but still top-ranked drops.
for imp in reports:
    hit = set(imp.top(2)) == {"v4", "v8"}
    print(f"{imp.method:8s} recovers the planted pair: {hit}")
