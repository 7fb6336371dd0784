"""Acceptance gate: one test per release criterion, at stated tolerances.

Each test prints a single ``criterion N PASS`` line (visible with -rA or on
failure) in addition to the usual per-test verdict from -v.
"""

import math
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from madkit.collinearity import center, compute_vifs, vif_prune
from madkit.data import SeriesMatrix, load_headerless, split
from madkit.importance import rcde, gini_importance, train_forest
from madkit.metrics import confusion, extract_clusters, f1, mcc, precision, recall, ric
from madkit.pipeline import PipelineConfig, apply_detector, fit_detector, run_detect
from madkit.scoring import eigen_basis, fit_scatter, score, score_all
from madkit.smoothing import SmoothConfig, align_labels
from madkit.synthetic import AnomalySpec, CollinearGroup, SynthConfig, generate
from madkit.thresholds import ThresholdSpec, fit_gpd, flag, mvt_threshold, pot_threshold
from madkit.importance import ExplainDataset

from calibrate import calibrate
from oracles import brute_clusters, brute_point_metrics, gpd_sample, time_over_calibration

# criterion 6's ceiling on library time over calibration time.  On a 2-vCPU
# VM the vectorised metrics read 8.7-11.5 and the per-element ones before
# them 27-39, so the ceiling has a margin of 1.5x on both sides.
METRICS_CALIBRATION_RATIO = 18.0
# criterion 9's ceiling on fit + score time over calibration time.  On the
# same VM, 14 runs read 0.92-1.58, so the ceiling is 1.5x the highest;
# scoring column by column with ``score`` instead of ``score_all`` reads 11-15
FIT_SCORE_CALIBRATION_RATIO = 2.4


def report(n, detail):
    print(f"criterion {n} PASS: {detail}")


def test_criterion_01_eigen_and_solve_paths_agree():
    """200 seeded SPD problems, m <= 20: eigen-path MD^2 vs solve-path MD^2
    within 1e-8 relative; under 5 s."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        m = int(rng.integers(1, 21))
        a = rng.standard_normal((m, 3 * m + int(rng.integers(1, 40))))
        centered, _ = center(a)
        fit = fit_scatter(centered)
        basis = eigen_basis(fit)
        x = rng.standard_normal(m) * float(rng.uniform(0.1, 10.0))
        md2_solve = score(fit, x) ** 2
        xi = basis.vectors.T @ x
        md2_eigen = float((xi * xi / basis.eigenvalues).sum())
        rel = abs(md2_eigen - md2_solve) / max(md2_solve, 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-8, (trial, m, rel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"200 SPD problems, worst relative gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_mvt_never_flags_training_data():
    """Flagging any training set against its own MVT threshold yields zero
    flags."""
    rng = np.random.default_rng(102)
    checked = 0
    for _ in range(100):
        m = int(rng.integers(1, 10))
        t = int(rng.integers(m + 1, 2000))
        centered, _ = center(rng.standard_normal((m, t)))
        fit = fit_scatter(centered)
        scores = score_all(fit, centered)
        k = mvt_threshold(scores)
        assert flag(scores, k).sum() == 0
        checked += 1
    report(2, f"{checked} random training sets, zero self-flags")


def test_criterion_03_gpd_mle_recovery():
    """1e5 inverse-CDF draws at four (gamma, delta) pairs recovered within
    |dgamma| <= 0.02 and |ddelta| <= 0.05 delta; under 10 s total."""
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    results = []
    for gamma, delta in ((-0.2, 1.0), (0.0, 2.0), (0.2, 1.0), (0.5, 0.5)):
        y = gpd_sample(rng, gamma, delta, 100000)
        est = fit_gpd(y)
        assert abs(est.gamma - gamma) <= 0.02, (gamma, delta, est.gamma)
        assert abs(est.delta - delta) <= 0.05 * delta, (gamma, delta, est.delta)
        results.append(f"({gamma},{delta})->({est.gamma:.3f},{est.delta:.3f})")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, f"{'; '.join(results)}, {elapsed:.2f}s")


def test_criterion_04_pot_calibration():
    """POT threshold fitted on 1e5 draws flags an independent 1e6 holdout
    at a rate within [q/3, 3q] for q = 0.001; under 30 s."""
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    q = 0.001
    spec = ThresholdSpec(kind="pot", q=q, percentile=0.99)
    rates = []
    for name, draw in (
        ("abs-t4", lambda size: np.abs(rng.standard_t(df=4, size=size))),
        ("lognormal", lambda size: rng.lognormal(0.0, 1.0, size=size)),
    ):
        train = draw(100000)
        k, _ = pot_threshold(train, spec)
        holdout = draw(1000000)
        rate = float((holdout > k).mean())
        assert q / 3 <= rate <= 3 * q, (name, rate)
        rates.append(f"{name} {rate:.5f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, f"exceedance rates {', '.join(rates)} vs q={q}, {elapsed:.2f}s")


def test_criterion_05_vif_pruning_guarantee():
    """After pruning at threshold 5, the recomputed max VIF is below 5 and
    the scatter factorization succeeds, over 50 seeded configs including
    exact linear dependencies; under 20 s."""
    rng = np.random.default_rng(105)
    t0 = time.perf_counter()
    exact_cases = 0
    for trial in range(50):
        n = int(rng.integers(3, 26))
        t = int(rng.integers(4 * n + 10, 600))
        x = rng.standard_normal((n, t))
        # correlate a few pairs
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.choice(n, size=2, replace=False)
            x[i] = 0.9 * x[j] + 0.4 * rng.standard_normal(t)
        # exact dependencies in most trials
        n_exact = int(rng.integers(0, max(2, n // 4) + 1))
        for _ in range(n_exact):
            target = int(rng.integers(0, n))
            sources = rng.choice(
                [v for v in range(n) if v != target],
                size=min(2, n - 1),
                replace=False,
            )
            weights = rng.uniform(0.5, 2.0, size=sources.size)
            x[target] = (weights[:, None] * x[sources]).sum(axis=0)
        exact_cases += n_exact > 0

        x = x + rng.uniform(-5, 5, size=(n, 1))
        report_vif = vif_prune(x, vif_threshold=5.0)
        kept = x[report_vif.retained]
        centered, _ = center(kept)
        if len(report_vif.retained) >= 2:
            fresh = compute_vifs(centered)
            assert fresh.max() < 5.0, (trial, fresh.max())
        fit = fit_scatter(centered)  # factorization must succeed
        assert fit.m == len(report_vif.retained)
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    assert exact_cases >= 25  # the mix really did include exact dependence
    report(
        5,
        f"50 configs ({exact_cases} with exact dependencies), "
        f"all factorized, {elapsed:.2f}s",
    )


def test_criterion_06_metric_oracle_equivalence():
    """Prec/Recall/F1/MCC/RIC equal a brute-force reference on 1000 seeded
    label pairs of length 1e4; the madkit metric calls take under 10 s,
    and under ``METRICS_CALIBRATION_RATIO`` times the machine's current
    calibration time (``perfbench/calibrate.py``), which scales with the
    machine's speed where the fixed budget does not.

    Only the library calls are timed: the stdlib oracle is several seconds
    of pure-Python work that no change to madkit can speed up."""
    rng = np.random.default_rng(106)
    library_s = 0.0
    n = 10000
    for trial in range(1000):
        p_rate = float(rng.uniform(0.001, 0.5))
        t_rate = float(rng.uniform(0.001, 0.5))
        pred = (rng.random(n) < p_rate).astype(np.int8)
        truth = (rng.random(n) < t_rate).astype(np.int8)

        t0 = time.perf_counter()
        c = confusion(pred, truth)
        got_prec, got_rec, got_f1, got_mcc = precision(c), recall(c), f1(c), mcc(c)
        library_s += time.perf_counter() - t0
        tp, fp, tn, fn, prec, rec, f1v, mccv = brute_point_metrics(
            pred.tolist(), truth.tolist()
        )
        assert (c.tp, c.fp, c.tn, c.fn) == (tp, fp, tn, fn)
        assert got_prec == prec
        assert got_rec == rec
        assert got_f1 == f1v
        assert abs(got_mcc - mccv) < 1e-15

        t0 = time.perf_counter()
        clusters = extract_clusters(truth)
        library_s += time.perf_counter() - t0
        runs = brute_clusters(truth.tolist())
        assert [(cl.start, cl.end) for cl in clusters] == runs
        if runs:
            pred_list = pred.tolist()
            covered = sum(1 for s, e in runs if any(pred_list[s : e + 1]))
            t0 = time.perf_counter()
            ric_value = ric(pred, clusters)
            library_s += time.perf_counter() - t0
            assert ric_value == covered / len(runs)
    calibration_s = statistics.median(calibrate() for _ in range(3))
    ratio = library_s / calibration_s
    assert library_s < 10.0, f"{library_s:.2f}s in madkit metrics"
    assert ratio < METRICS_CALIBRATION_RATIO, (
        f"{library_s:.2f}s in madkit metrics is {ratio:.2f}x "
        f"the {calibration_s:.3f}s calibration"
    )
    report(
        6,
        f"1000 pairs x {n} points, exact agreement, "
        f"{library_s:.2f}s in madkit metrics, {ratio:.2f}x calibration",
    )


def test_criterion_07_synthetic_end_to_end():
    """Desk-scale end-to-end: n=20 with 5 exactly collinear variables,
    T_train=5e4, T_test=1e4, three 6-sigma anomalies of length >= 100.
    h=1 with MVT and POT reaches RIC 1.0 and precision >= 0.9 on the
    anomaly-bearing segment; h=10 suppresses added 1-sample spikes to zero
    flags; under 60 s."""
    t0 = time.perf_counter()
    t_train, t_test = 50000, 10000
    anomalies = (
        AnomalySpec(start=t_train + 1000, length=150, variables=(2, 7), magnitude=6.0),
        AnomalySpec(start=t_train + 4000, length=100, variables=(11,), magnitude=-6.0),
        AnomalySpec(
            start=t_train + 7500, length=200, variables=(5, 13, 18), magnitude=6.0
        ),
    )
    groups = (
        CollinearGroup(base=0, dependents=(4, 9)),
        CollinearGroup(base=1, dependents=(6, 14, 17)),
    )
    cfg = SynthConfig(
        n=20,
        t_train=t_train,
        t_test=t_test,
        collinear_groups=groups,
        anomalies=anomalies,
        seed=107,
    )
    matrix, truth, train_end = generate(cfg)
    train, test = split(matrix, train_end)
    truth_test = truth[t_train:]
    clusters = extract_clusters(truth_test, min_length=100)
    assert len(clusters) == 3
    segment = (clusters[0].start, clusters[-1].end + 1)

    details = []
    for kind in ("mvt", "pot"):
        model, _ = fit_detector(
            train, threshold=ThresholdSpec(kind=kind, q=0.001, percentile=0.99)
        )
        assert len(model.retained) == 15  # the 5 exact dependents pruned
        result, _ = apply_detector(model, test)
        flags = result.flags
        assert ric(flags, clusters) == 1.0, kind
        seg_pred = flags[segment[0] : segment[1]]
        seg_truth = truth_test[segment[0] : segment[1]]
        prec = precision(confusion(seg_pred, seg_truth))
        assert prec >= 0.9, (kind, prec)
        details.append(f"{kind}: RIC 1.0, segment precision {prec:.3f}")

    # plant strong 1-sample spikes on top of the same series, clear of the
    # long anomalies so any flag near a spike is attributable to the spike
    rng = np.random.default_rng(1070)
    spiked = matrix.values.copy()
    train_std = spiked[:, :t_train].std(axis=1)
    candidates = np.ones(t_test, dtype=bool)
    candidates[:100] = candidates[-100:] = False
    for a in anomalies:
        s = a.start - t_train
        candidates[max(0, s - 30) : s + a.length + 30] = False
    spike_positions = sorted(
        t_train + int(p) for p in rng.choice(np.flatnonzero(candidates), 10)
    )
    for pos in spike_positions:
        v = int(rng.integers(0, 20))
        spiked[v, pos] += 8.0 * train_std[v]
    spiked_matrix = SeriesMatrix(names=matrix.names, values=spiked)
    sp_train = spiked_matrix.slice_time(0, t_train)
    sp_test = spiked_matrix.slice_time(t_train, t_train + t_test)

    # precondition: without smoothing the spikes do get flagged
    model1, _ = fit_detector(sp_train)
    res1, _ = apply_detector(model1, sp_test)
    spike_local = [p - t_train for p in spike_positions]
    assert res1.flags[spike_local].sum() > 0

    # h=10 median smoothing: no flag within any spike's window span
    model10, _ = fit_detector(sp_train, smooth=SmoothConfig(h=10, kind="median"))
    res10, _ = apply_detector(model10, sp_test)
    flags10 = res10.flags
    hits = 0
    for p in spike_local:
        # score index i summarizes raw window [i, i + h - 1]
        lo = max(0, p - 9)
        hi = min(flags10.size, p + 1)
        hits += int(flags10[lo:hi].sum())
    assert hits == 0
    # the long-lived anomalies survive the smoothing
    aligned_truth = align_labels(truth_test, 10)
    clusters10 = extract_clusters(aligned_truth, min_length=50)
    assert ric(flags10, clusters10) == 1.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(7, f"{'; '.join(details)}; h=10 spike flags 0, {elapsed:.1f}s")


SMD_DIR = Path(os.environ.get("SMD_DIR", "data/ServerMachineDataset"))
_SMD_FILES = [
    SMD_DIR / "train" / "machine-1-1.txt",
    SMD_DIR / "test" / "machine-1-1.txt",
    SMD_DIR / "test_label" / "machine-1-1.txt",
]


@pytest.mark.skipif(
    not all(p.exists() for p in _SMD_FILES),
    reason="public server-machine dataset not present",
)
def test_criterion_08_smd_machine_1_1():
    """SMD machine-1-1: h=1 POT finds every long-lived anomaly (RIC 1.0);
    variable rankings recover >= 70% of labeled causes when the
    interpretation file is available; under 5 min."""
    t0 = time.perf_counter()
    train = load_headerless(_SMD_FILES[0])
    test = load_headerless(_SMD_FILES[1])
    labels = np.array(
        [int(float(s)) for s in _SMD_FILES[2].read_text().split()], dtype=np.int8
    )
    assert labels.size == test.n_times

    cfg = PipelineConfig(
        train=train,
        test=test,
        threshold=ThresholdSpec(kind="pot", q=0.001, percentile=0.99),
    )
    model, result, _ = run_detect(cfg)
    clusters = extract_clusters(labels, min_length=100)
    assert len(clusters) == 5
    assert ric(result.flags, clusters) == 1.0

    interp = SMD_DIR / "interpretation_label" / "machine-1-1.txt"
    cause_note = "no interpretation file"
    if interp.exists():
        from madkit.pipeline import PipelineError, run_explain

        recovered = []
        for line in interp.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            span, causes = line.split(":")
            start, end = (int(v) for v in span.split("-"))
            # causes are 1-based, matching the loader's v1..vn names
            cause_vars = {f"v{int(c)}" for c in causes.split(",")}
            window_cfg = PipelineConfig(
                train=train,
                test=test,
                threshold=cfg.threshold,
                step5_window=(start, min(end + 1, test.n_times)),
                importance="both",
            )
            try:
                reports = run_explain(window_cfg, model)
            except PipelineError:
                continue
            v = max(len(cause_vars), 5)
            for rep in reports:
                top = set(rep.top(v))
                recovered.append(len(top & cause_vars) / len(cause_vars))
        assert recovered, "no interpretable window produced a ranking"
        mean_recovery = float(np.mean(recovered))
        assert mean_recovery >= 0.70
        cause_note = f"cause recovery {mean_recovery:.2f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(8, f"RIC 1.0 over 5 clusters; {cause_note}; {elapsed:.1f}s")


def test_criterion_09_throughput_and_linear_scaling():
    """Fit plus score of a 1e5 x 40 dataset within 5 s, and under
    ``FIT_SCORE_CALIBRATION_RATIO`` times the machine's current calibration
    time (``oracles.time_over_calibration``); scoring time is linear in T
    (R^2 > 0.99 over a three-point sweep, best of 3)."""
    rng = np.random.default_rng(109)
    values = rng.standard_normal((40, 100000))
    big = SeriesMatrix(names=[f"x{i}" for i in range(40)], values=values)

    result, fit_plus_score, ratio = time_over_calibration(
        lambda: apply_detector(fit_detector(big)[0], big)[0]
    )
    assert result.scores.size == 100000
    assert fit_plus_score <= 5.0
    assert ratio < FIT_SCORE_CALIBRATION_RATIO, (
        f"fit+score {fit_plus_score:.2f}s is {ratio:.2f}x calibration"
    )

    # scoring-only sweep at m=20
    m = 20
    a = rng.standard_normal((m, 4000))
    fit = fit_scatter(a - a.mean(axis=1, keepdims=True))
    sweeps = [10000, 100000, 1000000]
    times = []
    for t in sweeps:
        data = rng.standard_normal((m, t))
        best = math.inf
        for _ in range(3):
            s0 = time.perf_counter()
            score_all(fit, data)
            best = min(best, time.perf_counter() - s0)
        times.append(best)
        del data
    x = np.array(sweeps, dtype=np.float64)
    y = np.array(times)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    assert r2 > 0.99, (times, r2)
    report(
        9,
        f"fit+score 1e5x40 in {fit_plus_score:.2f}s, {ratio:.2f}x calibration; "
        f"sweep times {['%.4f' % t for t in times]}, R^2 {r2:.5f}",
    )


def test_criterion_10_importance_sanity():
    """Pure-noise targets never concentrate RF importance (max <= 3x the
    median across 20 seeds), and a single-predictor logistic model has
    RCDE exactly 1."""
    n, p = 300, 10
    totals = np.zeros(p)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal((n, p))
        y = np.zeros(n, dtype=int)
        y[: n // 2] = 1
        y = y[rng.permutation(n)]
        ds = ExplainDataset(
            features=x,
            targets=y,
            feature_names=[f"f{i}" for i in range(p)],
        )
        forest = train_forest(ds, n_trees=50, seed=seed)
        scores = dict(gini_importance(forest, ds).ranking)
        totals += np.array([scores[f"f{i}"] for i in range(p)])
    mean_importance = totals / 20
    ratio = mean_importance.max() / np.median(mean_importance)
    assert ratio <= 3.0, ratio

    rng = np.random.default_rng(1100)
    x = rng.standard_normal((200, 1))
    y = (x[:, 0] + 0.5 * rng.standard_normal(200) > 0).astype(int)
    ds = ExplainDataset(
        features=x,
        targets=y,
        feature_names=["f0"],
    )
    single = rcde(ds).ranking[0][1]
    assert single == 1.0
    report(
        10,
        f"noise importance max/median {ratio:.2f} (<= 3); "
        f"single-predictor RCDE == {single}",
    )
