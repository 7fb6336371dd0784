"""End-to-end pipeline runs, reports, and the command-line interface."""

import csv
import io
import json
import math
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from madkit import cli as cli_module
from madkit import data as data_module
from madkit.cli import _build_parser, _merge_config, _pipeline_config, main
from madkit.data import (
    ModelFormatError,
    SeriesMatrix,
    _read_labels_rows,
    load_csv,
    load_model,
    save_csv,
    save_model,
    split,
)
from madkit.metrics import ClusterColumns
from madkit.pipeline import (
    EXIT_CODES,
    STEP_ORDER,
    PipelineConfig,
    PipelineError,
    apply_detector,
    fit_detector,
    report_core,
    run_detect,
    run_evaluate,
    run_explain,
)
from madkit.scoring import _SOLVE_COLUMNS
from madkit.smoothing import SmoothConfig, align_labels, smooth_matrix
from madkit.synthetic import AnomalySpec, CollinearGroup, SynthConfig, generate
from madkit.thresholds import ThresholdSpec, flag
from test_scoring import full_z_scores


def corpus(seed=0, n=6, t_train=3000, t_test=800, anomalies=None, groups=()):
    if anomalies is None:
        anomalies = (
            AnomalySpec(
                start=t_train + 200, length=120, variables=(1, 3), magnitude=6.0
            ),
        )
    cfg = SynthConfig(
        n=n,
        t_train=t_train,
        t_test=t_test,
        collinear_groups=groups,
        anomalies=anomalies,
        seed=seed,
    )
    matrix, truth, train_end = generate(cfg)
    train, test = split(matrix, train_end)
    return train, test, truth


# ---------------------------------------------------------------------------
# library-level pipeline


def test_fit_detector_structure():
    train, _, _ = corpus(groups=(CollinearGroup(base=0, dependents=(4,)),))
    model, info = fit_detector(train, vif_threshold=5.0)
    assert model.n_original == 6
    assert len(model.retained) == 5
    assert [i for i, _ in model.vif_trace] == [r[0] for r in info["vif"]["removed"]]
    assert info["train_scores"]["count"] == train.n_times
    assert set(info["timing"]) == {
        "smooth", "vif_prune", "fit_scatter", "score", "threshold",
    }


def test_training_data_never_flags_itself_under_mvt():
    train, _, _ = corpus(seed=1)
    model, _ = fit_detector(train, threshold=ThresholdSpec(kind="mvt"))
    result, _ = apply_detector(model, train)
    assert result.flags.sum() == 0


def test_detect_finds_planted_anomaly():
    train, test, truth = corpus(seed=2)
    model, _ = fit_detector(train)
    result, _ = apply_detector(model, test)
    flagged = np.flatnonzero(result.flags)
    window = np.flatnonzero(truth[3000:])
    assert flagged.size > 0
    assert np.isin(flagged, window).mean() > 0.9


def test_apply_detector_checks_variable_count():
    train, test, _ = corpus(seed=3)
    model, _ = fit_detector(train)
    with pytest.raises(PipelineError) as err:
        apply_detector(model, SeriesMatrix(test.names[:3], test.values[:3]))
    assert err.value.stage == "score"
    assert err.value.exit_code == EXIT_CODES["score"]


def test_pipeline_error_stages_and_codes():
    rng = np.random.default_rng(4)
    from madkit.data import SeriesMatrix

    flat = SeriesMatrix(
        names=["a", "b"],
        values=np.vstack([np.ones(50), rng.standard_normal(50)]),
    )
    with pytest.raises(PipelineError) as err:
        fit_detector(flat)
    assert err.value.stage == "collinearity"
    assert err.value.exit_code == EXIT_CODES["collinearity"]

    short = SeriesMatrix(names=["a"], values=rng.standard_normal((1, 5)))
    with pytest.raises(PipelineError) as err:
        fit_detector(short, smooth=SmoothConfig(h=10))
    assert err.value.stage == "smooth"

    few = SeriesMatrix(names=["a", "b"], values=rng.standard_normal((2, 30)))
    with pytest.raises(PipelineError) as err:
        fit_detector(few, threshold=ThresholdSpec(kind="pot"))
    assert err.value.stage == "threshold"


def test_run_detect_report_shape():
    train, test, _ = corpus(seed=5)
    cfg = PipelineConfig(train=train, test=test)
    model, result, report = run_detect(cfg)
    assert report["steps"] == list(STEP_ORDER)
    assert report["tool"]["name"] == "madkit"
    assert report["detection"]["n_scores"] == result.scores.size
    assert report["detection"]["n_flags"] == int(result.flags.sum())
    assert report["threshold"]["kind"] == "mvt"
    assert report["threshold"]["k"] == model.k
    assert "fit_seconds" in report["timing"]
    assert list(report["timing"]["per_step"]["score"]) == ["smooth", "score", "flag"]
    json.dumps(report)  # must be JSON-serializable as-is


def test_run_detect_deterministic_modulo_timing():
    train, test, _ = corpus(seed=6)
    cfg = PipelineConfig(train=train, test=test)
    _, _, r1 = run_detect(cfg)
    _, _, r2 = run_detect(cfg)
    assert json.dumps(report_core(r1), sort_keys=True) == json.dumps(
        report_core(r2), sort_keys=True
    )
    assert "timing" not in report_core(r1)


def test_run_detect_smoothing_shifts_time_offset():
    train, test, _ = corpus(seed=7)
    cfg = PipelineConfig(train=train, test=test, smooth=SmoothConfig(h=5))
    _, result, report = run_detect(cfg)
    assert result.time_offset == 4
    assert result.scores.size == test.n_times - 4
    assert report["detection"]["time_offset"] == 4


def test_run_detect_pot_produces_gpd_block():
    train, test, _ = corpus(seed=8, t_train=20000)
    cfg = PipelineConfig(
        train=train,
        test=test,
        threshold=ThresholdSpec(kind="pot", q=0.001, percentile=0.99),
    )
    model, _, report = run_detect(cfg)
    assert model.gpd is not None
    g = report["threshold"]["gpd"]
    assert g["t_total"] == train.n_times
    assert g["delta"] > 0
    assert report["threshold"]["k"] > g["l"]


def test_run_explain_ranks_planted_variables():
    anomalies = (
        AnomalySpec(start=3200, length=150, variables=(2, 4), magnitude=7.0),
    )
    train, test, _ = corpus(seed=9, anomalies=anomalies)
    cfg = PipelineConfig(train=train, test=test, importance="both", rf_trees=60)
    _, result, _ = run_detect(cfg)
    assert result.flags.sum() > 0
    reports = run_explain(cfg)
    assert [r.method for r in reports] == ["rf-gini", "lr-rcde"]
    for rep in reports:
        top = rep.top(3)
        assert "v3" in top
        assert "v5" in top


@pytest.mark.parametrize("features", ["raw", "smoothed"])
@pytest.mark.parametrize("kind", ["median", "mean"])
@pytest.mark.parametrize("given_model", [False, True], ids=["fit", "model"])
def test_run_explain_raw_features_are_window_end_columns(
    monkeypatch, features, kind, given_model
):
    # step5_features="raw" pairs smoothed position j with raw column
    # j + h - 1, the end of its smoothing window; "smoothed" uses the
    # smoothed blocks themselves, here smoothed again as the oracle
    train, test, _ = corpus(seed=11, t_train=1000, t_test=400)
    h, window, n_extra = 5, (150, 250), 50
    cfg = PipelineConfig(
        train=train, test=test, smooth=SmoothConfig(h=h, kind=kind),
        rf_trees=3, step5_features=features, step5_window=window,
        step5_extra=n_extra,
    )
    model, result, _ = run_detect(cfg)
    if features == "raw":
        feat_test = test.values[:, h - 1 :]
        feat_train = train.values[:, h - 1 :]
    else:
        feat_test = smooth_matrix(test, cfg.smooth).values
        feat_train = smooth_matrix(train, cfg.smooth).values
    import madkit.pipeline

    datasets = []
    assemble = madkit.pipeline.assemble_explain_dataset

    def recorded(*args, **kwargs):
        datasets.append(assemble(*args, **kwargs))
        return datasets[-1]

    monkeypatch.setattr(madkit.pipeline, "assemble_explain_dataset", recorded)
    run_explain(cfg, model if given_model else None)
    (ds,) = datasets
    start, stop = window
    rows = stop - start
    assert ds.n_rows == rows + n_extra
    assert np.array_equal(ds.features[:rows], feat_test[:, start:stop].T)
    assert np.array_equal(ds.targets[:rows], result.flags[start:stop])
    assert 0 < ds.targets.sum() < rows
    assert np.array_equal(ds.features[rows:], feat_train[:, -n_extra:].T)
    assert not ds.targets[rows:].any()


@pytest.mark.parametrize(
    "features, given_model, calls",
    [
        ("smoothed", False, 2),
        ("smoothed", True, 2),
        ("raw", False, 2),
        ("raw", True, 1),
    ],
    ids=["default", "model", "raw", "raw-model"],
)
def test_run_explain_smooths_each_block_once(
    monkeypatch, features, given_model, calls
):
    train, test, _ = corpus(seed=11, t_train=1000, t_test=400)
    cfg = PipelineConfig(
        train=train, test=test, smooth=SmoothConfig(h=5), rf_trees=3,
        step5_features=features, step5_window=(150, 250), step5_extra=50,
    )
    model, _ = fit_detector(train, cfg.smooth)
    import madkit.pipeline

    smoothed = []
    smooth = madkit.pipeline.smooth_matrix

    def counted(*args, **kwargs):
        smoothed.append(1)
        return smooth(*args, **kwargs)

    monkeypatch.setattr(madkit.pipeline, "smooth_matrix", counted)
    run_explain(cfg, model if given_model else None)
    assert len(smoothed) == calls


@pytest.mark.parametrize("kind, h", [("median", 5), ("mean", 1), ("median", 20)])
@pytest.mark.parametrize("n_extra", [0, 50, 5000])
def test_run_explain_with_a_model_smooths_only_the_train_tail(
    monkeypatch, kind, h, n_extra
):
    # each smoothed column is its own window of h raw ones, so the rows
    # step 5 reads need only the last n_extra + h - 1 train columns (h at
    # least, and the whole block when that is shorter)
    train, test, _ = corpus(seed=11, t_train=1000, t_test=400)
    cfg = PipelineConfig(
        train=train, test=test, smooth=SmoothConfig(h=h, kind=kind), rf_trees=3,
        step5_window=(150, 250), step5_extra=n_extra,
    )
    model, _ = fit_detector(train, cfg.smooth)
    import madkit.pipeline

    seen = []
    smooth = madkit.pipeline.smooth_matrix

    def recorded(matrix, config):
        seen.append(matrix)
        return smooth(matrix, config)

    monkeypatch.setattr(madkit.pipeline, "smooth_matrix", recorded)
    run_explain(cfg, model)
    tail = seen[-1]
    columns = min(max(n_extra, 1) + h - 1, train.n_times)
    assert tail.n_times == columns
    assert np.array_equal(tail.values, train.values[:, -columns:])


def test_run_explain_zero_flag_window_fails():
    train, test, _ = corpus(seed=10, anomalies=())
    cfg = PipelineConfig(train=train, test=test, step5_window=(0, 50))
    _, result, _ = run_detect(cfg)
    assert result.flags[:50].sum() == 0
    with pytest.raises(PipelineError) as err:
        run_explain(cfg)
    assert err.value.stage == "explain"
    assert err.value.exit_code == EXIT_CODES["explain"]


def separation_corpus():
    """Train and test blocks on which some windows' logistic fits do not
    converge: at mvt with h = 4 the full fit fails."""
    anomalies = (
        AnomalySpec(start=3600, length=60, variables=(1, 2), magnitude=4.0),
        AnomalySpec(start=4200, length=30, variables=(6,), magnitude=-5.0),
    )
    groups = (CollinearGroup(base=0, dependents=(3, 5), noise_scale=0.01),)
    train, test, _ = corpus(
        seed=3, n=8, t_train=3000, t_test=1500, anomalies=anomalies,
        groups=groups,
    )
    return train, test


def test_run_explain_both_fails_before_growing_a_forest(monkeypatch):
    # the logistic fit does not converge on this window (separation);
    # "both" must not grow a forest only to throw its ranking away
    train, test = separation_corpus()
    cfg = PipelineConfig(
        train=train, test=test, smooth=SmoothConfig(h=4),
        threshold=ThresholdSpec(kind="mvt"), importance="both", rf_trees=10,
    )
    import madkit.pipeline

    calls = []
    grow = madkit.pipeline.train_forest

    def counted(*args, **kwargs):
        calls.append(1)
        return grow(*args, **kwargs)

    monkeypatch.setattr(madkit.pipeline, "train_forest", counted)
    with pytest.raises(PipelineError) as err:
        run_explain(cfg)
    assert err.value.stage == "explain"
    assert "--importance rf" in str(err.value.cause)
    assert calls == []


def test_run_evaluate_blocks():
    pred = np.array([1, 1, 0, 0, 0, 0])
    truth = np.array([1, 0, 1, 1, 1, 0])
    block = run_evaluate(pred, truth)
    assert block["counts"] == {"tp": 1, "fp": 1, "tn": 1, "fn": 3}
    assert block["precision"] == 0.5
    assert block["recall"] == 0.25
    assert abs(block["f1"] - 1.0 / 3.0) < 1e-12
    assert [c._asdict() for c in block["clusters"]] == [
        {"start": 0, "end": 0, "length": 1},
        {"start": 2, "end": 4, "length": 3},
    ]
    assert block["ric"] == 0.5


def test_run_evaluate_all_zero_prediction():
    truth = np.array([0, 1, 1, 0, 1])
    block = run_evaluate(np.zeros(5, dtype=int), truth)
    assert block["ric"] == 0.0
    assert block["mcc"] == 0.0
    assert block["recall"] == 0.0


def test_run_evaluate_without_clusters():
    block = run_evaluate(np.array([0, 1]), np.array([0, 0]))
    assert block["clusters"] == []
    assert block["ric"] is None


def test_model_reuse_matches_fresh_run(tmp_path):
    from madkit.data import save_model

    train, test, _ = corpus(seed=11)
    model, _ = fit_detector(train)
    path = tmp_path / "m.model"
    save_model(model, path)
    back = load_model(path)
    r1, _ = apply_detector(model, test)
    r2, _ = apply_detector(back, test)
    assert np.array_equal(r1.scores, r2.scores)
    assert np.array_equal(r1.flags, r2.flags)


def test_pipeline_config_validation(tmp_path):
    with pytest.raises(ValueError, match="step5_features"):
        PipelineConfig(train="a.csv", test="b.csv", step5_features="fourier")
    with pytest.raises(ValueError, match="importance"):
        PipelineConfig(train="a.csv", test="b.csv", importance="shap")

    # missing sources surface as configuration-stage pipeline errors
    with pytest.raises(PipelineError) as err:
        run_detect(PipelineConfig())
    assert err.value.stage == "config"
    assert err.value.exit_code == EXIT_CODES["config"]

    train, test, _ = corpus(seed=13, t_train=500, t_test=100, anomalies=())
    full = np.hstack([train.values, test.values])
    from madkit.data import SeriesMatrix

    matrix = SeriesMatrix(names=train.names, values=full)
    with pytest.raises(PipelineError) as err:
        run_detect(PipelineConfig(data=matrix))  # train_end missing
    assert err.value.stage == "config"

    # conflicting sources fail before any of them is read
    missing = tmp_path / "missing.csv"
    conflicts = {
        "not both": PipelineConfig(
            data=matrix, train_end=500, train=missing, test=missing
        ),
        "does not apply": PipelineConfig(train=train, test=test, train_end=100),
    }
    for message, cfg in conflicts.items():
        with pytest.raises(PipelineError) as err:
            run_detect(cfg)
        assert err.value.stage == "config"
        assert err.value.exit_code == EXIT_CODES["config"]
        assert message in str(err.value.cause)

    # an unreadable file inside the config stage stays an ingest error
    for cfg in (
        PipelineConfig(data=missing, train_end=10),
        PipelineConfig(train=missing, test=missing),
    ):
        with pytest.raises(PipelineError) as err:
            run_detect(cfg)
        assert err.value.stage == "ingest"
        assert isinstance(err.value.cause, OSError)


# ---------------------------------------------------------------------------
# command-line interface


def write_corpus(tmp_path, seed=0):
    train, test, truth = corpus(
        seed=seed, groups=(CollinearGroup(base=0, dependents=(5,)),)
    )
    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    truth_csv = tmp_path / "truth.csv"
    save_csv(train, train_csv)
    save_csv(test, test_csv)
    with open(truth_csv, "w", encoding="utf-8") as fh:
        fh.write("label\n")
        for v in truth[3000:]:
            fh.write(f"{int(v)}\n")
    return train_csv, test_csv, truth_csv


def test_cli_detect_writes_everything(tmp_path, capsys):
    train_csv, test_csv, _ = write_corpus(tmp_path)
    report_path = tmp_path / "report.json"
    scores_path = tmp_path / "scores.csv"
    intervals_path = tmp_path / "intervals.csv"
    model_path = tmp_path / "model.txt"
    code = main([
        "detect",
        "--train", str(train_csv),
        "--test", str(test_csv),
        "--out", str(report_path),
        "--scores-out", str(scores_path),
        "--intervals-out", str(intervals_path),
        "--model-out", str(model_path),
        "--summary",
    ])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["steps"] == list(STEP_ORDER)
    assert report["detection"]["n_flags"] > 0
    assert report["vif"]["removed"]  # the planted duplicate went away

    lines = scores_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "timestamp,score,flag"
    assert len(lines) == 1 + report["detection"]["n_scores"]

    intervals = intervals_path.read_text(encoding="utf-8").splitlines()
    assert intervals[0] == "start,end,length"
    assert len(intervals) == 1 + len(report["detection"]["flagged_intervals"])

    model = load_model(model_path)
    assert model.n_original == 6
    summary = capsys.readouterr().out
    assert "flagged" in summary


def test_cli_score_matches_detect(tmp_path):
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=1)
    model_path = tmp_path / "model.txt"
    scores_a = tmp_path / "a.csv"
    scores_b = tmp_path / "b.csv"
    assert main([
        "detect", "--train", str(train_csv), "--test", str(test_csv),
        "--model-out", str(model_path), "--scores-out", str(scores_a),
        "--out", str(tmp_path / "r.json"),
    ]) == 0
    assert main([
        "score", "--model", str(model_path), "--data", str(test_csv),
        "--out", str(scores_b),
    ]) == 0
    assert scores_a.read_text(encoding="utf-8") == scores_b.read_text(
        encoding="utf-8"
    )


def _insert_label_column(src, dst, labels, line=None):
    """Copy CSV ``src`` to ``dst`` with a column ``label`` of ``labels``
    second from the left and ``\\n`` line endings; ``line`` (the file's
    line number) gets the label ``2``."""
    cells = ["label", *map(str, labels)]
    if line is not None:
        cells[line - 1] = "2"
    rows = [row.split(",") for row in src.read_text(encoding="utf-8").splitlines()]
    for row, cell in zip(rows, cells, strict=True):
        row.insert(1, cell)
    dst.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")


def test_cli_label_column_is_checked_then_stripped(tmp_path, monkeypatch, capsys):
    # the same relative file names in two folders, so that the reports'
    # config blocks agree too
    train_csv, test_csv, truth_csv = write_corpus(tmp_path, seed=4)
    truth = np.loadtxt(truth_csv, skiprows=1, dtype=np.int8)
    train_labels = np.random.default_rng(4).integers(0, 2, 3000)
    plain, labelled = tmp_path / "plain", tmp_path / "labelled"
    for folder in (plain, labelled):
        folder.mkdir()
    (plain / "train.csv").write_bytes(train_csv.read_bytes())
    (plain / "test.csv").write_bytes(test_csv.read_bytes())
    _insert_label_column(train_csv, labelled / "train.csv", train_labels)
    _insert_label_column(test_csv, labelled / "test.csv", truth)
    outputs = ("report.json", "scores.csv", "intervals.csv", "model.txt",
               "explain.json", "score.csv")
    for folder, extra in ((plain, []), (labelled, ["--label-column", "label"])):
        monkeypatch.chdir(folder)
        data = ["--train", "train.csv", "--test", "test.csv", *extra]
        assert main([
            "detect", *data, "--out", "report.json", "--scores-out",
            "scores.csv", "--intervals-out", "intervals.csv",
            "--model-out", "model.txt",
        ]) == 0
        assert main([
            "explain", *data, "--importance", "both", "--rf-trees", "20",
            "--out", "explain.json",
        ]) == 0
        assert main([
            "score", "--model", "model.txt", "--data", "test.csv", *extra,
            "--out", "score.csv",
        ]) == 0
    for name in outputs:
        got, want = (labelled / name).read_bytes(), (plain / name).read_bytes()
        if name == "report.json":
            got, want = (
                json.dumps(report_core(json.loads(raw)), sort_keys=True)
                for raw in (got, want)
            )
        assert got == want, name
    # a label cell other than 0/1 fails in ingest, located in the file
    _insert_label_column(test_csv, labelled / "bad.csv", truth, line=7)
    monkeypatch.chdir(labelled)
    capsys.readouterr()
    assert main([
        "detect", "--train", "train.csv", "--test", "bad.csv",
        "--label-column", "label",
    ]) == EXIT_CODES["ingest"]
    assert capsys.readouterr().err == (
        "error [ingest]: bad.csv: line 7, column 'label': "
        "label must be '0' or '1', got '2'\n"
    )


def _scores_csv_oracle(fh, result):
    """The row-by-row csv.writer code that _write_scores_csv replaced."""
    writer = csv.writer(fh)
    writer.writerow(["timestamp", "score", "flag"])
    flags = result.flags
    for i, s in enumerate(result.scores):
        writer.writerow([i + result.time_offset, repr(float(s)), int(flags[i])])


def _scores_result(n_rows, seed=0):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(n_rows) ** 2 * 10.0 ** rng.integers(-3, 4, n_rows)
    scores[: min(n_rows, 3)] = [0.0, 1e-300, 1.2345678912e8][:n_rows]
    rng.shuffle(scores)
    flags = (scores > 5.0).astype(np.int8)
    return types.SimpleNamespace(scores=scores, flags=flags, time_offset=19)


def _csv_writer_bytes(header, rows) -> bytes:
    """What csv.writer writes for ``header`` and then ``rows``."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode()


def _scores_case(tmp_path, capsys, monkeypatch, n_rows, to):
    # 4,096 rows fill one formatting block; 4,097 spill into a second
    assert data_module._TABLE_CELLS // 3 == 4096
    result = _scores_result(n_rows)
    want = io.StringIO(newline="")
    _scores_csv_oracle(want, result)
    want = want.getvalue().encode()
    assert want.count(b"\r\n") == n_rows + 1
    for s in (b",0.0,", b",1e-300,", b",123456789.12,"):
        assert (s in want) == (n_rows > 1 or s == b",0.0,")
    if to == "file":
        path = tmp_path / "scores.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            cli_module._write_scores_csv(fh, result)
        return path.read_bytes(), want
    cli_module._write_scores_csv(sys.stdout, result)
    return capsys.readouterr().out.encode(), want


class _CountingFile(io.StringIO):
    """A text buffer that records the line count of each ``write``."""

    def __init__(self):
        super().__init__(newline="")
        self.lines = []

    def write(self, text):
        self.lines.append(text.count("\r\n"))
        return super().write(text)


def _table_case(tmp_path, capsys, monkeypatch, shape, to):
    # width - 1 float columns and an int8 one; rows around a block boundary
    width, blocks, extra = shape
    step = data_module._TABLE_CELLS // width
    assert step == {3: 4096, 39: 315}[width]
    n_rows = blocks * step + extra
    rng = np.random.default_rng(n_rows)
    floats = rng.standard_normal((width - 1, n_rows))
    floats *= 10.0 ** rng.integers(-320, 300, floats.shape)
    ints = rng.integers(0, 2, n_rows).astype(np.int8)
    header = [f"c{i}" for i in range(width)]
    fh = _CountingFile()
    data_module.write_table(fh, header, [*floats, ints])
    # the header row, then full blocks of step rows and the rest
    full, rest = divmod(n_rows, step)
    assert fh.lines == [1] + [step] * full + [rest] * (rest > 0)
    rows = [[*floats[:, r].tolist(), int(ints[r])] for r in range(n_rows)]
    return fh.getvalue().encode(), _csv_writer_bytes(header, rows)


def _save_csv_case(tmp_path, capsys, monkeypatch, arg, to):
    rng = np.random.default_rng(3)
    values = rng.standard_normal((38, 700)) * 10.0 ** rng.integers(-12, 13, (38, 700))
    values[0, :6] = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1]
    names = [f"v{i}" for i in range(37)] + ['a,"b"']
    path = tmp_path / "m.csv"
    save_csv(SeriesMatrix(names, values), path)
    return path.read_bytes(), _csv_writer_bytes(names, values.T.tolist())


def _intervals_case(tmp_path, capsys, monkeypatch, count, to):
    rng = np.random.default_rng(count)
    starts = np.sort(rng.integers(0, 2**62, count))
    lengths = rng.integers(1, 10**6, count)
    intervals = [
        {"start": s, "end": s + n - 1, "length": n}
        for s, n in zip(starts.tolist(), lengths.tolist())
    ]
    report = {"detection": {"flagged_intervals": intervals}}
    monkeypatch.setattr(cli_module, "run_detect", lambda cfg: (None, None, report))
    path = tmp_path / "intervals.csv"
    assert main([
        "detect", "--train", "unread.csv", "--test", "unread.csv",
        "--intervals-out", str(path), "--out", str(tmp_path / "report.json"),
    ]) == 0
    rows = [[iv["start"], iv["end"], iv["length"]] for iv in intervals]
    return path.read_bytes(), _csv_writer_bytes(["start", "end", "length"], rows)


def _truth_case(tmp_path, capsys, monkeypatch, seed, to):
    anomalies = (AnomalySpec(300, 40, (0,), 5.0), AnomalySpec(4000, 100, (1, 2), 5.0))
    config = SynthConfig(n=3, t_train=200, t_test=5000, anomalies=anomalies, seed=seed)
    prefix = tmp_path / "c"
    assert main([
        "synth", "--n", "3", "--t-train", "200", "--t-test", "5000",
        "--anomaly", "300:40:0:5.0", "--anomaly", "4000:100:1,2:5.0",
        "--seed", str(seed), "--out", str(prefix),
    ]) == 0
    _, truth, train_end = generate(config)
    rows = [[int(v)] for v in truth[train_end:]]
    return (tmp_path / "c_truth.csv").read_bytes(), _csv_writer_bytes(["label"], rows)


@pytest.mark.parametrize(
    "case, arg, to",
    [
        *(
            pytest.param(_scores_case, n, to, id=f"{n}-{to}")
            for n in (1, 4096, 4097)
            for to in ("file", "stdout")
        ),
        *(
            pytest.param(_table_case, (w, b, e), "file", id=f"table-{w}-{b}-{e}")
            for w in (3, 39)
            for b, e in ((0, 1), (1, -1), (1, 0), (1, 1), (2, 1))
        ),
        pytest.param(_save_csv_case, None, "file", id="save_csv-None"),
        *(
            pytest.param(_intervals_case, count, "file", id=f"intervals-{count}")
            for count in (0, 1, 5000)
        ),
        pytest.param(_truth_case, 4, "file", id="synth-truth"),
    ],
)
def test_write_scores_csv_matches_csv_writer(
    tmp_path, capsys, monkeypatch, case, arg, to
):
    # every CSV madkit writes, against csv.writer of the same rows
    got, want = case(tmp_path, capsys, monkeypatch, arg, to)
    assert got == want


def test_cli_score_writes_the_same_bytes_to_stdout_and_out(tmp_path, capsys):
    train, test, _ = corpus(seed=6, t_test=4100)
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    save_csv(train, train_csv)
    save_csv(test, test_csv)
    model_path, out = tmp_path / "model.txt", tmp_path / "scores.csv"
    assert main(["fit", "--train", str(train_csv), "--out", str(model_path),
                 "--smooth-window", "3"]) == 0
    capsys.readouterr()
    score = ["score", "--model", str(model_path), "--data", str(test_csv)]
    assert main(score) == 0
    stdout = capsys.readouterr().out.encode()
    assert main([*score, "--out", str(out)]) == 0
    result, _ = apply_detector(load_model(model_path), test)
    assert result.scores.size == 4098  # two blocks, the second of two rows
    want = io.StringIO(newline="")
    _scores_csv_oracle(want, result)
    assert stdout == out.read_bytes() == want.getvalue().encode()


def test_cli_fit_then_score(tmp_path, capsys):
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=2)
    model_path = tmp_path / "model.txt"
    assert main(["fit", "--train", str(train_csv), "--out", str(model_path)]) == 0
    assert "saved to" in capsys.readouterr().out
    assert main([
        "score", "--model", str(model_path), "--data", str(test_csv),
    ]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "timestamp,score,flag"


def test_cli_evaluate(tmp_path):
    train_csv, test_csv, truth_csv = write_corpus(tmp_path, seed=3)
    scores_path = tmp_path / "scores.csv"
    eval_path = tmp_path / "eval.json"
    assert main([
        "detect", "--train", str(train_csv), "--test", str(test_csv),
        "--scores-out", str(scores_path), "--out", str(tmp_path / "r.json"),
    ]) == 0
    assert main([
        "evaluate", "--pred", str(scores_path), "--truth", str(truth_csv),
        "--out", str(eval_path),
    ]) == 0
    block = json.loads(eval_path.read_text(encoding="utf-8"))
    assert block["recall"] > 0.5
    assert block["ric"] == 1.0


def test_cli_evaluate_reads_detect_scores_on_the_bulk_path(tmp_path, monkeypatch):
    # detect writes \r\n line ends; evaluate reads them without the row
    # reader, to the report the row reader's labels give
    train_csv, test_csv, truth_csv = write_corpus(tmp_path, seed=3)
    scores_path = tmp_path / "scores.csv"
    eval_path = tmp_path / "eval.json"
    assert main([
        "detect", "--train", str(train_csv), "--test", str(test_csv),
        "--scores-out", str(scores_path), "--out", str(tmp_path / "r.json"),
    ]) == 0
    assert b"\r\n" in scores_path.read_bytes()
    want = run_evaluate(
        _read_labels_rows(scores_path, "flag"),
        _read_labels_rows(truth_csv, "label"),
        1,
    )
    want["clusters"] = [c._asdict() for c in want["clusters"]]
    calls = []
    monkeypatch.setattr(
        data_module, "_read_labels_rows", lambda *args: calls.append(args)
    )
    assert main([
        "evaluate", "--pred", str(scores_path), "--truth", str(truth_csv),
        "--out", str(eval_path),
    ]) == 0
    assert calls == []
    assert eval_path.read_text(encoding="utf-8") == json.dumps(want, indent=2) + "\n"


def fragmented_labels(n, seed):
    """Truth of short runs (gaps of mean 3, runs of mean 2) and a prediction
    that flips 15% of it, as in the evaluate benchmark's inputs."""
    rng = np.random.default_rng(seed)
    pairs = n // 4
    segments = np.empty(2 * pairs, dtype=np.int64)
    segments[0::2] = rng.geometric(1 / 3, pairs)
    segments[1::2] = rng.geometric(1 / 2, pairs)
    runs = np.tile(np.array([0, 1], dtype=np.int8), pairs)
    truth = np.repeat(runs, segments)[:n]
    return truth ^ (rng.random(n) < 0.15).astype(np.int8), truth


EVALUATE_JSON_CASES = {
    "fragmented": (*fragmented_labels(20000, 1), []),
    "fragmented_min_len_3": (
        *fragmented_labels(20000, 2), ["--min-cluster-len", "3"]
    ),
    "fragmented_smooth_window_5": (
        *fragmented_labels(20000, 3), ["--smooth-window", "5"]
    ),
    "no_clusters": (np.array([0, 1, 1, 0]), np.zeros(4, dtype=int), []),
    "runs_at_both_ends": (
        np.array([0, 1, 0, 0, 0, 0, 1]), np.array([1, 1, 0, 1, 0, 0, 1]), []
    ),
    "one_point_runs_at_both_ends": (
        np.array([1, 0, 0]), np.array([1, 0, 1]), ["--min-cluster-len", "1"]
    ),
    "min_len_3_keeps_inner_run": (
        np.array([1, 0, 1, 0, 0, 0, 1]), np.array([1, 0, 1, 1, 1, 0, 1]),
        ["--min-cluster-len", "3"],
    ),
    "min_len_3_keeps_none": (
        np.array([1, 1, 0, 1]), np.array([1, 1, 0, 1]),
        ["--min-cluster-len", "3"],
    ),
}


def _evaluate_json(tmp_path, case, capsys=None):
    """The bytes ``madkit evaluate`` writes on ``EVALUATE_JSON_CASES[case]``
    (to stdout when ``capsys`` is given, else to ``--out``) and the oracle's:
    the row reader, and json.dumps of the cluster records."""
    pred, truth, argv = EVALUATE_JSON_CASES[case]
    h = int(argv[1]) if argv[:1] == ["--smooth-window"] else 1
    min_len = int(argv[1]) if argv[:1] == ["--min-cluster-len"] else 1
    pred = pred[h - 1 :]  # predictions cover the smoothed timeline
    pred_csv, truth_csv = tmp_path / "pred.csv", tmp_path / "truth.csv"
    pred_csv.write_text(
        "timestamp,score,flag\n"
        + "".join(f"{i},0.5,{v}\n" for i, v in enumerate(pred)),
        encoding="utf-8",
    )
    truth_csv.write_text(
        "label\n" + "".join(f"{v}\n" for v in truth), encoding="utf-8"
    )
    out = tmp_path / "eval.json"
    to = [] if capsys else ["--out", str(out)]
    assert main([
        "evaluate", "--pred", str(pred_csv), "--truth", str(truth_csv),
        *to, *argv,
    ]) == 0
    got = capsys.readouterr().out.encode() if capsys else out.read_bytes()

    block = run_evaluate(
        _read_labels_rows(pred_csv, "flag"),
        align_labels(_read_labels_rows(truth_csv, "label"), h),
        min_len,
    )
    block["clusters"] = [
        {"start": c.start, "end": c.end, "length": c.length}
        for c in block["clusters"]
    ]
    assert (block["ric"] is None) == (block["clusters"] == [])
    return got, (json.dumps(block, indent=2) + "\n").encode()


@pytest.mark.parametrize("case", sorted(EVALUATE_JSON_CASES))
def test_cli_evaluate_json_matches_json_dumps(tmp_path, case):
    got, want = _evaluate_json(tmp_path, case)
    assert got == want


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("case", sorted(EVALUATE_JSON_CASES))
def test_cli_evaluate_json_matches_json_dumps_across_blocks(
    tmp_path, monkeypatch, case, block
):
    # records straddle the blocks _emit renders them in
    monkeypatch.setattr(cli_module, "_CLUSTER_BLOCK", block)
    got, want = _evaluate_json(tmp_path, case)
    assert got == want


@pytest.mark.parametrize("case", ["fragmented", "no_clusters"])
def test_cli_evaluate_json_to_stdout_matches_json_dumps(tmp_path, capsys, case):
    got, want = _evaluate_json(tmp_path, case, capsys)
    assert got == want


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated meanwhile."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_run_evaluate_memory_stays_near_the_output_size():
    # one int32 prefix sum per label for ric, and the cluster columns;
    # no int64 copy of the labels beyond that
    pred, truth = fragmented_labels(1_000_000, 5)
    block, peak = _traced_peak(run_evaluate, pred, truth)
    clusters = block["clusters"]
    columns = clusters.starts.nbytes + clusters.ends.nbytes
    assert len(clusters) > 150_000
    assert peak < 4 * truth.size + 3 * columns, peak


def test_emit_memory_stays_within_a_block_of_records(tmp_path):
    # the report is about 75 bytes per record; rendering one block at a
    # time holds a few hundred bytes per record of one block, not of all
    n = 200_000
    starts = np.arange(n, dtype=np.int64) * 5
    payload = {"n": n, "clusters": ClusterColumns(starts, starts + 1)}
    out = tmp_path / "report.json"
    _, peak = _traced_peak(cli_module._emit, payload, str(out))
    assert out.stat().st_size > 70 * n
    assert peak < 400 * cli_module._CLUSTER_BLOCK, peak


def _boundary_clusters():
    """Clusters whose starts, ends and lengths take the values at every
    power-of-ten boundary up to ``2**63 - 1``, mixed in one list."""
    top = 2**63 - 1
    values = sorted(
        {0, 1, top - 1, top}
        | {10**k + d for k in range(1, 19) for d in (-1, 0, 1)}
    )
    starts, ends = [], []
    for v in values:
        starts += [v, 1, max(v, 1)]
        ends += [v, max(v, 1), top]  # lengths 1, v and 2**63 - v
    return ClusterColumns(np.array(starts), np.array(ends))


def _spaced_clusters(n):
    starts = np.arange(n, dtype=np.int64) * 3
    return ClusterColumns(starts, starts + 1)


RENDER_CASES = {
    "boundaries": _boundary_clusters,
    "one": lambda: ClusterColumns(np.array([5]), np.array([7])),
    "none": lambda: ClusterColumns(np.empty(0, np.int64), np.empty(0, np.int64)),
    "one_block": lambda: _spaced_clusters(cli_module._CLUSTER_BLOCK),
    "one_block_and_one": lambda: _spaced_clusters(cli_module._CLUSTER_BLOCK + 1),
}


@pytest.mark.parametrize("block", [None, 1, 7])
@pytest.mark.parametrize("to", ["file", "stdout"])
@pytest.mark.parametrize("case", sorted(RENDER_CASES))
def test_emit_renders_clusters_as_json_dumps(
    tmp_path, capsys, monkeypatch, case, to, block
):
    if block is not None:
        monkeypatch.setattr(cli_module, "_CLUSTER_BLOCK", block)
    clusters = RENDER_CASES[case]()
    payload = {"ric": 0.5, "clusters": clusters, "n": len(clusters)}
    want = json.dumps(
        {**payload, "clusters": [c._asdict() for c in clusters]}, indent=2
    ) + "\n"
    if to == "file":
        out = tmp_path / "report.json"
        cli_module._emit(payload, str(out))
        got = out.read_bytes().decode("ascii")
    else:
        print("before", end=" ")  # text printed first stays first
        cli_module._emit(payload, None)
        got = capsys.readouterr().out.removeprefix("before ")
    assert got == want


@pytest.mark.parametrize(
    "starts, ends", [([-1], [3]), ([2, -5], [4, -5]), ([0], [-1])]
)
def test_emit_refuses_negative_cluster_values(tmp_path, starts, ends):
    # extract_clusters never returns one; it is refused, not misrendered
    payload = {"clusters": ClusterColumns(np.array(starts), np.array(ends))}
    with pytest.raises(ValueError, match="must be >= 0"):
        cli_module._emit(payload, str(tmp_path / "report.json"))


def _random_walk_csvs(tmp_path, n, t):
    rng = np.random.default_rng(4)
    paths = []
    for name in ("train", "test"):
        noise = rng.standard_normal((2, n, t))
        values = noise[0].cumsum(axis=1) * 0.01 + noise[1]
        path = tmp_path / f"{name}.csv"
        save_csv(SeriesMatrix([f"v{i}" for i in range(n)], values), path)
        paths.append(path)
    return paths


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 a caller's stack keeps its call arguments alive",
)
def test_run_detect_from_files_holds_two_blocks_at_most(tmp_path):
    # vif_prune forms its Gram in one scratch block, only the retained rows
    # are centered, and scoring overwrites them: the live peak is the raw
    # and smoothed blocks while a file is smoothed (~2.2 blocks here, with
    # the smoothing's working rows)
    n, t = 12, 8000
    train_csv, test_csv = _random_walk_csvs(tmp_path, n, t)
    cfg = PipelineConfig(
        train=train_csv, test=test_csv, smooth=SmoothConfig(h=5, kind="mean")
    )
    _, peak = _traced_peak(run_detect, cfg)
    assert peak < 2.5 * n * t * 8, peak / (n * t * 8)


def test_fit_and_apply_give_the_same_bytes_from_a_kept_or_temporary_block(
    tmp_path,
):
    # a caller that keeps its raw blocks gets the same results, and its
    # blocks back unchanged
    train_csv, test_csv = _random_walk_csvs(tmp_path, 6, 2000)
    smooth = SmoothConfig(h=7, kind="median")
    train, test = load_csv(train_csv)[0], load_csv(test_csv)[0]
    kept = train.values.copy(), test.values.copy()
    model, _ = fit_detector(train, smooth)
    result, _ = apply_detector(model, test)
    model_t, _ = fit_detector(load_csv(train_csv)[0], smooth)
    result_t, _ = apply_detector(model_t, load_csv(test_csv)[0])
    save_model(model, tmp_path / "kept.txt")
    save_model(model_t, tmp_path / "temporary.txt")
    assert (tmp_path / "kept.txt").read_bytes() == (
        tmp_path / "temporary.txt"
    ).read_bytes()
    assert result.scores.tobytes() == result_t.scores.tobytes()
    assert result.flags.tobytes() == result_t.flags.tobytes()
    assert np.array_equal(train.values, kept[0])
    assert np.array_equal(test.values, kept[1])


def _block_model(kind, h, n=12, t=3000):
    """A model fitted with a ``(kind, h)`` filter on random walks, two of
    whose variables VIF pruning drops."""
    rng = np.random.default_rng(h)
    values = rng.standard_normal((n, t)).cumsum(axis=1) * 0.1
    values += rng.standard_normal((n, t))
    values[-2:] = values[:2] + values[2:4] + 1e-3 * rng.standard_normal((2, t))
    names = [f"v{i}" for i in range(n)]
    model, _ = fit_detector(SeriesMatrix(names, values), SmoothConfig(h, kind))
    assert len(model.retained) < n
    return model, names


def _whole_block_outcome(model, test):
    """Scores and flags bytes as one pass over the whole test block makes
    them: smooth it, center its retained rows, solve them (the oracle); or
    the message of the error smoothing raises."""
    try:
        smoothed = smooth_matrix(test, model.smooth)
    except ValueError as exc:
        return str(exc)
    reduced = smoothed.values[model.retained] - model.scatter.mu[:, None]
    _, scores = full_z_scores(model.scatter.chol, reduced)
    return scores.tobytes(), flag(scores, model.k).tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("h", [1, 2, 5, 20])
@pytest.mark.parametrize("kind", ["mean", "median"])
def test_apply_detector_gives_the_whole_block_bits(kind, h, order):
    # the test block is smoothed and scored in column blocks whose edges
    # fall on the solve's own, from views of all rows: the scores and flags
    # keep the bits of one whole-block pass, and the caller's matrix its own
    model, names = _block_model(kind, h)
    rng = np.random.default_rng(h + 100)
    w = _SOLVE_COLUMNS
    for length in (1, w - 1, w, w + 1, w + 3, 2 * w + 3, 1024 + 3):
        if length + h - 1 < 2:
            continue  # a SeriesMatrix has two columns at least
        values = rng.standard_normal((len(names), length + h - 1)) * 1.5 + 0.2
        test = SeriesMatrix(names, np.asarray(values, order=order))
        kept = test.values.tobytes("A")
        want = _whole_block_outcome(model, test)
        try:
            result, _ = apply_detector(model, test)
            got = result.scores.tobytes(), result.flags.tobytes()
        except PipelineError as exc:
            assert exc.stage == "smooth"
            got = str(exc.cause)
        assert got == want, length
        assert test.values.tobytes("A") == kept


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("kind", ["median", "mean"])
def test_apply_detector_holds_no_smoothed_test_block(kind, order):
    # beside the caller's test matrix, scoring holds the score vector and
    # one column block of smoothing and solving: neither a smoothed copy of
    # the whole block nor its retained rows
    model, names = _block_model(kind, 5)
    values = np.random.default_rng(5).standard_normal((len(names), 50_000))
    test = SeriesMatrix(names, np.asarray(values, order=order))
    del values
    _, peak = _traced_peak(apply_detector, model, test)
    assert peak < 0.5 * test.values.nbytes, peak / test.values.nbytes


def test_cli_score_rejects_reordered_columns(tmp_path, capsys):
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=6)
    model_path = tmp_path / "model.txt"
    assert main(["fit", "--train", str(train_csv), "--out", str(model_path)]) == 0
    test, _ = load_csv(test_csv)
    swapped = tmp_path / "swapped.csv"
    rows = [1, 0, 2, 3, 4, 5]
    save_csv(SeriesMatrix([test.names[i] for i in rows], test.values[rows]), swapped)
    capsys.readouterr()
    code = main(["score", "--model", str(model_path), "--data", str(swapped)])
    assert code == EXIT_CODES["score"]
    assert "test variable 0 is 'v2'" in capsys.readouterr().err


@pytest.mark.parametrize("bad_index", ["out-of-range", "negative"])
def test_cli_score_rejects_bad_variable_index(tmp_path, capsys, bad_index):
    # an edited model file must not crash (out of range) or score the
    # wrong variables (a negative index counts from the end)
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=8)
    model_path = tmp_path / "model.txt"
    assert main(["fit", "--train", str(train_csv), "--out", str(model_path)]) == 0
    model = load_model(model_path)
    retained = list(model.retained)
    if bad_index == "out-of-range":
        retained[-1] = model.n_original
    else:
        retained[0] = -1
    text = model_path.read_text(encoding="utf-8")
    line = "retained: " + ",".join(map(str, model.retained))
    edited = "retained: " + ",".join(map(str, retained))
    model_path.write_text(text.replace(line, edited), encoding="utf-8")
    capsys.readouterr()
    code = main(["score", "--model", str(model_path), "--data", str(test_csv)])
    assert code == EXIT_CODES["ingest"]
    err = capsys.readouterr().err
    assert err.startswith("error [ingest]") and "once each" in err


def score_with_edited_model(tmp_path, capsys, key, row, cell, value):
    """Fit a POT model, set one cell of the line ``row`` lines below the
    ``key`` field to ``value``, and score with it: (exit code, stderr)."""
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=9)
    model_path = tmp_path / "model.txt"
    fit = ["fit", "--train", str(train_csv), "--threshold", "pot"]
    assert main([*fit, "--out", str(model_path)]) == 0
    lines = model_path.read_text(encoding="utf-8").splitlines()
    i = row + next(i for i, line in enumerate(lines) if line.startswith(key + ":"))
    head, sep, body = lines[i].rpartition(": ")
    cells = body.split(",")
    cells[cell] = value
    lines[i] = head + sep + ",".join(cells)
    model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["score", "--model", str(model_path), "--data", str(test_csv)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "key, row, cell, value",
    [
        ("mu", 0, 0, "nan"),
        ("sigma_rows", 1, 0, "nan"),  # the first sigma row
        ("k", 0, 0, "inf"),
        ("gpd", 0, 0, "nan"),  # gamma
        ("gpd", 0, 1, "nan"),  # delta
        ("gpd", 0, 2, "nan"),  # l
        ("gpd", 0, 5, "nan"),  # loglik
        ("vif_trace", 0, 1, "nan"),  # the VIF of the one removed variable
    ],
    ids=["mu", "sigma", "k", "gamma", "delta", "l", "loglik", "vif"],
)
def test_cli_score_rejects_non_finite_model_field(
    tmp_path, capsys, key, row, cell, value
):
    # a nan mu once scored every point as nan and flagged none, exit 0
    code, err = score_with_edited_model(tmp_path, capsys, key, row, cell, value)
    assert code == EXIT_CODES["ingest"] == 10
    assert err.startswith("error [ingest]") and "finite" in err


def test_model_vif_may_be_inf_but_not_nan(tmp_path):
    train_csv, _, _ = write_corpus(tmp_path, seed=9)
    model_path = tmp_path / "model.txt"
    assert main(["fit", "--train", str(train_csv), "--out", str(model_path)]) == 0
    model = load_model(model_path)
    (index, _), = model.vif_trace
    text = model_path.read_text(encoding="utf-8")
    line = next(ln for ln in text.splitlines() if ln.startswith("vif_trace:"))

    def load_with_vif(vif):
        edited = text.replace(line, f"vif_trace: {index},{vif}")
        model_path.write_text(edited, encoding="utf-8")
        return load_model(model_path)

    # inf marks exact collinearity; nan is no VIF at all
    assert load_with_vif("inf").vif_trace == [(index, math.inf)]
    with pytest.raises(ModelFormatError, match="invalid model contents: VIFs"):
        load_with_vif("nan")


def test_cli_score_rejects_scatter_of_another_size(tmp_path, capsys):
    # the last retained variable moved into vif_trace: the variables are
    # still each in one place, but mu and sigma keep its row
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=9)
    model_path = tmp_path / "model.txt"
    assert main(["fit", "--train", str(train_csv), "--out", str(model_path)]) == 0
    model = load_model(model_path)
    *kept, moved = model.retained
    lines = model_path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("retained:"))
    j = next(i for i, line in enumerate(lines) if line.startswith("vif_trace:"))
    lines[i] = "retained: " + ",".join(map(str, kept))
    lines[j] += f";{moved},1.5"
    model_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["score", "--model", str(model_path), "--data", str(test_csv)])
    assert code == EXIT_CODES["ingest"] == 10
    err = capsys.readouterr().err
    assert err.startswith("error [ingest]")
    assert "scatter size must match retained count" in err


@pytest.mark.parametrize(
    "key, cell, value, wording",
    [
        ("gpd", 1, "-1", "invalid model contents: delta must be positive"),
        ("mu", 0, "x", "corrupted model file: could not convert"),
        ("h", 0, "0", "invalid model contents: window length h must be at least 1"),
        ("filter_kind", 0, "mode", "invalid model contents: kind must be one of"),
        ("threshold_kind", 0, "max",
         "invalid model contents: threshold_kind must be one of ('mvt', 'pot', 'chi2')"),
    ],
    ids=["domain", "syntax", "h", "filter_kind", "threshold_kind"],
)
def test_cli_score_words_model_faults_by_kind(
    tmp_path, capsys, key, cell, value, wording
):
    # a value outside its domain is invalid content, whichever field holds
    # it; only text that does not parse is a corrupted file
    code, err = score_with_edited_model(tmp_path, capsys, key, 0, cell, value)
    assert code == EXIT_CODES["ingest"]
    assert err.startswith("error [ingest]") and wording in err


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
def test_cli_score_rejects_empty_model_file(tmp_path, capsys, text):
    _, test_csv, _ = write_corpus(tmp_path, seed=9)
    model_path = tmp_path / "empty.txt"
    model_path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main(["score", "--model", str(model_path), "--data", str(test_csv)])
    assert code == EXIT_CODES["ingest"] == 10
    err = capsys.readouterr().err
    assert err == f"error [ingest]: {model_path}: empty model file\n"


@pytest.mark.parametrize("extra", ["junk: 1", "1,1"], ids=["junk", "sigma-row"])
def test_cli_score_rejects_leftover_model_line(tmp_path, capsys, extra):
    # a line after the last field was once ignored, and the model scored
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=9)
    model_path = tmp_path / "model.txt"
    assert main(["fit", "--train", str(train_csv), "--out", str(model_path)]) == 0
    with open(model_path, "a", encoding="utf-8") as fh:
        fh.write(extra + "\n")
    capsys.readouterr()
    code = main(["score", "--model", str(model_path), "--data", str(test_csv)])
    assert code == EXIT_CODES["ingest"] == 10
    err = capsys.readouterr().err
    assert err.startswith("error [ingest]") and f"unexpected line {extra!r}" in err


def test_cli_score_rejects_gpd_line_on_mvt_model(tmp_path, capsys):
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=9)
    pot, mvt = tmp_path / "pot.txt", tmp_path / "mvt.txt"
    fit = ["fit", "--train", str(train_csv), "--out"]
    assert main([*fit, str(pot), "--threshold", "pot"]) == 0
    assert main([*fit, str(mvt), "--threshold", "mvt"]) == 0
    gpd = pot.read_text(encoding="utf-8").splitlines()[-1]
    assert gpd.startswith("gpd: ")
    with open(mvt, "a", encoding="utf-8") as fh:
        fh.write(gpd + "\n")
    capsys.readouterr()
    code = main(["score", "--model", str(mvt), "--data", str(test_csv)])
    assert code == EXIT_CODES["ingest"]
    err = capsys.readouterr().err
    assert err.startswith("error [ingest]") and "invalid model contents" in err
    assert "gpd" in err


def test_cli_rejects_wrong_inputs_loudly(tmp_path, capsys):
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=7)
    pred = tmp_path / "pred.csv"
    pred.write_text("timestamp,score,myflag\n0,1.0,0\n1,2.0,1\n", encoding="utf-8")
    truth = tmp_path / "truth.csv"
    truth.write_text("label\n0\n1\n", encoding="utf-8")
    data = ["--train", str(train_csv), "--test", str(test_csv)]
    labels = ["--pred", str(pred), "--truth", str(truth), "--pred-column", "myflag"]
    cases = [
        (["explain", *data, "--rf-trees", "0"], "explain", "n_trees must be"),
        (
            ["explain", *data, "--step5-extra", "-1"],
            "explain",
            "n_extra must be non-negative",
        ),
        (
            ["explain", *data, "--rf-seed", "-1"],
            "explain",
            "seed must be a non-negative integer",
        ),
        (["evaluate", *labels, "--min-cluster-len", "0"], "evaluate", "min_length"),
        (["evaluate", *labels, "--smooth-window", "0"], "config", "window length"),
        (
            ["detect", *data, "--threshold", "pot", "--pot-q", "0.25",
             "--pot-percentile", "0.75"],
            "config",
            "q < 1 - percentile",
        ),
    ]
    for argv, stage, message in cases:
        assert main(argv) == EXIT_CODES[stage], argv
        err = capsys.readouterr().err
        assert f"error [{stage}]" in err and message in err, err

    # a config file's pred-column is honoured, not overridden by a default
    cfg_path = tmp_path / "eval.json"
    cfg_path.write_text(json.dumps({"pred_column": "myflag"}), encoding="utf-8")
    out = tmp_path / "eval_out.json"
    assert main([
        "evaluate", "--pred", str(pred), "--truth", str(truth),
        "--config", str(cfg_path), "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["counts"]["tp"] == 1

    short = tmp_path / "short.csv"
    short.write_text("timestamp,score,flag\n0,1.0,0\n1,2.0\n", encoding="utf-8")
    code = main(["evaluate", "--pred", str(short), "--truth", str(truth)])
    assert code == EXIT_CODES["ingest"]
    assert "line 3 has 2 fields, expected 3" in capsys.readouterr().err


def test_cli_evaluate_length_mismatch(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"
    pred.write_text("flag\n0\n1\n", encoding="utf-8")
    truth.write_text("label\n0\n1\n1\n", encoding="utf-8")
    code = main(["evaluate", "--pred", str(pred), "--truth", str(truth)])
    assert code == EXIT_CODES["evaluate"]
    assert "does not match" in capsys.readouterr().err


def test_cli_evaluate_names_the_evaluate_stage_for_a_short_truth(tmp_path, capsys):
    # the truth is aligned to the smoothed timeline in stage evaluate
    pred = tmp_path / "pred.csv"
    truth = tmp_path / "truth.csv"
    pred.write_text("flag\n0\n", encoding="utf-8")
    truth.write_text("label\n0\n1\n", encoding="utf-8")
    argv = ["evaluate", "--pred", str(pred), "--truth", str(truth)]
    assert main([*argv, "--smooth-window", "3"]) == EXIT_CODES["evaluate"] == 17
    assert capsys.readouterr().err == (
        "error [evaluate]: label vector shorter than the window\n"
    )


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("vif_threshold", [None, "inf"])
def test_cli_reports_are_strict_json(tmp_path, capsys, vif_threshold):
    # an exactly collinear pair has VIF inf; a report spells it as a
    # model file does, "inf", since JSON has no Infinity
    prefix = str(tmp_path / "c")
    assert main([
        "synth", "--n", "5", "--t-train", "600", "--t-test", "300",
        "--collinear", "0:1", "--anomaly", "700:40:2,3:6.0", "--out", prefix,
    ]) == 0
    data = ["--train", f"{prefix}_train.csv", "--test", f"{prefix}_test.csv"]
    if vif_threshold is not None:
        data += ["--vif-threshold", vif_threshold]
    scores = tmp_path / "scores.csv"
    names = ("detect", "explain", "evaluate")
    outs = {name: tmp_path / f"{name}.json" for name in names}
    assert main([
        "detect", *data, "--scores-out", str(scores), "--out", str(outs["detect"]),
    ]) == 0
    assert main([
        "explain", *data, "--importance", "both", "--rf-trees", "5",
        "--out", str(outs["explain"]),
    ]) == 0
    assert main([
        "evaluate", "--pred", str(scores), "--truth", f"{prefix}_truth.csv",
        "--out", str(outs["evaluate"]),
    ]) == 0
    reports = {
        name: json.loads(
            path.read_text(encoding="utf-8"), parse_constant=_refuse_constant
        )
        for name, path in outs.items()
    }
    vif = reports["detect"]["vif"]
    assert vif["removed"] == [[0, "inf"]]
    if vif_threshold is not None:
        assert vif["threshold"] == reports["detect"]["config"]["vif_threshold"]
        assert vif["threshold"] == "inf"
    assert {rep["method"] for rep in reports["explain"]} == {"rf-gini", "lr-rcde"}
    assert reports["evaluate"]["counts"]["tp"] > 0


@pytest.mark.parametrize("command", ["detect", "explain"])
def test_cli_names_the_score_stage_before_smoothing_a_short_test(
    tmp_path, capsys, command
):
    # a test file shorter than the window and one variable short: the
    # variables are checked before the block is smoothed
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=2)
    short = tmp_path / "short.csv"
    lines = test_csv.read_text(encoding="utf-8").splitlines()[:3]
    short.write_text(
        "".join(line.rsplit(",", 1)[0] + "\n" for line in lines), encoding="utf-8"
    )
    capsys.readouterr()
    code = main([
        command, "--train", str(train_csv), "--test", str(short),
        "--smooth-window", "5",
    ])
    assert code == EXIT_CODES["score"] == 15
    assert capsys.readouterr().err == (
        "error [score]: model was fitted on 6 variables, test data has 5\n"
    )


def test_cli_explain(tmp_path):
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=4)
    out_path = tmp_path / "explain.json"
    code = main([
        "explain", "--train", str(train_csv), "--test", str(test_csv),
        "--importance", "rf", "--rf-trees", "40",
        "--out", str(out_path), "--top", "3",
    ])
    assert code == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload[0]["method"] == "rf-gini"
    assert len(payload[0]["top"]) == 3
    assert {"v2", "v4"} <= set(payload[0]["top"])
    assert len(payload[0]["ranking"]) == 6


def test_cli_synth_round_trip(tmp_path, capsys):
    prefix = str(tmp_path / "demo")
    code = main([
        "synth", "--n", "4", "--t-train", "500", "--t-test", "200",
        "--collinear", "0:2", "--anomaly", "600:30:1:5.0",
        "--seed", "7", "--out", prefix,
    ])
    assert code == 0
    train, _ = load_csv(f"{prefix}_train.csv")
    test, _ = load_csv(f"{prefix}_test.csv")
    assert train.values.shape == (4, 500)
    assert test.values.shape == (4, 200)
    truth_lines = (
        (tmp_path / "demo_truth.csv").read_text(encoding="utf-8").splitlines()
    )
    assert truth_lines[0] == "label"
    labels = np.array([int(v) for v in truth_lines[1:]])
    assert labels.size == 200
    assert labels.sum() == 30
    assert labels[100:130].all()


def test_cli_config_file_merging(tmp_path):
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=5)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps({
            "train": str(train_csv),
            "test": str(test_csv),
            "threshold": "chi2",
            "chi2_alpha": 0.001,
        }),
        encoding="utf-8",
    )
    report_path = tmp_path / "report.json"
    code = main([
        "detect", "--config", str(cfg_path), "--out", str(report_path),
        "--threshold", "mvt",  # explicit flag beats the file
    ])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["threshold"]["kind"] == "mvt"
    assert report["config"]["chi2_alpha"] == 0.001


def test_cli_config_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"no_such_flag": 1}', encoding="utf-8")
    code = main(["detect", "--config", str(cfg_path)])
    assert code == EXIT_CODES["config"]
    assert "unknown config key" in capsys.readouterr().err


EVALUATE_ARGV = ["evaluate", "--pred", "p.csv", "--truth", "t.csv"]
SYNTH_ARGV = ["synth", "--n", "4", "--t-train", "500", "--t-test", "200"]


@pytest.mark.parametrize(
    "argv, entry, message",
    [
        (["detect"], {"smooth_window": "20"}, "'smooth-window' must be int, got '20'"),
        (["detect"], {"smooth_window": 2.5}, "'smooth-window' must be int, got 2.5"),
        (["detect"], {"pot_q": "0.01"}, "'pot-q' must be float, got '0.01'"),
        (["detect"], {"threshold": "max"}, "'threshold' must be one of"),
        (["detect"], {"train": 5, "test": 6}, "'train' must be str, got 5"),
        (EVALUATE_ARGV, {"out": 1}, "'out' must be str, got 1"),
        (["explain"], {"step5_window": [1]},
         "'step5-window' must be START:END or a list of two ints, got [1]"),
        (["detect"], {"summary": "yes"}, "'summary' must be bool, got 'yes'"),
        (SYNTH_ARGV, {"anomaly": "600:10:1:5.0"},
         "'anomaly' must be list of str, got '600:10:1:5.0'"),
    ],
    ids=[
        "str_for_int", "float_for_int", "str_for_float", "bad_choice",
        "int_for_path", "int_for_out", "short_window", "str_for_switch",
        "str_for_repeatable",
    ],
)
def test_cli_config_values_must_match_flag_types(
    tmp_path, capsys, argv, entry, message
):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(entry), encoding="utf-8")
    assert main([*argv, "--config", str(cfg_path)]) == EXIT_CODES["config"]
    assert f"error [config]: config key {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["explain", "--step5-window", "600-1800"],
         "window must look like START:END, got '600-1800'"),
        (["detect", "--config", "no_such.json"],
         "cannot read config file no_such.json: "),
        (["detect", "--config", "list.json"], "config file must hold a JSON object"),
        ([*SYNTH_ARGV, "--collinear", "1"],
         "collinear group must look like BASE:DEP,DEP[:NOISE], got '1'"),
        ([*SYNTH_ARGV, "--anomaly", "1:2:3"],
         "anomaly must look like START:LENGTH:VARS:MAGNITUDE, got '1:2:3'"),
        ([*SYNTH_ARGV, "--collinear", "0:1:-0.5"], "noise_scale must be non-negative"),
        ([*SYNTH_ARGV, "--anomaly", "450:10::5.0"],
         "an anomaly must touch at least one variable"),
        (["explain", "--top", "0"], "top must be at least 1"),
    ],
    ids=[
        "window", "missing_config", "list_config", "collinear", "anomaly",
        "negative_noise", "no_variables", "top",
    ],
)
def test_cli_malformed_option_text_is_a_config_error(
    tmp_path, monkeypatch, capsys, argv, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
    assert main(argv) == EXIT_CODES["config"]
    assert capsys.readouterr().err.startswith(f"error [config]: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["list.json"]


def test_cli_config_accepts_well_typed_values(tmp_path):
    # an int passes for a float flag, and null leaves the default
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(
        '{"vif_threshold": 4, "smooth_window": 3, "threshold": "chi2", '
        '"chi2_alpha": 0.01, "label_column": null, "summary": true}',
        encoding="utf-8",
    )
    args = _build_parser().parse_args(["detect", "--config", str(cfg_path)])
    options = _merge_config(args)
    cfg = _pipeline_config(options)
    assert (cfg.vif_threshold, cfg.smooth.h, cfg.threshold.kind) == (4, 3, "chi2")
    assert (cfg.threshold.alpha, cfg.label_column) == (0.01, None)
    assert options["summary"] is True

    # a window as a list of two ints (or as START:END on the command line),
    # and a repeatable flag as a list
    cfg_path.write_text('{"step5_window": [600, 1800]}', encoding="utf-8")
    for argv in (["--config", str(cfg_path)], ["--step5-window", "600:1800"]):
        args = _build_parser().parse_args(["explain", *argv])
        assert tuple(_pipeline_config(_merge_config(args)).step5_window) == (600, 1800)
    cfg_path.write_text('{"anomaly": ["600:10:1:5.0"]}', encoding="utf-8")
    args = _build_parser().parse_args([*SYNTH_ARGV, "--config", str(cfg_path)])
    assert _merge_config(args)["anomaly"] == ["600:10:1:5.0"]


def test_cli_explicit_zero_beats_config_file(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(
        '{"step5_extra": 1000, "rf_seed": 5, "rf_trees": 7}', encoding="utf-8"
    )
    args = _build_parser().parse_args([
        "explain", "--config", str(cfg_path), "--step5-extra", "0",
        "--rf-seed", "0",
    ])
    cfg = _pipeline_config(_merge_config(args))
    assert (cfg.step5_extra, cfg.rf_seed, cfg.rf_trees) == (0, 0, 7)
    # an unset store_true flag still takes the file's value
    cfg_path.write_text('{"summary": true}', encoding="utf-8")
    args = _build_parser().parse_args(["detect", "--config", str(cfg_path)])
    assert _merge_config(args)["summary"] is True


def test_cli_required_options_from_config_file(tmp_path, capsys):
    prefix, model = tmp_path / "c", tmp_path / "m.txt"
    scores, report = tmp_path / "s.csv", tmp_path / "e.json"
    # each command reads what the one before it wrote
    entries = {
        "synth": {"n": 3, "t_train": 400, "t_test": 100, "out": str(prefix)},
        "fit": {"train": f"{prefix}_train.csv", "out": str(model)},
        "score": {
            "model": str(model), "data": f"{prefix}_test.csv", "out": str(scores)
        },
        "evaluate": {
            "pred": str(scores), "truth": f"{prefix}_truth.csv", "out": str(report)
        },
    }
    cfg_path = tmp_path / "c.json"
    for command, entry in entries.items():
        cfg_path.write_text(json.dumps(entry), encoding="utf-8")
        assert main([command, "--config", str(cfg_path)]) == 0, command
    assert capsys.readouterr().err == ""
    assert json.loads(report.read_text(encoding="utf-8"))["counts"]


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["evaluate"], "--pred, --truth"),
        (["evaluate", "--pred", "p.csv"], "--truth"),
        (["synth", "--n", "3"], "--t-train, --t-test"),
        (["fit", "--out", "m.txt"], "--train"),
        (["score", "--data", "d.csv"], "--model"),
    ],
    ids=["evaluate", "evaluate_truth", "synth", "fit", "score"],
)
def test_cli_required_options_missing_from_flags_and_config(
    tmp_path, capsys, argv, missing
):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text('{"out": null}', encoding="utf-8")
    for config in ([], ["--config", str(cfg_path)]):
        assert main([*argv, *config]) == EXIT_CODES["config"]
        assert capsys.readouterr().err == (
            f"error [config]: the following arguments are required: {missing}\n"
        )


def test_cli_over_limit_field_is_an_ingest_error(tmp_path, capsys):
    # a cell longer than csv.field_size_limit() fails in the csv module
    labels = tmp_path / "labels.csv"
    labels.write_text("a,flag\n" + "x" * 131_073 + ",1\n", encoding="utf-8")
    assert main([
        "evaluate", "--pred", str(labels), "--truth", str(labels),
        "--pred-column", "flag", "--truth-column", "flag",
    ]) == EXIT_CODES["ingest"]
    err = capsys.readouterr().err
    assert "error [ingest]: " in err
    assert "line 2: field larger than field limit" in err
    data = tmp_path / "data.csv"
    data.write_text("a,b\n1.0,2.0\n" + "1" * 131_073 + ",3.0\n", encoding="utf-8")
    good = tmp_path / "good.csv"
    good.write_text("a,b\n1.0,2.0\n2.0,1.0\n3.0,4.0\n", encoding="utf-8")
    assert main(
        ["detect", "--train", str(data), "--test", str(good)]
    ) == EXIT_CODES["ingest"]
    assert "line 3: field larger than field limit" in capsys.readouterr().err


def test_cli_exit_codes(tmp_path, capsys):
    # missing data sources
    assert main(["detect"]) == EXIT_CODES["config"]
    capsys.readouterr()

    # unreadable csv
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1.0,oops\n", encoding="utf-8")
    good = tmp_path / "good.csv"
    good.write_text("a,b\n1.0,2.0\n2.0,1.0\n3.0,4.0\n", encoding="utf-8")
    assert main(
        ["detect", "--train", str(bad), "--test", str(good)]
    ) == EXIT_CODES["ingest"]
    capsys.readouterr()

    # constant training variable
    const = tmp_path / "const.csv"
    const.write_text(
        "a,b\n" + "".join(f"1.0,{v}.0\n" for v in range(20)), encoding="utf-8"
    )
    assert main(
        ["detect", "--train", str(const), "--test", str(good)]
    ) == EXIT_CODES["collinearity"]
    err = capsys.readouterr().err
    assert "error [collinearity]" in err

    # a one-row file is an ingest failure
    one = tmp_path / "one.csv"
    one.write_text("a,b\n1.0,2.0\n", encoding="utf-8")
    assert main(
        ["detect", "--train", str(one), "--test", str(good)]
    ) == EXIT_CODES["ingest"]
    assert "need at least two observations" in capsys.readouterr().err

    # ... in fit and score too, which read their CSV through the pipeline
    train_csv, test_csv, _ = write_corpus(tmp_path)
    model_path = tmp_path / "m.txt"
    assert main([
        "fit", "--train", str(train_csv), "--smooth-window", "20",
        "--out", str(model_path),
    ]) == 0
    capsys.readouterr()
    for argv in (
        ["fit", "--train", str(one), "--out", str(tmp_path / "m1.txt")],
        ["score", "--model", str(model_path), "--data", str(one)],
    ):
        assert main(argv) == EXIT_CODES["ingest"], argv
        assert "error [ingest]: need at least two observations" in (
            capsys.readouterr().err
        )

    # an output that cannot be written is an ingest failure too
    no_dir = tmp_path / "no_dir" / "s.csv"
    assert main([
        "score", "--model", str(model_path), "--data", str(test_csv),
        "--out", str(no_dir),
    ]) == EXIT_CODES["ingest"]
    assert "error [ingest]: [Errno 2]" in capsys.readouterr().err

    # fit asks for --out before it reads or fits anything
    assert main(["fit", "--train", str(tmp_path / "nope.csv")]) == (
        EXIT_CODES["config"]
    )
    assert "fit requires --out" in capsys.readouterr().err

    # explain smooths a training block shorter than the model's window
    five = tmp_path / "five.csv"
    five.write_text(
        "".join(train_csv.read_text(encoding="utf-8").splitlines(True)[:6]),
        encoding="utf-8",
    )
    assert main([
        "explain", "--train", str(five), "--test", str(test_csv),
        "--model", str(model_path), "--rf-trees", "5",
    ]) == EXIT_CODES["smooth"]
    assert "error [smooth]: series length 5 is shorter than window 20" in (
        capsys.readouterr().err
    )

    # smoothing window longer than the training series
    assert main(
        ["detect", "--train", str(good), "--test", str(good),
         "--smooth-window", "5"]
    ) == EXIT_CODES["smooth"]
    assert "error [smooth]" in capsys.readouterr().err

    # too few training scores for a POT tail fit
    short = tmp_path / "short.csv"
    short.write_text(
        "a,b\n" + "".join(f"{v}.0,{(v * 7) % 13}.0\n" for v in range(40)),
        encoding="utf-8",
    )
    assert main(
        ["detect", "--train", str(short), "--test", str(good),
         "--threshold", "pot"]
    ) == EXIT_CODES["threshold"]
    assert "error [threshold]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--smooth-window", "9"], "--smooth-window"),
        (
            ["--threshold", "chi2", "--vif-threshold", "2.5"],
            "--vif-threshold, --threshold",
        ),
        ({"pot_q": 0.01, "label_column": "label"}, "--pot-q"),
    ],
    ids=["window", "threshold-and-vif", "config-file"],
)
def test_cli_explain_model_rejects_fit_options(tmp_path, capsys, extra, named):
    # a model file fixes steps 1-4, so these options would be ignored; the
    # check comes before any file is read, so none of the files named here
    # exists.  --label-column applies to the CSVs and stays allowed.
    missing = [str(tmp_path / name) for name in ("model.txt", "train.csv", "test.csv")]
    if isinstance(extra, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(extra), encoding="utf-8")
        extra = ["--config", str(config)]
    out = tmp_path / "out.json"
    argv = ["explain", "--model", missing[0]]
    argv += ["--train", missing[1], "--test", missing[2]]
    capsys.readouterr()
    assert main([*argv, "--out", str(out), *extra]) == EXIT_CODES["config"] == 2
    err = capsys.readouterr().err
    assert err == f"error [config]: explain --model takes no fit options: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("fault", ["format", "missing"])
def test_cli_explain_model_fails_in_ingest_on_a_bad_model_file(
    tmp_path, capsys, fault
):
    # a model file that does not load is an ingest failure in explain, as
    # in score, and nothing is written
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=9)
    model_path = tmp_path / "model.txt"
    if fault == "format":
        assert main(["fit", "--train", str(train_csv), "--out", str(model_path)]) == 0
        text = model_path.read_text(encoding="utf-8")
        model_path.write_text(text.replace("madkit-model v2", "madkit-model v9"))
        cause = (
            "unsupported model format 'madkit-model v9', "
            "expected 'madkit-model v2'"
        )
    else:
        cause = (
            "cannot read model file: [Errno 2] No such file or directory: "
            f"'{model_path}'"
        )
    out = tmp_path / "out.json"
    argv = ["explain", "--model", str(model_path), "--train", str(train_csv)]
    argv += ["--test", str(test_csv), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == EXIT_CODES["ingest"] == 10
    assert capsys.readouterr().err == f"error [ingest]: {model_path}: {cause}\n"
    assert not out.exists()


@pytest.mark.parametrize("h", [2, 5])
def test_cli_scores_a_test_file_of_one_window(tmp_path, h):
    # a test file exactly h rows long holds one full window: detect and
    # score write one score, at the window's end h - 1
    train_csv, test_csv, _ = write_corpus(tmp_path, seed=9)
    short = tmp_path / "short.csv"
    save_csv(load_csv(test_csv)[0].slice_time(0, h), short)
    window = ["--smooth-window", str(h)]
    model_path = tmp_path / "model.txt"
    fit = ["fit", "--train", str(train_csv), *window, "--out", str(model_path)]
    assert main(fit) == 0
    runs = {
        "detect": ["detect", "--train", str(train_csv), "--test", str(short), *window],
        "score": ["score", "--model", str(model_path), "--data", str(short)],
        "whole": ["score", "--model", str(model_path), "--data", str(test_csv)],
    }
    rows = {}
    for name, argv in runs.items():
        scores = tmp_path / f"{name}.csv"
        flag = "--scores-out" if name == "detect" else "--out"
        assert main([*argv, flag, str(scores)]) == 0, name
        rows[name] = scores.read_text(encoding="utf-8").splitlines()
    assert rows["detect"] == rows["score"]
    header, row = rows["score"]
    assert header == "timestamp,score,flag"
    timestamp, score, flag = row.split(",")
    first = rows["whole"][1].split(",")
    assert timestamp == first[0] == str(h - 1)
    assert float(score) == pytest.approx(float(first[1]), rel=1e-12)
    assert flag == first[2]


@pytest.mark.parametrize("h", [2, 5])
def test_cli_rejects_a_training_file_of_one_window(tmp_path, capsys, h):
    # a training file exactly h rows long smooths to one column, which no
    # scatter is fitted on: fit and detect fail in smooth and name the
    # rows needed, and one row more fits
    lines = ["a,b\n"] + [f"{v}.0,{(v * 7) % 13}.0\n" for v in range(h + 1)]
    short, enough = tmp_path / "short.csv", tmp_path / "enough.csv"
    short.write_text("".join(lines[:-1]), encoding="utf-8")
    enough.write_text("".join(lines), encoding="utf-8")
    window = ["--smooth-window", str(h)]
    want = (
        f"error [smooth]: need at least {h + 1} training rows for window {h}, "
        f"got {h}\n"
    )
    capsys.readouterr()
    for train, code in [(short, EXIT_CODES["smooth"]), (enough, 0)]:
        model = tmp_path / "model.txt"
        fit = ["fit", "--train", str(train), *window, "--out", str(model)]
        detect = ["detect", "--train", str(train), "--test", str(enough), *window]
        detect += ["--out", str(tmp_path / "detect.json")]
        for argv in (fit, detect):
            assert main(argv) == code, argv[0]
            assert capsys.readouterr().err == (want if code else ""), argv[0]
    assert EXIT_CODES["smooth"] == 11


@pytest.mark.parametrize("fault", ["missing", "malformed"])
@pytest.mark.parametrize(
    "command", ["detect", "explain", "explain-raw", "explain-model"]
)
def test_cli_bad_test_file_fails_in_ingest_after_the_fit(
    tmp_path, capsys, monkeypatch, command, fault
):
    # the train file is read and fitted before the test file is read; a bad
    # test file still fails as an ingest error, and nothing is written
    import madkit.pipeline

    train_csv, _, _ = write_corpus(tmp_path, seed=9)
    model_path = tmp_path / "model.txt"
    assert main(["fit", "--train", str(train_csv), "--out", str(model_path)]) == 0
    bad = tmp_path / "bad.csv"
    if fault == "malformed":
        bad.write_text(
            "v1,v2,v3,v4,v5,v6\n" + "1.0,2.0,3.0,4.0,5.0,6.0\n" * 30
            + "1.0,2.0,oops,4.0,5.0,6.0\n",
            encoding="utf-8",
        )
    with pytest.raises((OSError, ValueError)) as cause:
        load_csv(bad)

    events = []
    read, fit = madkit.pipeline.load_csv, madkit.pipeline.fit_detector

    def reading(path, *args, **kwargs):
        events.append(Path(path).name)
        return read(path, *args, **kwargs)

    def fitting(*args, **kwargs):
        events.append("fit")
        return fit(*args, **kwargs)

    monkeypatch.setattr(madkit.pipeline, "load_csv", reading)
    monkeypatch.setattr(madkit.pipeline, "fit_detector", fitting)
    outputs = {
        flag: tmp_path / f"out{flag}"
        for flag in ("--out", "--model-out", "--scores-out", "--intervals-out")
    }
    argv = [command.split("-")[0], "--train", str(train_csv), "--test", str(bad)]
    argv += ["--out", str(outputs["--out"])]
    if command == "detect":
        for flag in ("--model-out", "--scores-out", "--intervals-out"):
            argv += [flag, str(outputs[flag])]
    elif command == "explain-raw":
        argv += ["--step5-features", "raw"]
    elif command == "explain-model":
        argv += ["--model", str(model_path)]
    capsys.readouterr()
    assert main(argv) == EXIT_CODES["ingest"]
    assert capsys.readouterr().err == f"error [ingest]: {cause.value}\n"
    fitted = [] if command == "explain-model" else ["fit"]
    assert events == ["train.csv", *fitted, "bad.csv"]
    assert not [path for path in outputs.values() if path.exists()]


def test_cli_single_file_split(tmp_path):
    train, test, _ = corpus(seed=12, t_train=1000, t_test=300, anomalies=())
    full = tmp_path / "full.csv"
    merged = np.hstack([train.values, test.values])
    from madkit.data import SeriesMatrix

    save_csv(SeriesMatrix(names=train.names, values=merged), full)
    report_path = tmp_path / "report.json"
    code = main([
        "detect", "--data", str(full), "--train-end", "1000",
        "--out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["detection"]["n_scores"] == 300


@pytest.mark.parametrize("factor", [1e160, 1e-170])
def test_cli_names_a_training_column_whose_scale_overflows(
    tmp_path, capsys, factor
):
    # deviations of 1e160 square to inf and of 1e-170 to 0, so column 'b'
    # cannot be scaled to unit RMS: a collinearity failure that names it,
    # and nothing is scored
    values = np.random.default_rng(33).standard_normal((3, 200))
    values[1] *= factor
    train = tmp_path / "train.csv"
    save_csv(SeriesMatrix(names=["a", "b", "c"], values=values), train)
    scores = tmp_path / "scores.csv"
    assert main([
        "detect", "--train", str(train), "--test", str(train),
        "--scores-out", str(scores),
    ]) == EXIT_CODES["collinearity"]
    err = capsys.readouterr().err
    assert err.startswith("error [collinearity]: variable 'b': its RMS"), err
    assert "not a positive finite float64" in err and err.count("\n") == 1
    assert not scores.exists()
