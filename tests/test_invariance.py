"""The paper's invariances, end to end through the CLI.

Each test runs the CLI twice, on a seeded data set and on a transformed
copy, and compares the files it writes; no reference code is involved
(metamorphic testing: Chen, Cheung & Yiu, HKUST-CS98-01, 1998).

* Multiplying a variable by 2**k is exact in binary floating point, short
  of over- or underflow, and every step commutes with it: window means and
  medians, VIFs and the Mahalanobis distance.  So the scores, intervals and
  forest rankings are the same bytes.
* Permuting the variables, with their names, changes only the order of
  floating-point sums: the flagged intervals are the same and the scores
  agree to within ``PERMUTED_SCORES_RTOL``.
* Adding a constant to a variable moves the centre of every window and of
  the training scatter alike: the flags are the same.

The data have no VIF ties: of the collinear trio, ``v2`` has the largest
VIF by a factor of about 1.4, so every copy removes the same variable.
The CSV files are written by ``save_csv``, whose ``repr`` cells
``load_csv`` reads back bit for bit.
"""

import numpy as np
import pytest

from madkit.cli import main
from madkit.data import SeriesMatrix, load_csv, save_csv

N_VARS, T_TRAIN, T_TEST, H = 8, 3000, 1500, 5
SETTINGS = [(t, kind) for t in ("mvt", "pot", "chi2") for kind in ("mean", "median")]
# score agreement under a column permutation: the VIF Gram, the scatter
# and its Cholesky factor sum in another order; the largest relative gap
# on this data set is 4.3e-16, two ulp
PERMUTED_SCORES_RTOL = 1e-12


def make_data(seed=26):
    """Train and test matrices: one collinear trio (``v2`` on ``v0`` and
    ``v1``), mixed scales and offsets, and ``v3`` and ``v5`` shifted by
    three standard deviations over test points 600-749."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((N_VARS, T_TRAIN + T_TEST))
    x[2] = 0.9 * x[0] + 0.6 * x[1] + 0.08 * rng.standard_normal(x.shape[1])
    x[[3, 5], T_TRAIN + 600 : T_TRAIN + 750] += 3.0
    x = x * rng.uniform(0.5, 3.0, (N_VARS, 1)) + rng.normal(0.0, 10.0, (N_VARS, 1))
    names = [f"v{i}" for i in range(N_VARS)]
    return x, names


def transformed(tmp_path, tag, values, names):
    """Write the train and test CSV files of one copy; their paths."""
    out = tmp_path / tag
    out.mkdir()
    train, test = out / "train.csv", out / "test.csv"
    save_csv(SeriesMatrix(names=list(names), values=values[:, :T_TRAIN]), train)
    save_csv(SeriesMatrix(names=list(names), values=values[:, T_TRAIN:]), test)
    return out, train, test


def step_flags(threshold, kind):
    return ["--threshold", threshold, "--smooth-kind", kind, "--smooth-window", str(H)]


def detect(copy, threshold, kind):
    """``detect``'s scores and intervals files, as bytes."""
    out, train, test = copy
    scores, intervals = out / f"scores-{threshold}-{kind}.csv", out / "intervals.csv"
    argv = [
        "detect", "--train", str(train), "--test", str(test),
        "--out", str(out / "report.json"),
        "--scores-out", str(scores), "--intervals-out", str(intervals),
        *step_flags(threshold, kind),
    ]
    assert main(argv) == 0
    return scores.read_bytes(), intervals.read_bytes()


def score_columns(path):
    matrix, _ = load_csv(path)
    return dict(zip(matrix.names, matrix.values))


@pytest.fixture(scope="module")
def copies(tmp_path_factory):
    """The original data set and its scaled, permuted and shifted copies."""
    tmp_path = tmp_path_factory.mktemp("invariance")
    x, names = make_data()
    rng = np.random.default_rng(2026)
    k = rng.integers(-20, 21, N_VARS)
    perm = rng.permutation(N_VARS)
    shift = rng.normal(0.0, 100.0, (N_VARS, 1))
    permuted_names = [names[i] for i in perm]
    return {
        "original": transformed(tmp_path, "original", x, names),
        "scaled": transformed(tmp_path, "scaled", np.ldexp(x, k[:, None]), names),
        "permuted": transformed(tmp_path, "permuted", x[perm], permuted_names),
        "shifted": transformed(tmp_path, "shifted", x + shift, names),
    }


@pytest.fixture(scope="module")
def original_runs(copies):
    return {s: detect(copies["original"], *s) for s in SETTINGS}


@pytest.mark.parametrize("threshold, kind", SETTINGS)
def test_detect_files_are_byte_identical_under_power_of_two_scaling(
    copies, original_runs, threshold, kind
):
    scores, intervals = original_runs[threshold, kind]
    assert intervals.count(b"\n") > 1  # some interval is flagged
    assert detect(copies["scaled"], threshold, kind) == (scores, intervals)


@pytest.mark.parametrize("threshold, kind", SETTINGS)
def test_detect_under_column_permutation(copies, original_runs, threshold, kind):
    _, intervals = original_runs[threshold, kind]
    _, got_intervals = detect(copies["permuted"], threshold, kind)
    assert got_intervals == intervals
    name = f"scores-{threshold}-{kind}.csv"
    want = score_columns(copies["original"][0] / name)
    got = score_columns(copies["permuted"][0] / name)
    assert np.array_equal(got["timestamp"], want["timestamp"])
    assert np.array_equal(got["flag"], want["flag"])
    rel = np.abs(got["score"] - want["score"]) / want["score"]
    assert rel.max() <= PERMUTED_SCORES_RTOL, rel.max()


@pytest.mark.parametrize("threshold, kind", SETTINGS)
def test_detect_flags_are_unchanged_by_a_shift(copies, original_runs, threshold, kind):
    _, intervals = original_runs[threshold, kind]
    _, got_intervals = detect(copies["shifted"], threshold, kind)
    assert got_intervals == intervals
    name = f"scores-{threshold}-{kind}.csv"
    want = score_columns(copies["original"][0] / name)
    got = score_columns(copies["shifted"][0] / name)
    assert np.array_equal(got["flag"], want["flag"])


@pytest.mark.parametrize("threshold", ["mvt", "pot", "chi2"])
def test_fit_then_score_is_byte_identical_under_power_of_two_scaling(
    copies, capsys, threshold
):
    outputs = []
    for tag in ("original", "scaled"):
        out, train, test = copies[tag]
        model, scores = out / f"model-{threshold}.txt", out / f"fit-{threshold}.csv"
        fit = ["fit", "--train", str(train), "--out", str(model)]
        assert main([*fit, *step_flags(threshold, "median")]) == 0
        assert main(["score", "--model", str(model), "--data", str(test),
                     "--out", str(scores)]) == 0
        outputs.append(scores.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_explain_rf_json_is_byte_identical_under_power_of_two_scaling(copies):
    outputs = []
    for tag in ("original", "scaled"):
        out, train, test = copies[tag]
        report = out / "explain.json"
        argv = [
            "explain", "--train", str(train), "--test", str(test),
            "--importance", "rf", "--rf-trees", "30", "--out", str(report),
            *step_flags("mvt", "median"),
        ]
        assert main(argv) == 0
        outputs.append(report.read_bytes())
    assert b'"v3"' in outputs[0]
    assert outputs[0] == outputs[1]
