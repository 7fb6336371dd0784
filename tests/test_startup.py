"""What a command loads at start-up.

Every command pays for the import of ``madkit.cli``.  Smoothing, scoring
and the POT fit run on numpy alone, so neither a plain import nor the
``detect``, ``explain`` and ``evaluate`` paths may load any ``scipy``
module.  Only the chi2 rule (``scipy.stats``) and ``synth``
(``scipy.signal``) import scipy, on first use; the chi2 run below shows
that the probe sees such an import.  Each check runs in a fresh
interpreter, because the test process itself has imported scipy.
``python -m madkit`` runs the same CLI as ``madkit.cli.main``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import madkit
from madkit.data import save_csv, split
from madkit.pipeline import EXIT_CODES
from madkit.synthetic import AnomalySpec, SynthConfig, generate

SRC = str(Path(madkit.__file__).resolve().parents[1])
H = 20  # even, so the median averages two order statistics


def scipy_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the scipy modules it loaded."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy')))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def run_main(argv: list[str]) -> list[str]:
    return scipy_after(f"from madkit.cli import main\nassert main({argv!r}) == 0\n")


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    # the data is written here, because generating it needs scipy.signal
    tmp = tmp_path_factory.mktemp("startup")
    config = SynthConfig(
        n=5,
        t_train=4000,
        t_test=400,
        anomalies=(AnomalySpec(start=4100, length=40, variables=(1,), magnitude=8.0),),
        seed=3,
    )
    matrix, labels, train_end = generate(config)
    train, test = tmp / "train.csv", tmp / "test.csv"
    train_m, test_m = split(matrix, train_end)
    save_csv(train_m, train)
    save_csv(test_m, test)
    truth = tmp / "truth.csv"
    truth.write_text("label\n" + "".join(f"{v}\n" for v in labels[train_end:]))
    return tmp, ["--train", str(train), "--test", str(test)]


def detect_argv(tmp: Path, data: list[str], *threshold: str) -> list[str]:
    return [
        "detect", *data, "--smooth-kind", "median", "--smooth-window", str(H),
        *threshold, "--scores-out", str(tmp / "scores.csv"),
        "--out", str(tmp / "detect.json"),
    ]


def test_import_loads_no_scipy():
    assert scipy_after("import madkit") == []
    assert scipy_after("import madkit.cli") == []


def test_pot_detect_explain_and_evaluate_load_no_scipy(data):
    tmp, files = data
    pot = ["--threshold", "pot", "--pot-q", "0.005"]
    assert run_main(detect_argv(tmp, files, *pot)) == []
    report = json.loads((tmp / "detect.json").read_text())
    assert report["detection"]["n_flags"] > 0

    explain = [
        "explain", *files, *pot, "--importance", "both", "--rf-trees", "5",
        "--out", str(tmp / "explain.json"),
    ]
    assert run_main(explain) == []
    assert len(json.loads((tmp / "explain.json").read_text())) == 2

    evaluate = [
        "evaluate", "--pred", str(tmp / "scores.csv"),
        "--truth", str(tmp / "truth.csv"), "--smooth-window", str(H),
        "--out", str(tmp / "evaluate.json"),
    ]
    assert run_main(evaluate) == []
    assert json.loads((tmp / "evaluate.json").read_text())


def test_chi2_detect_loads_scipy_stats(data):
    # the probe must see scipy when a command does import it
    tmp, files = data
    loaded = run_main(detect_argv(tmp, files, "--threshold", "chi2"))
    assert "scipy.stats" in loaded


def test_python_dash_m_runs_the_cli(tmp_path):
    def python(*args):
        return subprocess.run(
            [sys.executable, *args], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
            text=True, timeout=120,
        )

    shown = python("-m", "madkit", "--help")
    assert shown.returncode == 0, shown.stderr
    assert "detect" in shown.stdout
    bad = python("-m", "madkit", "detect", "--train", "a.csv", "--test",
                 "b.csv", "--smooth-window", "0")
    assert bad.returncode == EXIT_CODES["config"]
    assert bad.stderr.startswith("error [config]: "), bad.stderr
    unknown = python("-m", "madkit", "detect", "--no-such-flag")
    assert unknown.returncode == 2
    assert "unrecognized arguments: --no-such-flag" in unknown.stderr
    # importing the package does not run (or import) the entry point
    plain = python("-c", "import sys, madkit; print('madkit.__main__' in sys.modules)")
    assert plain.stdout.strip() == "False", plain.stderr
