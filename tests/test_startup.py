"""What a command loads at start-up.

Every command pays for the import of ``madkit.cli``.  ``scipy.stats``
(used only by the chi2 rule) and ``scipy.signal`` (used only by
``synth``) are imported on first use, so neither a plain import nor the
POT ``detect`` and ``explain`` paths may load them.  Each check runs in a
fresh interpreter, because the test process itself has imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import madkit
from madkit.data import save_csv
from madkit.synthetic import AnomalySpec, SynthConfig, generate

LAZY = ("scipy.stats", "scipy.signal")
SRC = str(Path(madkit.__file__).resolve().parents[1])


def loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; report which of ``LAZY`` it loaded."""
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps({{m: m in sys.modules for m in {LAZY!r}}}))\n"
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


def test_import_loads_neither_stats_nor_signal():
    nothing = dict.fromkeys(LAZY, False)
    assert loaded_after("import madkit") == nothing
    assert loaded_after("import madkit.cli") == nothing


def test_pot_detect_and_explain_load_neither_stats_nor_signal(tmp_path):
    # the data is written here, because generating it needs scipy.signal
    config = SynthConfig(
        n=5,
        t_train=4000,
        t_test=400,
        anomalies=(AnomalySpec(start=4100, length=40, variables=(1,), magnitude=8.0),),
        seed=3,
    )
    matrix, _, spec = generate(config)
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    save_csv(matrix.slice_time(0, spec.train_end), train)
    save_csv(matrix.slice_time(spec.train_end, matrix.n_times), test)
    data = ["--train", str(train), "--test", str(test)]
    detect = [
        "detect", *data, "--threshold", "pot", "--pot-q", "0.005",
        "--out", str(tmp_path / "detect.json"),
    ]
    explain = [
        "explain", *data, "--threshold", "pot", "--pot-q", "0.005",
        "--importance", "both", "--rf-trees", "5",
        "--out", str(tmp_path / "explain.json"),
    ]
    code = (
        "from madkit.cli import main\n"
        f"assert main({detect!r}) == 0\n"
        f"assert main({explain!r}) == 0\n"
    )
    assert loaded_after(code) == dict.fromkeys(LAZY, False)
    report = json.loads((tmp_path / "detect.json").read_text())
    assert report["detection"]["n_flags"] > 0
    rankings = json.loads((tmp_path / "explain.json").read_text())
    assert len(rankings) == 2
