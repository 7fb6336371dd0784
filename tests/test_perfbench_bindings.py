"""The benchmark's tracer still finds the madkit functions it measures.

``perfbench/tracing.py`` wraps functions by the module attribute their
callers look up and silently skips a name that no longer exists, so a
refactor that moves a call can zero a per-layer metric without any error.
"""

import importlib

import pytest

import tracing
from madkit.cli import main

# The span's only binding is a label reader that has been removed; moving
# it to the current reader is a change to the benchmark itself.
UNBOUND = {"cli.read_labels"}


@pytest.mark.parametrize(
    "span",
    [
        pytest.param(
            name, marks=pytest.mark.xfail(strict=True, reason="binding removed")
        )
        if name in UNBOUND
        else name
        for name in tracing.BINDINGS
    ],
)
def test_every_span_binding_resolves(span):
    resolved = [
        getattr(importlib.import_module(module), attr, None)
        for module, attr in tracing.BINDINGS[span]
    ]
    assert any(callable(fn) for fn in resolved), tracing.BINDINGS[span]


def test_traced_cli_runs_time_every_named_layer(tmp_path, monkeypatch):
    # setattr to the current value makes monkeypatch undo the tracer's
    # wrappers when the test ends
    for bindings in tracing.BINDINGS.values():
        for module_name, attr in bindings:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = tracing.Tracer()
    tracer.install()

    prefix = tmp_path / "c"
    data = ["--train", f"{prefix}_train.csv", "--test", f"{prefix}_test.csv"]
    runs = [
        ["synth", "--n", "4", "--t-train", "600", "--t-test", "300",
         "--anomaly", "700:40:1,2:6.0", "--out", str(prefix)],
        ["detect", *data, "--scores-out", str(tmp_path / "s.csv"),
         "--model-out", str(tmp_path / "m.txt"), "--out", str(tmp_path / "r.json")],
        ["explain", *data, "--rf-trees", "5", "--out", str(tmp_path / "e.json")],
        ["evaluate", "--pred", str(tmp_path / "s.csv"),
         "--truth", f"{prefix}_truth.csv", "--out", str(tmp_path / "v.json")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    metrics = tracer.metrics()
    for name in (
        "pipeline.run_explain_s", "pipeline.run_evaluate_s", "data.load_csv_s",
        "data.save_model_s", "cli.emit_s", "cli.write_scores_s",
    ):
        assert metrics[name] > 0, name
