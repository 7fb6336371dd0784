"""The benchmark's tracer still finds the madkit functions it measures.

``perfbench/tracing.py`` wraps functions by the module attribute their
callers look up and silently skips a name that no longer exists, so a
refactor that moves a call can zero a per-layer metric without any error.
"""

import importlib

import pytest

import madkit.cli
import tracing


@pytest.mark.parametrize("span", list(tracing.BINDINGS))
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
        ["explain", *data, "--importance", "both", "--rf-trees", "5",
         "--out", str(tmp_path / "e.json")],
        ["evaluate", "--pred", str(tmp_path / "s.csv"),
         "--truth", f"{prefix}_truth.csv", "--out", str(tmp_path / "v.json")],
    ]
    for argv in runs:
        # through the module, so that the call finds the tracer's wrapper
        assert madkit.cli.main(argv) == 0, argv
    metrics = tracer.metrics()
    # vif_prune and fit_detector center inline, so nothing calls the bound
    # center functions; ROADMAP item 1 (b2) rebinds or drops the span with
    # the benchmark's tracer, and this exemption then fails
    for name in tracing.SPAN_TIMES:
        if name == "collinearity.center_s":
            assert metrics[name] == 0, name
        else:
            assert metrics[name] > 0, name
