"""Command-line interface, a thin shell over ``pipeline``.

Subcommands: ``detect`` (fit on train, flag test), ``explain`` (rank the
variables behind flags in a window) and ``evaluate`` (score predictions
against truth) write a JSON report; ``synth`` writes a synthetic corpus,
``fit`` a model file and ``score`` the scores of a saved model on data.

Every flag can also be supplied through a JSON config file (``--config``)
whose keys mirror the flag names; explicit flags win over the file.  A
command builds one ``PipelineConfig``, calls the pipeline and writes its
outputs.  A failure exits with its stage's code (``pipeline.EXIT_CODES``):
2 for bad configuration, 10 for a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .data import (
    FILTER_KINDS, THRESHOLD_KINDS, load_labels, load_model, save_csv, save_model,
    split, write_table,
)
from .metrics import ClusterColumns
from .pipeline import (
    EXIT_CODES,
    IMPORTANCE_KINDS,
    STEP5_FEATURE_KINDS,
    PipelineConfig,
    PipelineError,
    _stage,
    apply_detector,
    fit_from_config,
    load_matrix,
    run_detect,
    run_evaluate,
    run_explain,
)
from .smoothing import SmoothConfig, align_labels
from .synthetic import AnomalySpec, CollinearGroup, SynthConfig, generate
from .thresholds import ThresholdSpec


# options a command cannot run without, from its flags or its --config file
_REQUIRED = {
    "evaluate": ("pred", "truth"),
    "synth": ("n", "t-train", "t-test"),
    "fit": ("train",),
    "score": ("model", "data"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _stage("config"):
            options = _merge_config(args)
            args.handler(_pipeline_config(options), options)
    except PipelineError as exc:
        print(f"error [{exc.stage}]: {exc.cause}", file=sys.stderr)
        return exc.exit_code
    return EXIT_CODES["ok"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="madkit",
        description="Mahalanobis-distance anomaly detection for "
        "multivariate time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file of flag values")
        p.add_argument("--out", help="output path (default: stdout)")

    def add_step_flags(p):
        p.add_argument("--smooth-window", type=int, metavar="H")
        p.add_argument("--smooth-kind", choices=FILTER_KINDS)
        p.add_argument("--vif-threshold", type=float)
        p.add_argument("--threshold", choices=THRESHOLD_KINDS)
        p.add_argument("--pot-q", type=float)
        p.add_argument("--pot-percentile", type=float)
        p.add_argument("--chi2-alpha", type=float)
        p.add_argument("--label-column", help="0/1 label column, checked then stripped")

    def add_data_flags(p):
        p.add_argument("--train", help="training CSV")
        p.add_argument("--test", help="test CSV")
        p.add_argument("--data", help="single CSV, split with --train-end")
        p.add_argument("--train-end", type=int)

    def add_explain_flags(p):
        p.add_argument("--importance", choices=IMPORTANCE_KINDS)
        p.add_argument("--rf-trees", type=int, metavar="B")
        p.add_argument("--rf-seed", type=int)
        p.add_argument(
            "--step5-window", metavar="START:END", help="window to explain"
        )
        p.add_argument("--step5-extra", type=int, metavar="COUNT")
        p.add_argument("--step5-features", choices=STEP5_FEATURE_KINDS)
        p.add_argument("--top", type=int, metavar="V")

    p = sub.add_parser("detect", help="fit on train data and flag test data")
    add_data_flags(p)
    add_step_flags(p)
    add_common(p)
    p.add_argument("--scores-out", help="write timestamp,score,flag CSV here")
    p.add_argument(
        "--intervals-out",
        help="write flagged intervals as start,end,length CSV here",
    )
    p.add_argument("--model-out", help="save the fitted model here")
    p.add_argument(
        "--summary", action="store_true", help="print a plain-text summary"
    )
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("explain", help="rank variables behind flagged windows")
    add_data_flags(p)
    add_step_flags(p)
    add_explain_flags(p)
    add_common(p)
    p.add_argument("--model", help="reuse a saved model instead of refitting")
    p.set_defaults(handler=_cmd_explain)

    p = sub.add_parser("evaluate", help="compare predictions against truth")
    p.add_argument("--pred", help="CSV holding predictions (required)")
    p.add_argument("--truth", help="CSV holding ground truth (required)")
    p.add_argument("--pred-column", help="0/1 column of --pred (default flag)")
    p.add_argument("--truth-column", help="0/1 column of --truth (default label)")
    p.add_argument(
        "--smooth-window",
        type=int,
        metavar="H",
        help="align truth to a window-H smoothed timeline",
    )
    p.add_argument("--min-cluster-len", type=int)
    add_common(p)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--n", type=int, help="variable count (required)")
    p.add_argument("--t-train", type=int, help="training rows (required)")
    p.add_argument("--t-test", type=int, help="test rows (required)")
    p.add_argument(
        "--collinear",
        action="append",
        metavar="BASE:DEP,DEP:NOISE",
        help="collinear group; repeatable",
    )
    p.add_argument(
        "--anomaly",
        action="append",
        metavar="START:LEN:VARS:MAG",
        help="planted anomaly; repeatable",
    )
    add_common(p)
    p.add_argument("--seed", type=int, help="run seed (default 0)")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("fit", help="fit a model on training data and save it")
    p.add_argument("--train", help="training CSV (required)")
    add_step_flags(p)
    add_common(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("score", help="apply a saved model to data")
    p.add_argument("--model", help="model file from fit/detect (required)")
    p.add_argument("--data", help="CSV to score (required)")
    p.add_argument("--label-column", help="0/1 label column, checked then stripped")
    add_common(p)
    p.set_defaults(handler=_cmd_score)

    for p in sub.choices.values():
        # what _merge_config checks config file values against
        p.set_defaults(flags={a.dest.replace("_", "-"): a for a in p._actions})
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Flag values merged over the --config file, dashes normalized; a
    ``ValueError`` names the command's ``_REQUIRED`` options still unset."""
    options = {
        k.replace("_", "-"): v
        for k, v in vars(args).items()
        if k not in ("handler", "command", "flags")
    }
    config_path = options.pop("config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config file {config_path}: {exc}")
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in loaded.items():
            key = key.replace("_", "-")
            if key not in options:
                raise ValueError(f"unknown config key {key!r}")
            if value is not None:
                _check_config_value(key, value, args.flags[key])
            # an explicit 0 given on the command line wins (0 == False)
            if options[key] is None or options[key] is False:
                options[key] = value
    required = _REQUIRED.get(args.command, ())
    missing = [f"--{key}" for key in required if options[key] is None]
    if missing:
        raise ValueError(
            "the following arguments are required: " + ", ".join(missing)
        )
    return options


def _check_config_value(key: str, value, flag: argparse.Action) -> None:
    """Raise ``ValueError`` unless ``value`` suits the flag behind config
    key ``key``: a ``bool`` for a switch, a list of ``str`` for a repeatable
    flag, one of its ``choices`` if it has them, else its argparse ``type``
    (an int passes for a float) or, without one, a ``str``.
    ``step5-window`` also takes a list of two ints."""
    if flag.nargs == 0:
        wanted, ok = "bool", type(value) is bool
    elif isinstance(flag, argparse._AppendAction):
        wanted, ok = "list of str", _is_list_of(value, str)
    elif flag.choices:
        wanted, ok = f"one of {flag.choices}", value in flag.choices
    else:
        wanted = getattr(flag.type, "__name__", "str")
        types = {int: (int,), float: (int, float)}.get(flag.type, (str,))
        ok = type(value) in types
        if key == "step5-window":
            wanted = "START:END or a list of two ints"
            ok = ok or _is_list_of(value, int) and len(value) == 2
    if not ok:
        raise ValueError(f"config key {key!r} must be {wanted}, got {value!r}")


def _is_list_of(value, kind: type) -> bool:
    return type(value) is list and all(type(v) is kind for v in value)


def _given(**fields) -> dict:
    """``fields`` without the ones that are ``None``."""
    return {k: v for k, v in fields.items() if v is not None}


def _pipeline_config(options: dict) -> PipelineConfig:
    """Run configuration from the options that were given.  Apart from the
    smoothing and threshold options, each option sets the ``PipelineConfig``
    field of its name; every default comes from the config classes."""
    get = options.get
    fields = {
        f.name: get(f.name.replace("_", "-"))
        for f in dataclasses.fields(PipelineConfig)
    }
    if isinstance(fields["step5_window"], str):
        fields["step5_window"] = _parse_window(fields["step5_window"])
    fields["smooth"] = SmoothConfig(
        **_given(h=get("smooth-window"), kind=get("smooth-kind"))
    )
    fields["threshold"] = ThresholdSpec(
        **_given(
            kind=get("threshold"),
            q=get("pot-q"),
            percentile=get("pot-percentile"),
            alpha=get("chi2-alpha"),
        )
    )
    return PipelineConfig(**_given(**fields))


def _parse_window(text: str) -> tuple[int, int]:
    try:
        start, end = text.split(":")
        return int(start), int(end)
    except ValueError:
        raise ValueError(f"window must look like START:END, got {text!r}")


# _emit's placeholder, a "clusters" member set to "\0", as json.dumps
# writes it
_CLUSTERS_SPLICE = '"clusters": "\\u0000"'
# one cluster record as json.dumps(indent=2) lays it out in a list that is
# a top-level member, led by the ",\n" that parts it from the one before:
# the text around its start, end and length
_RECORD_PARTS = (
    b',\n    {\n      "start": ', b',\n      "end": ', b',\n      "length": ',
    b"\n    }",
)
# a non-negative int64 has one digit more than the powers here it reaches
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)
# _DIGIT_WORDS[v]: the four ASCII digits of v < 10**4, zero-padded, as one
# native uint32; _KEEP_WORDS[j, d]: the mask, as one uint32 of four bools,
# of the digits of a d-digit number that fall in its j-th word from the right
_DIGIT_WORDS = (
    (np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0"))
    .copy().view(np.uint32).ravel()  # row v of the indices: v's digits
)
_KEEP_WORDS = (
    np.arange(4) >= 4 - np.clip(
        np.arange(20) - 4 * np.arange(5)[:, None], 0, 4
    )[..., None]
).view(np.uint32)[..., 0]
# cluster records _emit renders at once
_CLUSTER_BLOCK = 1 << 13


def _emit(payload: dict | list, out: str | None) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2)`` and a newline
    to the file ``out``, or to stdout, piece by piece (:func:`_json_pieces`)."""
    pieces = _json_pieces(payload)
    if out:
        with open(out, "wb") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.flush()  # text printed before goes first
        sys.stdout.buffer.writelines(pieces)


def _json_pieces(payload: dict | list):
    """``json.dumps(payload, indent=2) + "\\n"`` as ASCII bytes, in pieces.
    A ``clusters`` member holding :class:`ClusterColumns` is dumped as a
    placeholder, and the list of its ``{"start", "end", "length"}`` records
    is rendered in its place from the columns (:func:`_cluster_records`)."""
    clusters = payload.get("clusters") if isinstance(payload, dict) else None
    if not isinstance(clusters, ClusterColumns):
        yield (json.dumps(payload, indent=2) + "\n").encode()
        return
    text = json.dumps({**payload, "clusters": "\0"}, indent=2)
    head, tail = text.split(_CLUSTERS_SPLICE, 1)
    yield (head + '"clusters": [').encode()
    yield from _cluster_records(clusters)
    yield (("\n  ]" if clusters else "]") + tail + "\n").encode()


def _cluster_records(clusters: ClusterColumns):
    """The records of ``clusters`` as ``json.dumps`` lays them out in
    :func:`_json_pieces`, ``_CLUSTER_BLOCK`` at a time, each block a
    ``uint8`` array.  A block is drawn as a grid of one row per record,
    its numbers in slots of whole words that fit the block's widest, and
    the unused slots and padding are then dropped; the grid's buffers are
    reused from block to block.  A negative value raises ``ValueError``."""
    grid = keep = np.empty(0, dtype=np.uint32)
    for i in range(0, len(clusters), _CLUSTER_BLOCK):
        block = clusters[i : i + _CLUSTER_BLOCK]
        columns = (block.starts, block.ends, block.lengths)
        if min(column.min() for column in columns) < 0:
            raise ValueError("cluster starts, ends and lengths must be >= 0")
        digits = [1 + np.searchsorted(_POWERS_OF_TEN, c, "right") for c in columns]
        words = [(int(d.max()) + 3) // 4 for d in digits]
        row, row_keep, slots = _record_layout(words)
        shape = (len(block), len(row) // 4)
        if grid.size < shape[0] * shape[1]:  # wider rows than any before
            grid = np.empty(shape[0] * shape[1], dtype=np.uint32)
            keep = np.empty_like(grid)
        cells = grid[: shape[0] * shape[1]].reshape(shape)
        kept = keep[: shape[0] * shape[1]].reshape(shape)
        cells[:] = np.frombuffer(row, dtype=np.uint32)
        kept[:] = np.frombuffer(row_keep, dtype=np.uint32)
        for q, d, slot, n_words in zip(columns, digits, slots, words):
            for j in range(n_words):  # from the last word to the first
                at = slot + n_words - 1 - j
                rest = q // 10**4  # faster than divmod
                cells[:, at] = _DIGIT_WORDS[q - rest * 10**4]
                kept[:, at] = _KEEP_WORDS[j, d]
                q = rest
        mask = kept.view(bool)
        mask[0, 0] = i > 0  # the first record has no comma before it
        yield cells.view(np.uint8)[mask]


def _record_layout(words) -> tuple[bytes, bytes, list[int]]:
    """One grid row for records whose start, end and length take
    ``words`` words of four digits: its bytes, zero in the digit slots; its
    keep mask, ``1`` for the fixed text; and the word index of each slot.
    Padding before a slot aligns it to a word, and the row to a word."""
    row, keep, slots = b"", b"", []
    for part, n_words in zip(_RECORD_PARTS, (*words, 0)):
        pad = -(len(row) + len(part)) % 4
        row += part + b"\0" * pad + b"0" * 4 * n_words
        keep += b"\1" * len(part) + b"\0" * (pad + 4 * n_words)
        slots.append(len(row) // 4 - n_words)
    return row, keep, slots


def _write_scores_csv(fh, result) -> None:
    """Write ``timestamp,score,flag`` rows to ``fh``."""
    t0, scores = result.time_offset, result.scores
    timestamps = np.arange(t0, t0 + scores.size)
    write_table(fh, ["timestamp", "score", "flag"], [timestamps, scores, result.flags])


def _csv_file(path):
    """``path`` opened for writing a table."""
    return open(path, "w", newline="", encoding="utf-8")


# ---------------------------------------------------------------------------
# handlers


def _cmd_detect(cfg: PipelineConfig, options: dict) -> None:
    model, result, report = run_detect(cfg)
    if options.get("model-out"):
        save_model(model, options["model-out"])
    if options.get("scores-out"):
        with _csv_file(options["scores-out"]) as fh:
            _write_scores_csv(fh, result)
    if options.get("intervals-out"):
        intervals = report["detection"]["flagged_intervals"]
        keys = ["start", "end", "length"]
        columns = [np.array([iv[k] for iv in intervals], np.int64) for k in keys]
        with _csv_file(options["intervals-out"]) as fh:
            write_table(fh, keys, columns)
    if options.get("summary"):
        _print_summary(report)
    _emit(report, options.get("out"))


def _print_summary(report: dict) -> None:
    vif = report["vif"]
    det = report["detection"]
    thr = report["threshold"]
    lines = [
        f"retained {len(vif['retained'])} variables "
        f"({len(vif['removed'])} removed by VIF screening)",
        f"threshold {thr['kind']} k={thr['k']:.6g}",
        f"flagged {det['n_flags']} of {det['n_scores']} scored positions "
        f"in {len(det['flagged_intervals'])} intervals",
    ]
    for iv in det["flagged_intervals"][:10]:
        lines.append(
            f"  interval {iv['start']}..{iv['end']} (length {iv['length']})"
        )
    print("\n".join(lines))


def _cmd_explain(cfg: PipelineConfig, options: dict) -> None:
    path = options.get("model")
    fit = ("smooth-window smooth-kind vif-threshold threshold "
           "pot-q pot-percentile chi2-alpha").split()
    ignored = [f"--{k}" for k in fit if path and options[k] is not None]
    if ignored:  # the model file fixes steps 1-4
        raise ValueError(f"explain --model takes no fit options: {', '.join(ignored)}")
    model = load_model(path) if path else None
    reports = run_explain(cfg, model)
    payload = [
        {
            "method": rep.method,
            "top": rep.top(cfg.top),
            "ranking": [{"variable": v, "score": s} for v, s in rep.ranking],
        }
        for rep in reports
    ]
    _emit(payload, options.get("out"))


def _read_label_column(path, column: str) -> np.ndarray:
    """The 0/1 column ``column`` of CSV file ``path``, read as stage ingest."""
    with _stage("ingest"):
        return load_labels(path, column)


def _cmd_evaluate(cfg: PipelineConfig, options: dict) -> None:
    pred = _read_label_column(options["pred"], options["pred-column"] or "flag")
    truth = _read_label_column(options["truth"], options["truth-column"] or "label")
    block = run_evaluate(pred, align_labels(truth, cfg.smooth.h), cfg.min_cluster_len)
    _emit(block, options.get("out"))


def _cmd_synth(cfg: PipelineConfig, options: dict) -> None:
    groups = tuple(
        _parse_collinear(text) for text in options.get("collinear") or ()
    )
    anomalies = tuple(
        _parse_anomaly(text) for text in options.get("anomaly") or ()
    )
    config = SynthConfig(
        n=options["n"],
        t_train=options["t-train"],
        t_test=options["t-test"],
        collinear_groups=groups,
        anomalies=anomalies,
        **_given(seed=options.get("seed")),
    )
    matrix, truth, train_end = generate(config)
    prefix = options.get("out") or "synth"
    train_m, test_m = split(matrix, train_end)
    save_csv(train_m, f"{prefix}_train.csv")
    save_csv(test_m, f"{prefix}_test.csv")
    with _csv_file(f"{prefix}_truth.csv") as fh:
        write_table(fh, ["label"], [truth[train_end:]])
    print(
        f"wrote {prefix}_train.csv ({train_m.n_times} rows), "
        f"{prefix}_test.csv ({test_m.n_times} rows), "
        f"{prefix}_truth.csv"
    )


def _parse_collinear(text: str) -> CollinearGroup:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"collinear group must look like BASE:DEP,DEP[:NOISE], got {text!r}"
        )
    deps = tuple(int(c) for c in parts[1].split(",") if c != "")
    noise = float(parts[2]) if len(parts) == 3 else 0.0
    return CollinearGroup(base=int(parts[0]), dependents=deps, noise_scale=noise)


def _parse_anomaly(text: str) -> AnomalySpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(
            f"anomaly must look like START:LENGTH:VARS:MAGNITUDE, got {text!r}"
        )
    variables = tuple(int(c) for c in parts[2].split(",") if c != "")
    return AnomalySpec(
        start=int(parts[0]),
        length=int(parts[1]),
        variables=variables,
        magnitude=float(parts[3]),
    )


def _cmd_fit(cfg: PipelineConfig, options: dict) -> None:
    out = options.get("out")
    if not out:
        raise ValueError("fit requires --out for the model file")
    model, _ = fit_from_config(cfg, cfg.train)
    save_model(model, out)
    print(
        f"fitted model on {model.n_original} variables "
        f"({len(model.retained)} retained), threshold "
        f"{model.threshold_kind} k={model.k:.6g}; saved to {out}"
    )


def _cmd_score(cfg: PipelineConfig, options: dict) -> None:
    model = load_model(options["model"])
    result, _ = apply_detector(model, load_matrix(cfg.data, cfg.label_column))
    out = options.get("out")
    if out:
        with _csv_file(out) as fh:
            _write_scores_csv(fh, result)
    else:
        _write_scores_csv(sys.stdout, result)
