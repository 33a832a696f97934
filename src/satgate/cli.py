"""Command-line entry point: every pipeline stage as a subcommand.

Each run resolves its full configuration (defaults included), executes, and
writes a manifest JSON next to its primary output with the resolved
configuration, input/output paths, seed, and output checksums. Reruns with
identical inputs produce byte-identical outputs on the same numpy/BLAS build
with the same BLAS thread count (a different thread count can move the last
bits of trained weights); nothing here consults clocks or environment
variables.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import fields as dataclass_fields

import numpy as np

from . import gate as gate_mod
from . import metrics, synth, training, weaklabel
from .dialog import read_sessions, write_sessions
from .model import (
    DESK_CONFIG,
    DEPLOYED_CONFIG,
    TINY_CONFIG,
    PredictorConfig,
    Vocabulary,
    WindowDataset,
    init_params,
    load_checkpoint,
    predict_scores,
    save_checkpoint,
)

__all__ = ["main", "dispatch"]

_MODEL_PRESETS = {"desk": DESK_CONFIG, "deployed": DEPLOYED_CONFIG, "tiny": TINY_CONFIG}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(subcommand, primary_output, config, inputs, outputs, seed):
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "inputs": {name: str(path) for name, path in inputs.items()},
        "outputs": {str(path): _sha256(path) for path in outputs},
        "seed": seed,
    }
    path = str(primary_output) + ".manifest.json"
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("config file must hold a JSON object")
    return obj


def _take_fields(obj_cls, raw: dict) -> dict:
    names = {f.name for f in dataclass_fields(obj_cls)}
    return {k: v for k, v in raw.items() if k in names}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


# --- subcommands -----------------------------------------------------------


def _cmd_gen_corpus(args) -> int:
    raw = _load_config_file(args.config)
    config = synth.CorpusConfig.from_dict(_take_fields(synth.CorpusConfig, raw))
    if args.seed is not None:
        config = synth.CorpusConfig.from_dict({**config.to_dict(), "seed": args.seed})
    sessions = synth.generate(config)
    write_sessions(sessions, args.out)
    _write_manifest(
        "gen-corpus",
        args.out,
        config.to_dict(),
        {"config": args.config or ""},
        [args.out],
        config.seed,
    )
    return 0


def _cmd_extract_features(args) -> int:
    sessions = read_sessions(args.infile)
    extractor = weaklabel.FeatureExtractor.fit(sessions)
    X, index = weaklabel.features_matrix(sessions, extractor)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["session_id", "turn"] + list(weaklabel.FEATURE_NAMES))
        for row, (si, ti) in zip(X, index):
            writer.writerow([sessions[si].session_id, ti] + [_fmt(float(v)) for v in row])
    _write_manifest(
        "extract-features",
        args.out,
        {"extractor": extractor.to_dict()},
        {"in": args.infile},
        [args.out],
        None,
    )
    return 0


def _cmd_train_weak(args) -> int:
    sessions = read_sessions(args.labeled)
    labels = [session.labels(args.labels) for session in sessions]
    extractor = weaklabel.FeatureExtractor.fit(sessions)
    X, index = weaklabel.features_matrix(sessions, extractor)
    y = np.array([labels[si][ti] for si, ti in index], dtype=np.float64)
    if args.max_samples is not None and args.max_samples < len(y):
        keep = np.random.default_rng(args.seed or 0).permutation(len(y))[: args.max_samples]
        X, y = X[keep], y[keep]
    indices = weaklabel.CAUSAL_FEATURE_INDICES if args.features == "causal" else None
    model = weaklabel.train_weak_labeler(X, y, reg_strength=args.reg, feature_indices=indices)
    weaklabel.save_weak_model(args.out, model, extractor)
    _write_manifest(
        "train-weak",
        args.out,
        {
            "features": args.features,
            "labels": args.labels,
            "reg_strength": args.reg,
            "max_samples": args.max_samples,
            "n_samples": int(len(y)),
        },
        {"labeled": args.labeled},
        [args.out],
        args.seed,
    )
    return 0


def _cmd_label(args) -> int:
    model, extractor = weaklabel.load_weak_model(args.model)
    sessions = read_sessions(args.infile)
    labeled = weaklabel.label_corpus(model, extractor, sessions)
    write_sessions(labeled, args.out)
    _write_manifest(
        "label",
        args.out,
        {"model": str(args.model)},
        {"model": args.model, "in": args.infile},
        [args.out],
        None,
    )
    return 0


def _resolve_train_configs(raw: dict, seed_override):
    model_preset = raw.get("model_preset", "desk")
    if model_preset not in _MODEL_PRESETS:
        raise ValueError(f"unknown model_preset {model_preset!r}")
    model_dict = _MODEL_PRESETS[model_preset].to_dict()
    model_dict.update(_take_fields(PredictorConfig, raw))
    model_config = PredictorConfig.from_dict(model_dict)

    train_dict = {}
    if "batch_preset" in raw:
        batch_size, lr = training.BATCH_PRESETS[raw["batch_preset"]]
        train_dict.update({"batch_size": batch_size, "learning_rate": lr})
    train_dict.update(_take_fields(training.TrainConfig, raw))
    if seed_override is not None:
        train_dict["seed"] = seed_override
    tconfig = training.TrainConfig(**train_dict)
    label_source = raw.get("label_source", "weak")
    init_seed = int(raw.get("init_seed", 0))
    return model_config, tconfig, label_source, init_seed


def _cmd_train(args) -> int:
    raw = _load_config_file(args.config)
    model_config, tconfig, label_source, init_seed = _resolve_train_configs(raw, args.seed)
    train_sessions = read_sessions(args.corpus)
    val_sessions = read_sessions(args.val) if args.val else None

    if args.warm:
        model_config, vocab, params = load_checkpoint(args.warm)
    else:
        vocab = Vocabulary.build(train_sessions, model_config.vocab_size)
        params = init_params(model_config, vocab, seed=init_seed)

    train_ds = WindowDataset.from_sessions(train_sessions, vocab, model_config, label_source)
    val_ds = None
    if val_sessions is not None:
        val_ds = WindowDataset.from_sessions(val_sessions, vocab, model_config, "oracle")
    result = training.train(params, model_config, train_ds, val_ds, tconfig)
    save_checkpoint(args.out, model_config, vocab, result.params)

    outputs = [args.out]
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "step", "train_loss", "val_auc"])
            for row in result.trace:
                writer.writerow([row.epoch, row.step, _fmt(row.train_loss), _fmt(row.val_auc)])
        outputs.append(args.trace)

    _write_manifest(
        "train",
        args.out,
        {
            "model": model_config.to_dict(),
            "training": tconfig.to_dict(),
            "label_source": label_source,
            "init_seed": init_seed,
            "warm": str(args.warm) if args.warm else "",
            "best_val_auc": result.best_val_auc,
            "best_epoch": result.best_epoch,
        },
        {"corpus": args.corpus, "val": args.val or ""},
        outputs,
        tconfig.seed,
    )
    return 0


def _corpus_scores(ckpt_path, sessions, label_source="none"):
    model_config, vocab, params = load_checkpoint(ckpt_path)
    ds = WindowDataset.from_sessions(sessions, vocab, model_config, label_source)
    scores = predict_scores(params, model_config, ds.batch)
    per_session = [np.zeros(len(s.turns)) for s in sessions]
    for score, si, ti in zip(scores, ds.session_index, ds.turn_index):
        per_session[si][ti] = score
    return per_session, scores, ds


def _cmd_eval(args) -> int:
    sessions = read_sessions(args.corpus)
    # Oracle labels make the dataset reject, by name, a session that lacks them.
    _, scores, ds = _corpus_scores(args.ckpt, sessions, "oracle")
    labels = ds.labels.astype(np.int64)
    rows = [
        ("n_turns", float(len(labels))),
        ("auc", metrics.auc(scores, labels)),
        ("cla", metrics.cla(scores, labels, precision_floor=args.precision_floor)),
    ]
    acc, threshold = metrics.accuracy_with_tuned_threshold(scores, labels)
    rows += [("accuracy", acc), ("accuracy_threshold", threshold)]
    with open(args.report, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for name, value in rows:
            writer.writerow([name, _fmt(value)])
    pr_path = str(args.report) + ".pr.csv"
    with open(pr_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "precision", "recall"])
        for t, precision, recall in metrics.precision_recall_table(scores, labels):
            writer.writerow([_fmt(t), _fmt(precision), _fmt(recall)])
    _write_manifest(
        "eval",
        args.report,
        {"precision_floor": args.precision_floor},
        {"ckpt": args.ckpt, "corpus": args.corpus},
        [args.report, pr_path],
        None,
    )
    return 0


def _cmd_simulate(args) -> int:
    spec = _load_config_file(args.variants)
    sessions = read_sessions(args.corpus)
    default_threshold = float(spec.get("threshold", 0.7))
    behavior = gate_mod.BehaviorModel(
        p_fix=float(spec.get("p_fix", 0.8)), p_annoy=float(spec.get("p_annoy", 0.5))
    )
    variants = []
    for entry in spec.get("variants", []):
        name = entry["name"]
        kind = entry.get("kind", "none")
        threshold = float(entry.get("threshold", default_threshold))
        if kind == "none":
            scores = None
        elif kind == "weak":
            model, extractor = weaklabel.load_weak_model(entry["model"])
            scores = weaklabel.weak_label_sessions(model, extractor, sessions)
        elif kind == "transformer":
            scores, _, _ = _corpus_scores(entry["ckpt"], sessions)
        else:
            raise ValueError(f"unknown variant kind {kind!r}")
        variants.append(gate_mod.Variant(name=name, scores=scores, threshold=threshold))
    if not variants:
        raise ValueError("variants config names no variants")

    reports = gate_mod.simulate_ab(
        sessions,
        variants,
        behavior=behavior,
        seed=args.seed or 0,
        rating_source=spec.get("rating_source", "oracle"),
        partition_weights=spec.get("partition_weights"),
        paired=bool(spec.get("paired", False)),
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "avg_cus", "clarification_rate", "n_sessions"])
        for report in reports:
            writer.writerow(
                [report.name, _fmt(report.avg_cus), _fmt(report.clarification_rate), report.n_sessions]
            )
    _write_manifest(
        "simulate",
        args.out,
        {
            "threshold": default_threshold,
            "p_fix": behavior.p_fix,
            "p_annoy": behavior.p_annoy,
            "rating_source": spec.get("rating_source", "oracle"),
            "partition_weights": spec.get("partition_weights"),
            "paired": bool(spec.get("paired", False)),
            "variants": [v.name for v in variants],
        },
        {"corpus": args.corpus, "variants": args.variants},
        [args.out],
        args.seed or 0,
    )
    return 0


# --- parser ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satgate",
        description="Turn-satisfaction prediction and clarification gating pipeline.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic dialogue corpus")
    p.add_argument("--config", default=None, help="flat JSON corpus config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("extract-features", help="write the 21 weak-label features as CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract_features)

    p = sub.add_parser("train-weak", help="train the logistic weak labeler")
    p.add_argument("--labeled", required=True, help="corpus with labels")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--features", choices=["all", "causal"], default="all")
    p.add_argument("--labels", choices=["oracle", "weak"], default="oracle")
    p.add_argument("--reg", type=float, default=1.0)
    p.add_argument("--max-samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train_weak)

    p = sub.add_parser("label", help="attach weak labels to a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("train", help="train the transformer predictor")
    p.add_argument("--config", default=None, help="flat JSON model+training config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--val", default=None)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--warm", default=None, help="checkpoint to warm-start from")
    p.add_argument("--trace", default=None, help="training trace CSV path")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint against oracle labels")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--precision-floor", type=float, default=0.85)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="A/B replay of gating variants")
    p.add_argument("--corpus", required=True)
    p.add_argument("--variants", required=True, help="variants JSON")
    p.add_argument("--out", required=True, help="report CSV")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)
    return parser


def dispatch(argv) -> int:
    """Run one subcommand; 0 on success, 2 on usage errors, 1 otherwise."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # one-line machine-parsable failure
        print(f"satgate: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
