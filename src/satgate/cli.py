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
import functools
import hashlib
import json
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
from .model.checkpoint import _replace_file

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
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _replace_file(str(primary_output) + ".manifest.json", [text.encode("utf-8")])


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return obj


def _field_names(obj_cls) -> set[str]:
    return {f.name for f in dataclass_fields(obj_cls)}


def _check_keys(raw: dict, accepted, where: str) -> None:
    """A misspelt or retired setting fails here instead of taking its default."""
    unknown = sorted(set(raw) - set(accepted))
    if unknown:
        raise ValueError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"accepted keys: {', '.join(sorted(accepted))}"
        )


def _json_number(obj: dict, key: str, default: float, where: str) -> float:
    """``obj[key]`` (``default`` when absent) as a float; a boolean or a
    string fails here instead of being coerced."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: {key!r} must be a JSON number, got {value!r}")
    return float(value)


def _json_string(obj: dict, key: str, default, where: str) -> str:
    """``obj[key]`` (``default`` when absent), which must be a JSON string:
    another type fails here, naming the key, instead of deep in the run (a
    number given as a path would even open that file descriptor)."""
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"{where}: {key!r} must be a JSON string, got {value!r}")
    return value


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and then each row of ``rows`` to ``path`` as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --- subcommands -----------------------------------------------------------


def _cmd_gen_corpus(args) -> int:
    raw = _load_config_file(args.config)
    _check_keys(raw, _field_names(synth.CorpusConfig), "gen-corpus config")
    config = synth.CorpusConfig.from_dict(raw)  # checks each catalog entry is an object
    for i, entry in enumerate(raw.get("domain_catalog") or ()):
        _check_keys(entry, _field_names(synth.DomainSpec), f"gen-corpus config domain_catalog[{i}]")
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
    rows = ([sessions[si].session_id, ti] + [_fmt(float(v)) for v in row]
            for row, (si, ti) in zip(X, index))
    _write_csv(args.out, ["session_id", "turn", *weaklabel.FEATURE_NAMES], rows)
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
    if args.max_samples is not None and args.max_samples < 1:
        raise ValueError(f"--max-samples must be at least 1, got {args.max_samples}")
    sessions = read_sessions(args.labeled)
    # Corpus order, as features_matrix's rows.
    y = np.concatenate([np.zeros(0), *(session.labels(args.labels) for session in sessions)])
    extractor = weaklabel.FeatureExtractor.fit(sessions)
    X, _ = weaklabel.features_matrix(sessions, extractor)
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
    model_keys = _field_names(PredictorConfig)
    train_keys = _field_names(training.TrainConfig)
    other_keys = {"model_preset", "batch_preset", "label_source", "init_seed"}
    _check_keys(raw, model_keys | train_keys | other_keys, "train config")
    model_preset = _json_string(raw, "model_preset", "desk", "train config")
    if model_preset not in _MODEL_PRESETS:
        raise ValueError(f"unknown model_preset {model_preset!r}")
    model_dict = _MODEL_PRESETS[model_preset].to_dict()
    model_dict.update({k: v for k, v in raw.items() if k in model_keys})
    model_config = PredictorConfig.from_dict(model_dict)

    train_dict = {k: v for k, v in raw.items() if k in train_keys}
    if seed_override is not None:
        train_dict["seed"] = seed_override
    if "batch_preset" in raw:
        batch_preset = _json_string(raw, "batch_preset", None, "train config")
        tconfig = training.TrainConfig.from_preset(batch_preset, **train_dict)
    else:
        tconfig = training.TrainConfig(**train_dict)
    label_source = raw.get("label_source", "weak")
    init_seed = raw.get("init_seed", 0)
    if isinstance(init_seed, bool) or not isinstance(init_seed, int) or init_seed < 0:
        raise ValueError(f"train config: 'init_seed' must be a JSON integer >= 0, got {init_seed!r}")
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
        rows = ([r.epoch, r.step, _fmt(r.train_loss), _fmt(r.val_auc)] for r in result.trace)
        _write_csv(args.trace, ["epoch", "step", "train_loss", "val_auc"], rows)
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
    """The checkpoint's score for each corpus turn, in corpus order, and the dataset it scored."""
    model_config, vocab, params = load_checkpoint(ckpt_path)
    ds = WindowDataset.from_sessions(sessions, vocab, model_config, label_source)
    return predict_scores(params, model_config, ds.batch), ds


def _cmd_eval(args) -> int:
    sessions = read_sessions(args.corpus)
    # Oracle labels make the dataset reject, by name, a session that lacks them.
    scores, ds = _corpus_scores(args.ckpt, sessions, "oracle")
    labels = ds.labels.astype(np.int64)
    rows = [
        ("n_turns", float(len(labels))),
        ("auc", metrics.auc(scores, labels)),
        ("cla", metrics.cla(scores, labels, precision_floor=args.precision_floor)),
    ]
    acc, threshold = metrics.accuracy_with_tuned_threshold(scores, labels)
    rows += [("accuracy", acc), ("accuracy_threshold", threshold)]
    _write_csv(args.report, ["metric", "value"], [[name, _fmt(value)] for name, value in rows])
    pr_path = str(args.report) + ".pr.csv"
    pr_rows = ([_fmt(v) for v in row] for row in metrics.precision_recall_table(scores, labels))
    _write_csv(pr_path, ["threshold", "precision", "recall"], pr_rows)
    _write_manifest(
        "eval",
        args.report,
        {"precision_floor": args.precision_floor},
        {"ckpt": args.ckpt, "corpus": args.corpus},
        [args.report, pr_path],
        None,
    )
    return 0


_SIMULATE_KEYS = ("threshold", "p_fix", "p_annoy", "variants", "rating_source",
                  "partition_weights", "paired")
# Keys of a variant entry, by kind: every kind takes name, kind and threshold.
_VARIANT_KEYS = {"none": (), "weak": ("model",), "transformer": ("ckpt",)}


def _variant_entries(spec: dict) -> list[dict]:
    """The spec's variant entries, each checked to be an object of a known
    kind holding its kind's required fields and no unknown key."""
    entries = spec.get("variants", [])
    if not isinstance(entries, list):
        raise ValueError(
            f"simulate variants spec: 'variants' must be a JSON array of variant objects, "
            f"got {type(entries).__name__}"
        )
    for i, entry in enumerate(entries):
        where = f"simulate variants[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: must be a JSON object, got {type(entry).__name__}")
        kind = _json_string(entry, "kind", "none", where)
        if kind not in _VARIANT_KEYS:
            raise ValueError(f"{where}: unknown variant kind {kind!r}")
        for field in ("name", *_VARIANT_KEYS[kind]):
            if field not in entry:
                raise ValueError(f"{where}: missing required field {field!r}")
            _json_string(entry, field, None, where)
        _check_keys(entry, ("name", "kind", "threshold", *_VARIANT_KEYS[kind]),
                    f"simulate variant {entry['name']!r}")
    return entries


def _partition_weights(spec: dict, n_variants: int):
    """The spec's ``partition_weights``: absent or null, or a JSON array of
    numbers with one per variant (their values are checked by the replay)."""
    where = "simulate variants spec"
    weights = spec.get("partition_weights")
    if weights is None:
        return None
    if not isinstance(weights, list):
        raise ValueError(f"{where}: 'partition_weights' must be a JSON array of numbers, "
                         f"got {type(weights).__name__}")
    if len(weights) != n_variants:
        raise ValueError(f"{where}: 'partition_weights' holds {len(weights)} weights, "
                         f"but 'variants' holds {n_variants} entries")
    for i, weight in enumerate(weights):
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ValueError(f"{where}: 'partition_weights[{i}]' must be a JSON number, "
                             f"got {weight!r}")
    return weights


def _cmd_simulate(args) -> int:
    spec = _load_config_file(args.variants)
    _check_keys(spec, _SIMULATE_KEYS, "simulate variants spec")
    entries = _variant_entries(spec)
    where = "simulate variants spec"
    settings = {
        "threshold": _json_number(spec, "threshold", 0.7, where),
        "p_fix": _json_number(spec, "p_fix", 0.8, where),
        "p_annoy": _json_number(spec, "p_annoy", 0.5, where),
        "rating_source": _json_string(spec, "rating_source", "oracle", where),
        "partition_weights": _partition_weights(spec, len(entries)),
        "paired": spec.get("paired", False),
    }
    if not isinstance(settings["paired"], bool):
        raise ValueError(f"{where}: 'paired' must be a JSON boolean, got {settings['paired']!r}")
    if settings["rating_source"] not in ("oracle", "weak"):
        raise ValueError(f"{where}: 'rating_source' must be \"oracle\" or \"weak\", "
                         f"got {settings['rating_source']!r}")
    thresholds = [_json_number(entry, "threshold", settings["threshold"],
                               f"simulate variant {entry['name']!r}") for entry in entries]
    sessions = read_sessions(args.corpus)
    behavior = gate_mod.BehaviorModel(p_fix=settings["p_fix"], p_annoy=settings["p_annoy"])
    variants = []
    for entry, threshold in zip(entries, thresholds):
        kind = entry.get("kind", "none")
        if kind == "none":
            scores = None
        elif kind == "weak":
            model, extractor = weaklabel.load_weak_model(entry["model"])
            scores = weaklabel.weak_label_sessions(model, extractor, sessions)
        else:
            scores, _ = _corpus_scores(entry["ckpt"], sessions)
        variants.append(gate_mod.Variant(name=entry["name"], scores=scores, threshold=threshold))
    if not variants:
        raise ValueError("variants config names no variants")

    reports = gate_mod.simulate_ab(
        sessions,
        variants,
        behavior=behavior,
        seed=args.seed or 0,
        rating_source=settings["rating_source"],
        partition_weights=settings["partition_weights"],
        paired=settings["paired"],
    )
    rows = ([r.name, _fmt(r.avg_cus), _fmt(r.clarification_rate), r.n_sessions] for r in reports)
    _write_csv(args.out, ["variant", "avg_cus", "clarification_rate", "n_sessions"], rows)
    _write_manifest(
        "simulate",
        args.out,
        {**settings, "variants": [v.name for v in variants]},
        {"corpus": args.corpus, "variants": args.variants},
        [args.out],
        args.seed or 0,
    )
    return 0


# --- parser ----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: the parser of a command that
    builds a corpus is alive during the build, so the build freezes it, and
    a parser built per command would add one to the permanent generation
    with every build."""
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
