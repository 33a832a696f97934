import contextlib
import csv
import gc
import io
import json
import os
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from satgate.cli import dispatch
from satgate.dialog import Session, read_sessions, write_sessions
from satgate.synth import DEFAULT_CATALOG

from conftest import mutate_json


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def corpus_path(workdir):
    config = workdir / "corpus.json"
    config.write_text(json.dumps({"seed": 7, "num_sessions": 60}))
    out = workdir / "corpus.jsonl"
    assert dispatch(["gen-corpus", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def weak_model_path(workdir, corpus_path):
    out = workdir / "weak.json"
    code = dispatch(["train-weak", "--labeled", str(corpus_path), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def labeled_path(workdir, corpus_path, weak_model_path):
    out = workdir / "labeled.jsonl"
    code = dispatch([
        "label", "--model", str(weak_model_path), "--in", str(corpus_path), "--out", str(out)
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def ckpt_path(workdir, labeled_path):
    config = workdir / "train.json"
    config.write_text(json.dumps({
        "model_preset": "tiny",
        "batch_size": 64,
        "learning_rate": 0.005,
        "epochs": 1,
        "label_source": "weak",
    }))
    out = workdir / "model.ckpt"
    trace = workdir / "trace.csv"
    code = dispatch([
        "train", "--config", str(config), "--corpus", str(labeled_path),
        "--val", str(labeled_path), "--out", str(out), "--trace", str(trace),
    ])
    assert code == 0
    return out


def test_no_arguments_is_usage_error():
    assert dispatch([]) == 2


def test_unknown_subcommand_is_usage_error():
    assert dispatch(["frobnicate"]) == 2


def test_missing_required_flag_is_usage_error():
    assert dispatch(["gen-corpus"]) == 2


def test_repeated_dispatch_does_not_grow_the_permanent_generation(tmp_path, corpus_path):
    """Each corpus build freezes every object the process tracks, so garbage
    that a command leaves behind (a usage error's traceback, a spent parser,
    json's indenting encoder) would grow the permanent generation with every
    later build unless the build collects it first. With the collector off,
    five more rounds of usage errors, a failing command and ``train-weak``,
    each followed by a read, leave it flat."""
    fail = ["label", "--model", str(tmp_path / "missing.json"), "--in", str(corpus_path),
            "--out", str(tmp_path / "labeled.jsonl")]
    train_weak = ["train-weak", "--labeled", str(corpus_path), "--out", str(tmp_path / "w.json")]

    def commands():
        assert dispatch([]) == 2
        assert dispatch(["gen-corpus"]) == 2
        assert dispatch(["frobnicate"]) == 2
        assert dispatch(fail) == 1
        assert dispatch(train_weak) == 0
        read_sessions(corpus_path)

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):  # builds the parser and fills lazy caches
            commands()
        frozen = gc.get_freeze_count()
        for _ in range(5):
            commands()
        assert gc.get_freeze_count() == frozen
    finally:
        if was_enabled:
            gc.enable()


def test_repeated_successful_dispatch_does_not_grow_the_permanent_generation(tmp_path,
                                                                             workdir, corpus_path):
    """A successful command writes a manifest, and its next corpus build
    freezes whatever garbage the process holds: with the collector off, five
    more ``gen-corpus`` runs, each building a corpus and writing a manifest,
    leave the permanent generation flat."""
    run = ["gen-corpus", "--config", str(workdir / "corpus.json"), "--out", str(tmp_path / "c.jsonl")]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):  # builds the parser and fills lazy caches
            assert dispatch(run) == 0
        frozen = gc.get_freeze_count()
        for _ in range(5):
            assert dispatch(run) == 0
        assert gc.get_freeze_count() == frozen
    finally:
        if was_enabled:
            gc.enable()


def test_every_manifest_is_indented_sorted_json(tmp_path, workdir, corpus_path, weak_model_path,
                                               labeled_path, ckpt_path):
    """Each subcommand's manifest holds the bytes of ``json.dumps(manifest,
    indent=2, sort_keys=True)`` and a newline."""
    variants = tmp_path / "variants.json"
    variants.write_text(json.dumps({"threshold": 0.7, "variants": [
        {"name": "no-predictor", "kind": "none"},
        {"name": "feature-baseline", "kind": "weak", "model": str(weak_model_path)},
        {"name": "transformer", "kind": "transformer", "ckpt": str(ckpt_path)},
    ]}))
    for argv in (
        ["extract-features", "--in", corpus_path, "--out", tmp_path / "features.csv"],
        ["eval", "--ckpt", ckpt_path, "--corpus", corpus_path, "--report", tmp_path / "eval.csv"],
        ["simulate", "--corpus", labeled_path, "--variants", variants,
         "--out", tmp_path / "sim.csv", "--seed", "5"],
    ):
        assert dispatch(list(map(str, argv))) == 0
    paths = sorted(workdir.glob("*.manifest.json")) + sorted(tmp_path.glob("*.manifest.json"))
    subcommands = set()
    for path in paths:
        data = path.read_bytes()
        manifest = json.loads(data)
        subcommands.add(manifest["subcommand"])
        assert data == (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(), path.name
    assert {"gen-corpus", "train-weak", "label", "train", "extract-features", "eval",
            "simulate"} <= subcommands


def test_failed_manifest_write_leaves_the_old_manifest_and_no_temporary_file(
        tmp_path, corpus_path, monkeypatch, capsys):
    """A manifest is written to a file of its own and renamed over the old
    one, so a run that fails to rename leaves the old manifest whole and no
    temporary file."""
    argv = ["extract-features", "--in", str(corpus_path), "--out", str(tmp_path / "f.csv")]
    assert dispatch(argv) == 0
    manifest = tmp_path / "f.csv.manifest.json"
    first = manifest.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    assert dispatch(argv) == 1
    assert "satgate: error: OSError: rename failed" in capsys.readouterr().err
    assert manifest.read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv", "f.csv.manifest.json"]


def test_gen_corpus_deterministic_rerun(workdir, corpus_path):
    again = workdir / "corpus2.jsonl"
    config = workdir / "corpus.json"
    assert dispatch(["gen-corpus", "--config", str(config), "--out", str(again)]) == 0
    assert again.read_bytes() == corpus_path.read_bytes()
    with open(str(corpus_path) + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["subcommand"] == "gen-corpus"
    assert str(corpus_path) in manifest["outputs"]


def test_gen_corpus_seed_override(workdir):
    config = workdir / "corpus.json"
    out = workdir / "corpus-seeded.jsonl"
    assert dispatch(["gen-corpus", "--config", str(config), "--out", str(out), "--seed", "123"]) == 0
    sessions = read_sessions(out)
    assert sessions != read_sessions(workdir / "corpus.jsonl")


def test_extract_features_csv(workdir, corpus_path):
    out = workdir / "features.csv"
    assert dispatch(["extract-features", "--in", str(corpus_path), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["session_id", "turn"]
    assert len(rows[0]) == 2 + 21
    n_turns = sum(len(s.turns) for s in read_sessions(corpus_path))
    assert len(rows) == 1 + n_turns


def test_label_attaches_weak_labels(labeled_path):
    sessions = read_sessions(labeled_path)
    assert all(s.weak_labels is not None for s in sessions)
    assert all(len(s.weak_labels) == len(s.turns) for s in sessions)


def test_label_rerun_byte_identical(workdir, corpus_path, weak_model_path, labeled_path):
    again = workdir / "labeled2.jsonl"
    code = dispatch([
        "label", "--model", str(weak_model_path), "--in", str(corpus_path), "--out", str(again)
    ])
    assert code == 0
    assert again.read_bytes() == labeled_path.read_bytes()


def test_label_with_a_malformed_weak_model_fails_naming_the_field(tmp_path, corpus_path, capsys):
    """A weak model whose popularity value is a string fails at load, as one
    line naming the entry, and writes no output."""
    model = tmp_path / "weak.json"
    model.write_text(json.dumps({
        "format_version": 3, "weights": [0.0] * 21, "bias": 0.0,
        "extractor": {"domain_popularity": {"music": "abc"}, "intent_popularity": {}},
    }))
    out = tmp_path / "labeled.jsonl"
    assert dispatch(["label", "--model", str(model), "--in", str(corpus_path),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("satgate: error: WeakModelError: weak model field "
                   "'extractor.domain_popularity.music': expected a finite number, got string\n")
    assert not out.exists()


def test_train_writes_checkpoint_manifest_and_trace(workdir, ckpt_path):
    assert ckpt_path.exists()
    manifest = json.loads(open(str(ckpt_path) + ".manifest.json").read())
    assert manifest["subcommand"] == "train"
    assert manifest["config"]["model"]["embed_dim"] == 8
    with open(workdir / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "step", "train_loss", "val_auc"]
    assert len(rows) > 1


def test_eval_report(workdir, ckpt_path, corpus_path):
    report = workdir / "report.csv"
    code = dispatch([
        "eval", "--ckpt", str(ckpt_path), "--corpus", str(corpus_path), "--report", str(report)
    ])
    assert code == 0
    with open(report) as fh:
        rows = {r[0]: r[1] for r in csv.reader(fh)}
    assert {"auc", "cla", "accuracy", "accuracy_threshold"} <= set(rows)
    assert 0.0 <= float(rows["auc"]) <= 1.0
    pr = workdir / "report.csv.pr.csv"
    with open(pr) as fh:
        pr_rows = list(csv.reader(fh))
    assert pr_rows[0] == ["threshold", "precision", "recall"]
    assert len(pr_rows) == 1 + 101


def test_eval_rejects_corpus_without_oracle_labels(workdir, ckpt_path, corpus_path, capsys):
    sessions = read_sessions(corpus_path)
    unlabeled = sessions[2].session_id
    sessions[2] = Session(unlabeled, sessions[2].turns)
    corpus = workdir / "no-oracle.jsonl"
    write_sessions(sessions, corpus)
    code = dispatch([
        "eval", "--ckpt", str(ckpt_path), "--corpus", str(corpus),
        "--report", str(workdir / "no-oracle.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("satgate: error: ValueError:")
    assert f"session {unlabeled} has no oracle labels" in err


@pytest.mark.parametrize("labels", ["oracle", "weak"])
def test_train_weak_rejects_corpus_without_the_labels(workdir, corpus_path, labels, capsys):
    sessions = read_sessions(corpus_path)
    unlabeled = sessions[3].session_id
    sessions = [s.with_weak_labels([0.5] * len(s.turns)) for s in sessions]
    sessions[3] = Session(unlabeled, sessions[3].turns)
    corpus = workdir / f"no-{labels}.jsonl"
    write_sessions(sessions, corpus)
    code = dispatch([
        "train-weak", "--labeled", str(corpus), "--out", str(workdir / f"no-{labels}.json"),
        "--labels", labels,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"satgate: error: ValueError: session {unlabeled} has no {labels} labels" in err


@pytest.mark.parametrize("max_samples", ["0", "-5"])
def test_train_weak_rejects_max_samples_below_one(workdir, corpus_path, max_samples, capsys):
    out = workdir / "few-samples.json"
    code = dispatch(["train-weak", "--labeled", str(corpus_path), "--out", str(out),
                     "--max-samples", max_samples])
    assert code == 1
    assert capsys.readouterr().err == (
        f"satgate: error: ValueError: --max-samples must be at least 1, got {max_samples}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("paired", [True, False])
def test_simulate_replay_and_manifest_read_the_same_paired(workdir, labeled_path, paired):
    """Paired, each variant replays all 60 sessions; split, they share them."""
    variants = workdir / "paired.json"
    variants.write_text(json.dumps({"paired": paired, "variants": [{"name": "a"}, {"name": "b"}]}))
    out = workdir / "paired.csv"
    code = dispatch(["simulate", "--corpus", str(labeled_path), "--variants", str(variants),
                     "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        counts = [int(row["n_sessions"]) for row in csv.DictReader(fh)]
    if paired:
        assert counts == [60, 60]
    else:
        assert sum(counts) == 60 and min(counts) > 0
    manifest = json.loads((workdir / "paired.csv.manifest.json").read_text())
    assert manifest["config"]["paired"] is paired


@pytest.mark.parametrize("paired", ["false", 0, None])
def test_simulate_rejects_paired_that_is_not_a_json_boolean(workdir, labeled_path, capsys, paired):
    variants = workdir / "bad-paired.json"
    variants.write_text(json.dumps({"paired": paired, "variants": [{"name": "a"}]}))
    out = workdir / "bad-paired.csv"
    code = dispatch(["simulate", "--corpus", str(labeled_path), "--variants", str(variants),
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "satgate: error: ValueError: simulate variants spec: 'paired' must be a JSON boolean, "
        f"got {paired!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    pytest.param({"threshold": "0.7"}, "simulate variants spec: 'threshold' must be a JSON number, "
                 "got '0.7'", id="threshold-string"),
    pytest.param({"p_fix": True}, "simulate variants spec: 'p_fix' must be a JSON number, got True",
                 id="p_fix-boolean"),
    pytest.param({"p_annoy": "x"}, "simulate variants spec: 'p_annoy' must be a JSON number, "
                 "got 'x'", id="p_annoy-string"),
    pytest.param({"variants": [{"name": "a"}, {"name": "b", "threshold": False}]},
                 "simulate variant 'b': 'threshold' must be a JSON number, got False",
                 id="variant-threshold-boolean"),
])
def test_simulate_rejects_settings_that_are_not_json_numbers(workdir, labeled_path, capsys,
                                                             spec, message):
    path = workdir / "bad-number.json"
    path.write_text(json.dumps({"variants": [{"name": "a"}], **spec}))
    out = workdir / "bad-number.csv"
    code = dispatch(["simulate", "--corpus", str(labeled_path), "--variants", str(path),
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"satgate: error: ValueError: {message}\n"
    assert not out.exists()


def test_simulate_takes_json_integers_as_numbers(workdir, labeled_path):
    path = workdir / "int-settings.json"
    path.write_text(json.dumps({"threshold": 1, "p_fix": 1, "p_annoy": 0,
                                "variants": [{"name": "a", "threshold": 0}]}))
    out = workdir / "int-settings.csv"
    assert dispatch(["simulate", "--corpus", str(labeled_path), "--variants", str(path),
                     "--out", str(out)]) == 0
    config = json.loads((workdir / "int-settings.csv.manifest.json").read_text())["config"]
    assert (config["threshold"], config["p_fix"], config["p_annoy"]) == (1.0, 1.0, 0.0)


@pytest.mark.parametrize("init_seed", [2.7, "3", True, -1, None])
def test_train_rejects_init_seed_that_is_not_a_json_integer(workdir, labeled_path, capsys,
                                                            init_seed):
    path = workdir / "bad-init-seed.json"
    path.write_text(json.dumps({"model_preset": "tiny", "init_seed": init_seed}))
    out = workdir / "bad-init-seed.ckpt"
    code = dispatch(["train", "--config", str(path), "--corpus", str(labeled_path),
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        "satgate: error: ValueError: train config: 'init_seed' must be a JSON integer >= 0, "
        f"got {init_seed!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("seed", 2.7), ("seed", True), ("learning_rate", True)])
def test_train_rejects_wrongly_typed_train_settings(workdir, labeled_path, capsys, key, value):
    path = workdir / "bad-train-setting.json"
    path.write_text(json.dumps({"model_preset": "tiny", key: value}))
    out = workdir / "bad-train-setting.ckpt"
    code = dispatch(["train", "--config", str(path), "--corpus", str(labeled_path),
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"satgate: error: ValueError: {key} must be ")
    assert not out.exists()


def test_simulate_report(workdir, ckpt_path, weak_model_path, labeled_path):
    variants = workdir / "variants.json"
    variants.write_text(json.dumps({
        "threshold": 0.7,
        "variants": [
            {"name": "no-predictor", "kind": "none"},
            {"name": "feature-baseline", "kind": "weak", "model": str(weak_model_path)},
            {"name": "transformer", "kind": "transformer", "ckpt": str(ckpt_path)},
        ],
    }))
    out = workdir / "sim.csv"
    code = dispatch([
        "simulate", "--corpus", str(labeled_path), "--variants", str(variants),
        "--out", str(out), "--seed", "5",
    ])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variant", "avg_cus", "clarification_rate", "n_sessions"]
    assert len(rows) == 4
    names = {r[0] for r in rows[1:]}
    assert names == {"no-predictor", "feature-baseline", "transformer"}


def test_runtime_error_exits_one(workdir, capsys):
    code = dispatch(["eval", "--ckpt", str(workdir / "missing.ckpt"),
                     "--corpus", str(workdir / "missing.jsonl"),
                     "--report", str(workdir / "r.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("satgate: error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["gen-corpus", "train", "simulate"])
@pytest.mark.parametrize("content, problem", [
    (b'{"seed": 1,', "Expecting property name"),
    (b'{"seed": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
])
def test_unreadable_config_file_fails_naming_it(tmp_path, labeled_path, capsys, command,
                                                content, problem):
    """A config file that is not UTF-8 or not JSON fails as a ValueError
    that names the file."""
    config = tmp_path / "bad-config.json"
    config.write_bytes(content)
    flag = "--variants" if command == "simulate" else "--config"
    argv = [command, flag, str(config), "--out", str(tmp_path / "out")]
    if command != "gen-corpus":
        argv += ["--corpus", str(labeled_path)]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"satgate: error: ValueError: config file {config}: {problem}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command, config, key", [
    ("gen-corpus", {"seed": 1, "num_sesions": 5}, "num_sesions"),  # typo
    ("gen-corpus", {"seed": 1, "continue_prob": 0.7}, "continue_prob"),  # retired setting
    ("gen-corpus", {"domain_catalog": [{**asdict(DEFAULT_CATALOG[0]), "template": ["x"]}]},
     "template"),
    ("train", {"model_preset": "tiny", "epoch": 1}, "epoch"),
    ("train", {"model_preset": "tiny", "microbatch": 64}, "microbatch"),
    ("simulate", {"treshold": 0.7, "variants": [{"name": "none"}]}, "treshold"),
    ("simulate", {"variants": [{"name": "t", "knd": "transformer", "ckpt": "x"}]}, "knd"),
])
def test_config_file_with_unknown_key_fails_naming_it(workdir, labeled_path, capsys,
                                                      command, config, key):
    path = workdir / "bad-config.json"
    path.write_text(json.dumps(config))
    out = workdir / "bad-out"
    args = {
        "gen-corpus": ["--config", path, "--out", out],
        "train": ["--config", path, "--corpus", labeled_path, "--out", out],
        "simulate": ["--corpus", labeled_path, "--variants", path, "--out", out],
    }[command]
    assert dispatch([command, *map(str, args)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"satgate: error: ValueError: {command} ")
    assert "unknown key(s)" in err and repr(key) in err.split("accepted keys")[0]
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    pytest.param({"variants": [{"kind": "none"}]},
                 "simulate variants[0]: missing required field 'name'", id="no-name"),
    pytest.param({"variants": [{"name": "n", "kind": "none"}, {"name": "t", "kind": "transformer"}]},
                 "simulate variants[1]: missing required field 'ckpt'", id="no-ckpt"),
    pytest.param({"variants": {"n": {"kind": "none"}}},
                 "simulate variants spec: 'variants' must be a JSON array of variant objects, "
                 "got dict", id="variants-object"),
    pytest.param({"variants": ["none"]},
                 "simulate variants[0]: must be a JSON object, got str", id="entry-string"),
])
def test_simulate_rejects_malformed_variants_naming_the_entry(workdir, labeled_path, capsys,
                                                              spec, message):
    path = workdir / "bad-variants.json"
    path.write_text(json.dumps(spec))
    out = workdir / "bad-sim.csv"
    code = dispatch(["simulate", "--corpus", str(labeled_path), "--variants", str(path),
                     "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"satgate: error: ValueError: {message}\n"
    assert not out.exists()


def test_train_rejects_unknown_batch_preset(workdir, labeled_path, capsys):
    path = workdir / "bad-preset.json"
    path.write_text(json.dumps({"model_preset": "tiny", "batch_preset": "desk-xx"}))
    code = dispatch(["train", "--config", str(path), "--corpus", str(labeled_path),
                     "--out", str(workdir / "bad-preset.ckpt")])
    assert code == 1
    assert "ValueError: unknown batch_preset 'desk-xx'; known presets:" in capsys.readouterr().err


def _field_label(path, kind) -> str:
    """How an error names the config field that mutation ``kind`` changed at
    ``path``: an object key by itself; an array element as ``key[index]``,
    or, when it was deleted, the array's key (a shorter array can fail only
    as a whole); the whole file as what it must be."""
    if not path:
        return "must hold a JSON object"
    if isinstance(path[-1], int):
        return path[-2] if kind == "delete" else f"{path[-2]}[{path[-1]}]"
    return path[-1]


@settings(max_examples=240, deadline=None, derandomize=True)
@given(st.data())
def test_every_mutated_config_fails_with_a_value_error_naming_its_field(
        workdir, labeled_path, weak_model_path, ckpt_path, data):
    """Deleting any key of a gen-corpus, train or simulate config file, or
    giving any value another JSON type, either still runs or fails with a
    ValueError that names the mutated field or one inside it; no
    TypeError, KeyError or AttributeError escapes."""
    configs = {
        "gen-corpus": {"seed": 3, "num_sessions": 4, "turns_min": 2, "turns_max": 4,
                       "asr_error_rate": 0.1, "nlu_error_rate": 0.05, "user_error_rate": 0.05,
                       "domain_catalog": [asdict(spec) for spec in DEFAULT_CATALOG[:3]]},
        "train": {"model_preset": "tiny", "batch_preset": "desk-sb", "batch_size": 64,
                  "learning_rate": 0.005, "epochs": 1, "seed": 2, "label_source": "weak",
                  "init_seed": 1, "embed_dim": 8, "num_heads": 2},
        "simulate": {"threshold": 0.7, "p_fix": 0.8, "p_annoy": 0.5, "rating_source": "oracle",
                     "partition_weights": [1.0, 1.0, 2.0], "paired": False, "variants": [
                         {"name": "no-predictor", "kind": "none"},
                         {"name": "feature-baseline", "kind": "weak",
                          "model": str(weak_model_path)},
                         {"name": "transformer", "kind": "transformer", "ckpt": str(ckpt_path),
                          "threshold": 0.6}]},
    }
    command = data.draw(st.sampled_from(sorted(configs)))
    kind = data.draw(st.sampled_from(["delete", "retype"]))
    config, mutated = mutate_json(data, json.loads(json.dumps(configs[command])), kind,
                                  lambda path: True)
    path, out = workdir / "mutated-config.json", workdir / "mutated-out"
    path.write_text(json.dumps(config))
    args = {
        "gen-corpus": ["--config", path, "--out", out],
        "train": ["--config", path, "--corpus", labeled_path, "--out", out],
        "simulate": ["--corpus", labeled_path, "--variants", path, "--out", out],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dispatch([command, *map(str, args)])
    if code:
        message = err.getvalue()
        assert message.startswith("satgate: error: ValueError: "), (mutated, message)
        assert _field_label(mutated, kind) in message, (mutated, message)
