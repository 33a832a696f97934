import csv
import json

import pytest

from satgate.cli import dispatch
from satgate.dialog import Session, read_sessions, write_sessions


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
