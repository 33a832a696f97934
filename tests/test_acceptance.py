"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and measured values. The end-to-end fixture (criterion 5) is
shared with criterion 7; expect the module to take 15-25 minutes on two
desktop cores.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from satgate import weaklabel
from satgate.gate import BehaviorModel, Variant, simulate_ab
from satgate.metrics import accuracy_with_tuned_threshold, auc, cla, cus
from satgate.model import (
    DESK_CONFIG,
    TINY_CONFIG,
    PredictorConfig,
    Vocabulary,
    WindowDataset,
    attend_turns,
    backward,
    forward,
    init_params,
    loss,
    predict_scores,
)
from satgate.synth import CorpusConfig, generate
from satgate.training import BATCH_PRESETS, TrainConfig, train

from test_metrics import accuracy_enumerate, auc_pairwise, cla_enumerate


def _report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


# --- criterion 1: gradient correctness --------------------------------------


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central finite differences (step 1e-5,
    float64) with max relative error <= 1e-4 over 10 random seeds."""
    start = time.time()
    sessions = generate(CorpusConfig(seed=7, num_sessions=25))
    vocab = Vocabulary.build(sessions, TINY_CONFIG.vocab_size)
    assert TINY_CONFIG.embed_dim == 8
    assert TINY_CONFIG.text_blocks == 1 and TINY_CONFIG.struct_blocks == 1
    assert TINY_CONFIG.num_turns == 2 and TINY_CONFIG.vocab_size == 50

    h = 1e-5
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = init_params(TINY_CONFIG, vocab, seed=seed)
        session = sessions[seed % len(sessions)]
        window = list(session.turns[: min(2, len(session.turns))])
        label = float(rng.uniform(0.05, 0.95))
        grads = backward(params, TINY_CONFIG, vocab, window, label)
        for name in sorted(params):
            flat = params[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                up = loss(forward(params, TINY_CONFIG, vocab, window), label)
                flat[i] = old - h
                down = loss(forward(params, TINY_CONFIG, vocab, window), label)
                flat[i] = old
                fd = (up - down) / (2 * h)
                err = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-6)
                worst = max(worst, err)
    elapsed = time.time() - start
    assert worst <= 1e-4
    assert elapsed < 120.0
    _report("criterion 1 (gradients)", f"max rel err {worst:.2e}, {elapsed:.0f}s")


# --- criterion 2: metric oracles ----------------------------------------------


def test_criterion_2_metric_oracles():
    """auc, cla, and tuned accuracy match brute-force enumeration within 1e-9
    on 100 random instances of size <= 200."""
    start = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, n), int(rng.integers(1, 4)))
        assert abs(auc(scores, labels) - auc_pairwise(scores, labels)) < 1e-9
        assert abs(cla(scores, labels) - cla_enumerate(scores, labels, 0.85)) < 1e-9
        acc, threshold = accuracy_with_tuned_threshold(scores, labels)
        exp_acc, exp_t = accuracy_enumerate(scores, labels)
        assert abs(acc - exp_acc) < 1e-9
        assert abs(threshold - exp_t) < 1e-9
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report("criterion 2 (metric oracles)", f"100 instances, {elapsed:.1f}s")


# --- criterion 3: attention exactness -------------------------------------------


def test_criterion_3_attention_exactness():
    """Cross-turn attention matches independent matrix recomputation within
    1e-12 on 100 random shapes; a single key returns the value row exactly."""
    rng = np.random.default_rng(31)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 12))
        d = float(rng.uniform(0.25, 200.0))
        q = rng.normal(size=dim)
        K = rng.normal(size=(m, dim))
        V = rng.normal(size=(m, dim))
        logits = np.array([sum(q[j] * K[i, j] for j in range(dim)) for i in range(m)])
        logits /= math.sqrt(d)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        expected = np.array([sum(w[i] * V[i, j] for i in range(m)) for j in range(dim)])
        np.testing.assert_allclose(attend_turns(q, K, V, d), expected, atol=1e-12)
    q = rng.normal(size=5)
    K = rng.normal(size=(1, 5))
    V = rng.normal(size=(1, 5))
    assert np.array_equal(attend_turns(q, K, V, 25.0), V[0])
    _report("criterion 3 (attention exactness)", "100 shapes + single-key identity")


# --- criterion 4: CUS laws ---------------------------------------------------------


def test_criterion_4_cus_laws():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 1, 10_000)
    b = rng.uniform(0, 1, 10_000)
    for x, y in zip(a, b):
        r = cus(x, y)
        assert r.contextual == x * y
        assert cus(y, x).contextual == r.contextual
        assert cus(0.0, y).contextual == 0.0
        assert cus(x, 1.0).contextual == x
    assert abs(cus(0.87, 0.4).contextual - 0.348) < 1e-12
    _report("criterion 4 (CUS laws)", "10^4 sweep + worked pair 0.87*0.4=0.348")


# --- criteria 5 and 7: end-to-end pipeline -------------------------------------------


@dataclass
class PipelineResult:
    test_sessions: list
    transformer_auc: float
    baseline_auc: float
    weak_accuracy: float
    transformer_scores: list
    baseline_scores: list
    elapsed: float


@pytest.fixture(scope="module")
def pipeline() -> PipelineResult:
    start = time.time()
    config = CorpusConfig(
        seed=42, num_sessions=20_000,
        asr_error_rate=0.10, nlu_error_rate=0.08, user_error_rate=0.05,
    )
    sessions = generate(config)

    extractor = weaklabel.FeatureExtractor.fit(sessions)
    X, index = weaklabel.features_matrix(sessions, extractor)
    oracle = np.array([v for s in sessions for v in s.oracle_satisfaction], float)

    # (a) weak labeler on 1,000 oracle-labeled turn pairs from an expert split
    expert_rows = np.flatnonzero(index[:, 0] < 300)[:1000]
    assert len(expert_rows) == 1000
    weak_model = weaklabel.train_weak_labeler(X[expert_rows], oracle[expert_rows])
    labeled = weaklabel.label_corpus(weak_model, extractor, sessions)
    weak_scores = np.array([v for s in labeled for v in s.weak_labels])
    heldout_rows = index[:, 0] >= 300
    weak_accuracy = float(
        np.mean(((weak_scores >= 0.5) == (oracle == 1))[heldout_rows])
    )

    # (b) transformer on weak labels vs the causal-feature logistic baseline
    cut = int(0.8 * len(labeled))
    train_sessions, test_sessions = labeled[:cut], labeled[cut:]
    vocab = Vocabulary.build(train_sessions, DESK_CONFIG.vocab_size)
    train_ds = WindowDataset.from_sessions(train_sessions, vocab, DESK_CONFIG, "weak")
    test_ds = WindowDataset.from_sessions(test_sessions, vocab, DESK_CONFIG, "oracle")
    tconfig = TrainConfig(batch_size=256, learning_rate=0.0025, epochs=16, seed=0, eval_every=2)
    result = train(init_params(DESK_CONFIG, vocab, seed=0), DESK_CONFIG, train_ds, test_ds, tconfig)
    scores = predict_scores(result.params, DESK_CONFIG, test_ds.batch)
    test_oracle = test_ds.labels.astype(int)
    transformer_auc = auc(scores, test_oracle)

    train_rows = index[:, 0] < cut
    baseline = weaklabel.train_weak_labeler(
        X[train_rows], weak_scores[train_rows],
        feature_indices=weaklabel.CAUSAL_FEATURE_INDICES,
    )
    baseline_scores_flat = weaklabel.weak_label_many(baseline, X[~train_rows])
    baseline_auc = auc(baseline_scores_flat, oracle[~train_rows].astype(int))

    # per-session score lists for the gate simulation (criterion 7)
    transformer_scores = [np.zeros(len(s.turns)) for s in test_sessions]
    for value, si, ti in zip(scores, test_ds.session_index, test_ds.turn_index):
        transformer_scores[si][ti] = value
    baseline_scores = []
    pos = 0
    for s in test_sessions:
        baseline_scores.append(baseline_scores_flat[pos : pos + len(s.turns)])
        pos += len(s.turns)

    return PipelineResult(
        test_sessions=test_sessions,
        transformer_auc=transformer_auc,
        baseline_auc=baseline_auc,
        weak_accuracy=weak_accuracy,
        transformer_scores=transformer_scores,
        baseline_scores=baseline_scores,
        elapsed=time.time() - start,
    )


@pytest.mark.slow
def test_criterion_5_end_to_end_pipeline(pipeline):
    """20k-session corpus: weak labeler >= 0.80 held-out accuracy; the
    transformer trained on weak labels reaches held-out oracle AUC >= 0.85
    and strictly beats the causal-feature logistic baseline."""
    assert pipeline.weak_accuracy >= 0.80
    assert pipeline.transformer_auc >= 0.85
    assert pipeline.transformer_auc > pipeline.baseline_auc
    assert pipeline.elapsed < 30 * 60
    _report(
        "criterion 5 (end-to-end)",
        f"weak acc {pipeline.weak_accuracy:.3f}, transformer AUC "
        f"{pipeline.transformer_auc:.3f} > baseline {pipeline.baseline_auc:.3f}, "
        f"{pipeline.elapsed/60:.1f} min",
    )


@pytest.mark.slow
def test_criterion_7_gate_simulation_ordering(pipeline):
    """Average CUS ordering no-predictor <= feature-baseline <= transformer at
    threshold 0.7 under the default behavior model, for 3 behavior seeds."""
    eps = 1e-6
    clip = lambda arrs: [np.clip(a, eps, 1 - eps) for a in arrs]
    variants = [
        Variant("no-predictor", None, threshold=0.7),
        Variant("feature-baseline", clip(pipeline.baseline_scores), threshold=0.7),
        Variant("transformer", clip(pipeline.transformer_scores), threshold=0.7),
    ]
    margins = []
    for seed in (0, 1, 2):
        reports = {
            r.name: r
            for r in simulate_ab(
                pipeline.test_sessions, variants, behavior=BehaviorModel(), seed=seed
            )
        }
        none_cus = reports["no-predictor"].avg_cus
        base_cus = reports["feature-baseline"].avg_cus
        trans_cus = reports["transformer"].avg_cus
        assert none_cus <= base_cus <= trans_cus, f"seed {seed}: {none_cus}, {base_cus}, {trans_cus}"
        assert trans_cus > none_cus
        margins.append(trans_cus - none_cus)
    _report(
        "criterion 7 (gate simulation)",
        "CUS ordering holds on 3 seeds; transformer margin "
        + ", ".join(f"+{m:.3f}" for m in margins),
    )


# --- criterion 6: large batch vs small batch -------------------------------------


@pytest.mark.slow
def test_criterion_6_large_batch_vs_small_batch():
    """With 20% injected label noise, the desk LB preset's final held-out AUC
    is >= the SB preset's, and LB converges (within 1% of its final AUC) in
    no more epochs, for 3 seeds."""
    mini = PredictorConfig(
        vocab_size=400, max_text_len=16, embed_dim=16, num_turns=5,
        text_blocks=1, struct_blocks=1, num_heads=2, ffn_dim=32,
    )
    sessions = generate(CorpusConfig(seed=99, num_sessions=9000))
    cut = 8000
    vocab = Vocabulary.build(sessions[:cut], mini.vocab_size)
    train_ds = WindowDataset.from_sessions(sessions[:cut], vocab, mini, "oracle")
    val_ds = WindowDataset.from_sessions(sessions[cut:], vocab, mini, "oracle")

    epochs = 12
    lines = []
    for seed in (0, 1, 2):
        outcome = {}
        for preset in ("desk-lb", "desk-sb"):
            batch_size, lr = BATCH_PRESETS[preset]
            tconfig = TrainConfig(
                batch_size=batch_size, learning_rate=lr, epochs=epochs,
                seed=seed, label_noise_rate=0.2,
            )
            result = train(init_params(mini, vocab, seed=seed), mini, train_ds, val_ds, tconfig)
            aucs = [r.val_auc for r in result.trace if r.val_auc is not None]
            final = aucs[-1]
            conv = next(i + 1 for i, a in enumerate(aucs) if abs(a - final) <= 0.01 * final)
            outcome[preset] = (final, conv)
        lb_final, lb_conv = outcome["desk-lb"]
        sb_final, sb_conv = outcome["desk-sb"]
        assert lb_final >= sb_final, f"seed {seed}: LB {lb_final:.4f} < SB {sb_final:.4f}"
        assert lb_conv <= sb_conv, f"seed {seed}: LB conv {lb_conv} > SB conv {sb_conv}"
        lines.append(f"seed {seed}: LB {lb_final:.3f}@{lb_conv} vs SB {sb_final:.3f}@{sb_conv}")
    _report("criterion 6 (LB vs SB)", "; ".join(lines))


# --- criterion 8: CLI determinism ---------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    """Every CLI stage rerun with identical inputs produces byte-identical
    outputs and manifests."""
    import json

    from satgate.cli import dispatch
    from satgate.dialog import read_sessions, write_sessions

    work = tmp_path
    corpus_cfg = work / "corpus.json"
    corpus_cfg.write_text(json.dumps({"seed": 11, "num_sessions": 150}))

    def run(args):
        assert dispatch([str(a) for a in args]) == 0

    def digest(path):
        return path.read_bytes()

    outputs = {}
    for tag in ("a", "b"):
        corpus = work / f"corpus-{tag}.jsonl"
        run(["gen-corpus", "--config", corpus_cfg, "--out", corpus])
        features = work / f"features-{tag}.csv"
        run(["extract-features", "--in", corpus, "--out", features])
        weak = work / f"weak-{tag}.json"
        run(["train-weak", "--labeled", corpus, "--out", weak])
        labeled = work / f"labeled-{tag}.jsonl"
        run(["label", "--model", weak, "--in", corpus, "--out", labeled])
        train_cfg = work / "train.json"
        train_cfg.write_text(json.dumps({
            "model_preset": "tiny", "batch_size": 64, "learning_rate": 0.005,
            "epochs": 1, "label_source": "weak",
        }))
        ckpt = work / f"model-{tag}.ckpt"
        trace = work / f"trace-{tag}.csv"
        run(["train", "--config", train_cfg, "--corpus", labeled, "--val", labeled,
             "--out", ckpt, "--trace", trace])
        report = work / f"report-{tag}.csv"
        run(["eval", "--ckpt", ckpt, "--corpus", labeled, "--report", report])
        variants = work / "variants.json"
        variants.write_text(json.dumps({
            "threshold": 0.7,
            "variants": [
                {"name": "none", "kind": "none"},
                {"name": "weak", "kind": "weak", "model": str(weak)},
                {"name": "transformer", "kind": "transformer", "ckpt": str(ckpt)},
            ],
        }))
        sim = work / f"sim-{tag}.csv"
        run(["simulate", "--corpus", labeled, "--variants", variants, "--out", sim, "--seed", "3"])
        outputs[tag] = [corpus, features, weak, labeled, ckpt, trace, report,
                        work / f"report-{tag}.csv.pr.csv", sim]

    stages = ["corpus", "features", "weak-model", "labeled", "checkpoint",
              "trace", "report", "pr-table", "simulation"]
    for name, left, right in zip(stages, outputs["a"], outputs["b"]):
        assert digest(left) == digest(right), f"stage {name} not byte-identical"
    _report("criterion 8 (CLI determinism)", f"{len(stages)} stages byte-identical")
