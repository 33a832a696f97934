import math
from dataclasses import replace

import numpy as np
import pytest

from satgate.model import TINY_CONFIG, Vocabulary, WindowDataset, init_params, predict_scores
from satgate.synth import CorpusConfig, generate
from satgate.training import (
    BATCH_PRESETS,
    TrainConfig,
    adam_update,
    inject_label_noise,
    train,
)
from satgate.weaklabel import FeatureExtractor, features_matrix, label_corpus, train_weak_labeler


@pytest.fixture(scope="module")
def tiny_data():
    sessions = generate(CorpusConfig(seed=13, num_sessions=40))
    ext = FeatureExtractor.fit(sessions)
    X, _ = features_matrix(sessions, ext)
    y = np.array([v for s in sessions for v in s.oracle_satisfaction], float)
    model = train_weak_labeler(X, y)
    labeled = label_corpus(model, ext, sessions)
    vocab = Vocabulary.build(labeled, TINY_CONFIG.vocab_size)
    train_ds = WindowDataset.from_sessions(labeled[:30], vocab, TINY_CONFIG, "weak")
    val_ds = WindowDataset.from_sessions(labeled[30:], vocab, TINY_CONFIG, "oracle")
    return vocab, train_ds, val_ds


def test_deployed_presets_reproduced():
    assert BATCH_PRESETS["deployed-lb"] == (12000, 0.012)
    assert BATCH_PRESETS["deployed-sb"] == (1024, 0.001)
    lb = TrainConfig.from_preset("deployed-lb")
    assert lb.batch_size == 12000 and lb.learning_rate == 0.012
    # every preset keeps the deployed pairs' per-sample step size (lr/batch)
    for name in BATCH_PRESETS:
        batch, lr = BATCH_PRESETS[name]
        assert lr / batch == pytest.approx(1e-6, rel=0.05)
    desk_lb = TrainConfig.from_preset("desk-lb")
    desk_sb = TrainConfig.from_preset("desk-sb")
    assert desk_lb.batch_size == 4096 and desk_sb.batch_size == 64


def test_zero_learning_rate_keeps_params(tiny_data):
    vocab, train_ds, val_ds = tiny_data
    params = init_params(TINY_CONFIG, vocab, seed=2)
    tconfig = TrainConfig(batch_size=16, learning_rate=0.0, epochs=2, seed=0)
    result = train(params, TINY_CONFIG, train_ds, val_ds, tconfig)
    for key in params:
        assert np.array_equal(result.final_params[key], params[key])


def test_adam_step_descends_quadratic():
    """One step on f(x) = (x - 3)^2 / 2 from zeroed state: the bias-corrected
    step equals lr * g / (|g| + eps), so the loss must drop for small lr."""
    tconfig = TrainConfig(batch_size=1, learning_rate=1e-3)
    x0 = 1.0
    params = {"x": np.array(x0)}
    g = x0 - 3.0
    m = {"x": np.zeros(())}
    v = {"x": np.zeros(())}
    adam_update(params, {"x": np.array(g)}, m, v, t=1, tconfig=tconfig)
    expected = x0 - 1e-3 * g / (abs(g) + tconfig.adam_eps)
    assert params["x"] == pytest.approx(expected, abs=1e-15)
    f = lambda x: 0.5 * (x - 3.0) ** 2
    assert f(params["x"]) < f(x0)


def test_inject_label_noise_counts():
    labels = np.zeros(1000)
    assert np.array_equal(inject_label_noise(labels, 0.0, seed=1), labels)
    flipped = inject_label_noise(labels, 1.0, seed=1)
    assert np.all(flipped == 1.0)
    partial = inject_label_noise(labels, 0.2, seed=1)
    assert int(np.sum(partial != labels)) == 200


def test_inject_label_noise_soft_labels():
    labels = np.full(10, 0.3)
    noisy = inject_label_noise(labels, 0.5, seed=0)
    changed = noisy != 0.3
    assert int(changed.sum()) == 5
    assert np.allclose(noisy[changed], 0.7)


def test_inject_label_noise_deterministic():
    labels = np.linspace(0, 1, 50)
    a = inject_label_noise(labels, 0.3, seed=7)
    b = inject_label_noise(labels, 0.3, seed=7)
    assert np.array_equal(a, b)


def test_training_reproducible(tiny_data):
    vocab, train_ds, val_ds = tiny_data
    tconfig = TrainConfig(batch_size=32, learning_rate=0.01, epochs=2, seed=5)
    r1 = train(init_params(TINY_CONFIG, vocab, seed=0), TINY_CONFIG, train_ds, val_ds, tconfig)
    r2 = train(init_params(TINY_CONFIG, vocab, seed=0), TINY_CONFIG, train_ds, val_ds, tconfig)
    for key in r1.final_params:
        assert np.array_equal(r1.final_params[key], r2.final_params[key])
    assert r1.trace == r2.trace


def test_steps_per_epoch_keeps_partial_batch(tiny_data):
    vocab, train_ds, val_ds = tiny_data
    n = len(train_ds)
    batch_size = 16
    tconfig = TrainConfig(batch_size=batch_size, learning_rate=0.001, epochs=2, seed=0)
    result = train(init_params(TINY_CONFIG, vocab, seed=1), TINY_CONFIG, train_ds, val_ds, tconfig)
    steps = [row for row in result.trace if row.val_auc is None]
    assert len(steps) == 2 * math.ceil(n / batch_size)


def test_training_loss_finite_throughout(tiny_data):
    vocab, train_ds, val_ds = tiny_data
    tconfig = TrainConfig(batch_size=64, learning_rate=0.005, epochs=2, seed=3)
    result = train(init_params(TINY_CONFIG, vocab, seed=4), TINY_CONFIG, train_ds, val_ds, tconfig)
    assert all(math.isfinite(r.train_loss) for r in result.trace if r.val_auc is None)


def test_non_finite_loss_aborts_with_batch_index(tiny_data):
    vocab, train_ds, val_ds = tiny_data
    bad_labels = train_ds.batch.labels.copy()
    bad_labels[0] = np.nan
    poisoned = WindowDataset(
        replace(train_ds.batch, labels=bad_labels),
        train_ds.session_index,
        train_ds.turn_index,
    )
    tconfig = TrainConfig(batch_size=len(train_ds), learning_rate=0.001, epochs=1, seed=0)
    with pytest.raises(RuntimeError, match=r"epoch 1, batch 0"):
        train(init_params(TINY_CONFIG, vocab, seed=0), TINY_CONFIG, poisoned, val_ds, tconfig)


def test_best_checkpoint_tracks_validation_auc(tiny_data):
    vocab, train_ds, val_ds = tiny_data
    tconfig = TrainConfig(batch_size=32, learning_rate=0.01, epochs=3, seed=1)
    result = train(init_params(TINY_CONFIG, vocab, seed=1), TINY_CONFIG, train_ds, val_ds, tconfig)
    evals = [r for r in result.trace if r.val_auc is not None]
    assert result.best_val_auc == max(r.val_auc for r in evals)
    assert result.best_epoch in {r.epoch for r in evals}


def test_warm_start_continues(tiny_data):
    vocab, train_ds, val_ds = tiny_data
    tconfig = TrainConfig(batch_size=32, learning_rate=0.01, epochs=1, seed=2)
    first = train(init_params(TINY_CONFIG, vocab, seed=2), TINY_CONFIG, train_ds, val_ds, tconfig)
    second = train(first.final_params, TINY_CONFIG, train_ds, val_ds, tconfig)
    scores = predict_scores(second.final_params, TINY_CONFIG, val_ds.batch)
    assert np.all((scores > 0) & (scores < 1))


def test_label_noise_changes_training(tiny_data):
    vocab, train_ds, val_ds = tiny_data
    clean = TrainConfig(batch_size=32, learning_rate=0.01, epochs=1, seed=1)
    noisy = TrainConfig(batch_size=32, learning_rate=0.01, epochs=1, seed=1, label_noise_rate=0.4)
    r_clean = train(init_params(TINY_CONFIG, vocab, seed=3), TINY_CONFIG, train_ds, val_ds, clean)
    r_noisy = train(init_params(TINY_CONFIG, vocab, seed=3), TINY_CONFIG, train_ds, val_ds, noisy)
    assert any(
        not np.array_equal(r_clean.final_params[k], r_noisy.final_params[k])
        for k in r_clean.final_params
    )


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(label_noise_rate=1.5)
