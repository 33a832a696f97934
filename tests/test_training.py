import math
from dataclasses import replace

import numpy as np
import pytest

from satgate import _allocator
from satgate.model import (
    TINY_CONFIG,
    Vocabulary,
    WindowDataset,
    flat_views,
    init_params,
    predict_scores,
)
from satgate.synth import CorpusConfig, generate
from satgate.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BATCH_PRESETS,
    TrainConfig,
    _session_shuffled_order,
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
    params = np.array([x0])
    g = x0 - 3.0
    m = np.zeros(1)
    v = np.zeros(1)
    adam_update(params, np.array([g]), m, v, t=1, tconfig=tconfig)
    expected = x0 - 1e-3 * g / (abs(g) + ADAM_EPS)
    assert params[0] == pytest.approx(expected, abs=1e-15)
    f = lambda x: 0.5 * (x - 3.0) ** 2
    assert f(params[0]) < f(x0)


def test_flat_adam_update_equals_per_tensor_reference():
    """Three steps over one flat vector give the bits of the per-tensor
    update, tensor by tensor."""
    rng = np.random.default_rng(4)
    shapes = {"w": (3, 4), "b": (4,), "s": ()}
    tconfig = TrainConfig(learning_rate=0.01)
    flat, params = flat_views(shapes, rng.normal(size=17))
    ref = {k: p.copy() for k, p in params.items()}
    m, v = np.zeros(17), np.zeros(17)
    ref_m = {k: np.zeros(s) for k, s in shapes.items()}
    ref_v = {k: np.zeros(s) for k, s in shapes.items()}
    for t in (1, 2, 3):
        g, grads = flat_views(shapes, rng.normal(size=17))
        adam_update(flat, g, m, v, t, tconfig)
        bc1, bc2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
        for k in shapes:
            ref_m[k] = ADAM_BETA1 * ref_m[k] + (1.0 - ADAM_BETA1) * grads[k]
            ref_v[k] = ADAM_BETA2 * ref_v[k] + (1.0 - ADAM_BETA2) * (grads[k] * grads[k])
            ref[k] -= tconfig.learning_rate * (ref_m[k] / bc1) / (
                np.sqrt(ref_v[k] / bc2) + ADAM_EPS
            )
    for k in shapes:
        assert params[k].tobytes() == ref[k].tobytes(), k


@pytest.mark.parametrize("seed", range(20))
def test_session_shuffled_order_equals_per_session_reference(seed):
    """The order lists each session's windows contiguously, in index order,
    with the sessions in the order of the seeded permutation; empty sessions
    take a place in the permutation and contribute nothing."""
    layout = np.random.default_rng(seed)
    counts = layout.integers(0, 5, size=int(layout.integers(1, 30)))
    counts[-1] += 1
    session_of_window = np.repeat(np.arange(len(counts)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    perm = np.random.default_rng(seed).permutation(len(counts))
    want = np.concatenate([np.arange(starts[s], starts[s] + counts[s]) for s in perm])
    got = _session_shuffled_order(session_of_window, np.random.default_rng(seed))
    assert np.array_equal(got, want)


def test_train_accepts_params_with_a_replaced_entry(tiny_data):
    """An entry replaced by an array outside init_params' buffer is copied in
    like any other; the caller's arrays are left alone."""
    vocab, train_ds, val_ds = tiny_data
    params = init_params(TINY_CONFIG, vocab, seed=2)
    params["out_b"] = np.array(0.5)
    before = {k: p.copy() for k, p in params.items()}
    tconfig = TrainConfig(batch_size=32, learning_rate=0.0, epochs=1, seed=0)
    result = train(params, TINY_CONFIG, train_ds, val_ds, tconfig)
    buffer = result.final_params["tok_emb"].base
    for key in params:
        assert result.final_params[key].base is buffer
        assert np.array_equal(result.final_params[key], before[key])
        assert np.array_equal(params[key], before[key])
    moved = train(params, TINY_CONFIG, train_ds, None, replace(tconfig, learning_rate=0.01))
    assert moved.final_params["out_b"] != 0.5
    assert params["out_b"] == 0.5


def test_allocator_policy_sets_both_thresholds_once(fake_mallopt):
    _allocator.keep_working_memory_mapped()
    _allocator.keep_working_memory_mapped()
    assert fake_mallopt == [(-3, 32 << 20), (-1, 256 << 20)]


def test_train_applies_the_allocator_policy(fake_mallopt):
    sessions = generate(CorpusConfig(seed=3, num_sessions=6))
    vocab = Vocabulary.build(sessions, TINY_CONFIG.vocab_size)
    ds = WindowDataset.from_sessions(sessions, vocab, TINY_CONFIG, "oracle")
    train(init_params(TINY_CONFIG, vocab, seed=0), TINY_CONFIG, ds, None,
          TrainConfig(batch_size=64, learning_rate=0.0, epochs=1))
    assert fake_mallopt == [(-3, 32 << 20), (-1, 256 << 20)]


@pytest.mark.parametrize("libc", ["no-mallopt", "no-libc"])
def test_allocator_policy_is_a_no_op_without_mallopt(monkeypatch, libc):
    def cdll(name):
        if libc == "no-libc":
            raise OSError("no C library")
        return object()  # a C library without mallopt, as on macOS

    monkeypatch.setattr(_allocator.ctypes, "CDLL", cdll)
    _allocator.keep_working_memory_mapped.cache_clear()
    assert _allocator.keep_working_memory_mapped() is None
    _allocator.keep_working_memory_mapped.cache_clear()


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
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=bad)
    for name in ("batch_size", "epochs", "eval_every"):
        for bad in (2.5, 2.0, True, "2", 0):
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                TrainConfig(**{name: bad})
        assert getattr(TrainConfig(**{name: np.int64(3)}), name) == 3


@pytest.mark.parametrize("field, value", [
    ("seed", True), ("seed", 2.7), ("seed", "3"), ("seed", -1),
    ("learning_rate", True), ("learning_rate", "0.01"),
    ("label_noise_rate", "0.1"), ("label_noise_rate", True),
])
def test_train_config_rejects_wrongly_typed_fields_naming_them(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        TrainConfig(**{field: value})


def test_train_config_accepts_integral_seeds_and_rates():
    assert TrainConfig(seed=0).seed == 0
    assert TrainConfig(seed=np.int64(7)).seed == 7
    assert TrainConfig(learning_rate=0, label_noise_rate=1).learning_rate == 0


def test_unknown_batch_preset_names_the_known_ones():
    with pytest.raises(ValueError, match="unknown batch_preset 'desk-xx'; known presets: "
                                         "deployed-lb, deployed-sb, desk-lb, desk-sb"):
        TrainConfig.from_preset("desk-xx")
