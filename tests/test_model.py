import json
import math
from collections import Counter
import os
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satgate.dialog import DialogueTurn, Session
from satgate.model import (
    AGG_ID,
    DESK_CONFIG,
    PAD_ID,
    DEPLOYED_CONFIG,
    TINY_CONFIG,
    CheckpointError,
    PredictorConfig,
    Vocabulary,
    WindowDataset,
    attend_turns,
    backward,
    encode_window,
    forward,
    forward_batch,
    init_params,
    load_checkpoint,
    loss,
    predict_scores,
    save_checkpoint,
)
from satgate.model import checkpoint as checkpoint_module
from satgate.model import net
from satgate.synth import CorpusConfig, generate
from satgate.training import TrainConfig, train
from satgate.weaklabel import FeatureExtractor, features_matrix

from conftest import make_turn, mutate_json

# Every per-turn (pool) array of a Batch.
_POOL_ARRAYS = ("text_ids", "text_mask", "dom_ids", "item_ids",
                "slot_key_ids", "slot_key_mask", "slot_val_ids", "slot_val_mask")


@pytest.fixture(scope="module")
def tiny_setup():
    sessions = generate(CorpusConfig(seed=7, num_sessions=25))
    vocab = Vocabulary.build(sessions, TINY_CONFIG.vocab_size)
    params = init_params(TINY_CONFIG, vocab, seed=1)
    return sessions, vocab, params


# --- attend_turns (the cross-turn attention primitive) ----------------------


def test_attend_single_key_returns_value_row(rng):
    q = rng.normal(size=3)
    K = rng.normal(size=(1, 3))
    V = rng.normal(size=(1, 3))
    out = attend_turns(q, K, V, d=9.0)
    assert np.array_equal(out, V[0])


def test_attend_identical_keys_average_values(rng):
    q = rng.normal(size=4)
    k = rng.normal(size=4)
    K = np.stack([k, k])
    V = rng.normal(size=(2, 4))
    out = attend_turns(q, K, V, d=4.0)
    np.testing.assert_allclose(out, V.mean(axis=0), atol=1e-12)


def test_attend_matches_matrix_recomputation(rng):
    for _ in range(50):
        m = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 10))
        d = float(rng.uniform(0.5, 100))
        q = rng.normal(size=dim)
        K = rng.normal(size=(m, dim))
        V = rng.normal(size=(m, dim))
        logits = np.array([sum(q[j] * K[i, j] for j in range(dim)) for i in range(m)])
        logits /= math.sqrt(d)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        expected = np.array([sum(w[i] * V[i, j] for i in range(m)) for j in range(dim)])
        np.testing.assert_allclose(attend_turns(q, K, V, d), expected, atol=1e-12)


def test_attend_weights_are_convex(rng):
    q = rng.normal(size=5)
    K = rng.normal(size=(4, 5))
    V = rng.normal(size=(4, 5))
    out = attend_turns(q, K, V, d=25.0)
    assert np.all(out <= V.max(axis=0) + 1e-12)
    assert np.all(out >= V.min(axis=0) - 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_attend_paired_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    m, dim = int(rng.integers(2, 6)), int(rng.integers(1, 6))
    q = rng.normal(size=dim)
    K = rng.normal(size=(m, dim))
    V = rng.normal(size=(m, dim))
    perm = rng.permutation(m)
    np.testing.assert_allclose(
        attend_turns(q, K, V, 7.0), attend_turns(q, K[perm], V[perm], 7.0), atol=1e-12
    )


def test_attend_shape_and_scale_errors(rng):
    with pytest.raises(ValueError):
        attend_turns(rng.normal(size=3), rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), 4.0)
    with pytest.raises(ValueError):
        attend_turns(rng.normal(size=3), rng.normal(size=(2, 3)), rng.normal(size=(3, 3)), 4.0)
    with pytest.raises(ValueError):
        attend_turns(rng.normal(size=3), rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), 0.0)


@pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
def test_attend_rejects_a_non_finite_scale(rng, d):
    q, K = rng.normal(size=3), rng.normal(size=(2, 3))
    with pytest.raises(ValueError, match=f"scale d must be positive and finite, got {d!r}"):
        attend_turns(q, K, K, d)


def test_forward_applies_the_allocator_policy(fake_mallopt, tiny_setup):
    sessions, vocab, params = tiny_setup
    forward(params, TINY_CONFIG, vocab, sessions[0].turns[:1])
    forward(params, TINY_CONFIG, vocab, sessions[0].turns[:1])
    assert fake_mallopt == [(-3, 32 << 20), (-1, 256 << 20)]


# --- per-turn encoding ---------------------------------------------------------


def _encode_turn(params, config, vocab, turn):
    """The turn's embedding: both per-turn stacks, run on a one-turn window."""
    E, _ = net._encode_pool(params, config, encode_window([turn], vocab, config), want_cache=False)
    return E[0]


def test_encode_turn_deterministic(tiny_setup):
    _, vocab, params = tiny_setup
    turn = make_turn()
    e1 = _encode_turn(params, TINY_CONFIG, vocab, turn)
    e2 = _encode_turn(params, TINY_CONFIG, vocab, turn)
    assert np.array_equal(e1, e2)
    assert e1.shape == (TINY_CONFIG.embed_dim,)
    assert np.all(np.isfinite(e1))


def test_padding_content_cannot_change_encoding(tiny_setup):
    """Padded text positions are masked out of every softmax."""
    _, vocab, params = tiny_setup
    turn = make_turn(query="play music", voice_response="playing")
    batch = encode_window([turn], vocab, TINY_CONFIG)
    p_ref, _ = forward_batch(params, TINY_CONFIG, batch)
    corrupted = batch.text_ids.copy()
    pad_positions = batch.text_mask == 0.0
    assert pad_positions.any()
    corrupted[pad_positions] = AGG_ID  # arbitrary wrong content in padded slots
    batch.text_ids = corrupted
    p_after, _ = forward_batch(params, TINY_CONFIG, batch)
    assert np.array_equal(p_ref, p_after)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_random_corruption_of_masked_content_is_invisible(seed):
    """Randomizing padded text ids and padded-turn contents never moves the
    output."""
    rng = np.random.default_rng(seed)
    sessions = generate(CorpusConfig(seed=7, num_sessions=25))
    vocab = Vocabulary.build(sessions, TINY_CONFIG.vocab_size)
    params = init_params(TINY_CONFIG, vocab, seed=int(rng.integers(100)))
    session = sessions[int(rng.integers(len(sessions)))]
    window = list(session.turns[:1])  # leaves one padded turn slot at T=2
    batch = encode_window(window, vocab, TINY_CONFIG, label=0.5)
    p_ref, _ = forward_batch(params, TINY_CONFIG, batch)

    pad = batch.text_mask == 0.0
    batch.text_ids[pad] = rng.integers(0, vocab.n_tokens, size=int(pad.sum()))
    vpad = batch.slot_val_mask == 0.0
    batch.slot_val_ids[vpad] = rng.integers(0, vocab.n_tokens, size=int(vpad.sum()))
    # The padded turn slot points at an added pool row of random content.
    highs = {"dom_ids": vocab.n_domains, "item_ids": vocab.n_items,
             "slot_key_ids": vocab.n_slot_keys}
    junk = {}
    for name in _POOL_ARRAYS:
        values = getattr(batch, name)
        high = 2 if "mask" in name else highs.get(name, vocab.n_tokens)
        row = rng.integers(0, high, size=(1,) + values.shape[1:]).astype(values.dtype)
        junk[name] = np.concatenate([values, row])
    batch = replace(batch, **junk)
    assert batch.turn_mask[0, 0] == 0.0
    batch.window_rows[0, 0] = batch.pool_size - 1
    p_after, _ = forward_batch(params, TINY_CONFIG, batch)
    assert np.array_equal(p_ref, p_after)


def test_single_token_block_matches_straight_line_recomputation():
    """One block, one head, embed 4: recompute the text stack by hand."""
    config = PredictorConfig(
        vocab_size=10, max_text_len=2, embed_dim=4, num_turns=1,
        text_blocks=1, struct_blocks=1, num_heads=1, ffn_dim=8,
    )
    vocab = Vocabulary(tokens=["hi", "ok"], domains=["d"], slot_keys=["k"], items=["m"])
    params = init_params(config, vocab, seed=5)
    turn = DialogueTurn(
        query=("hi",), domain_intent="d", slots=(), result_item="m",
        voice_response=("ok",), timestamp=0.0, asr_confidence=0.9, nlu_confidence=0.9,
    )

    # independent straight-line recomputation of the whole encoder
    ids = [AGG_ID, vocab.token_id("hi"), vocab.token_id("ok")]
    x = np.array([params["tok_emb"][i] for i in ids]) + params["pos_emb"][:3]

    def ln(v, g, b):
        mu = v.mean()
        var = ((v - mu) ** 2).mean()
        return (v - mu) / math.sqrt(var + 1e-6) * g + b

    def block(prefix, xin, length):
        q = xin @ params[prefix + "Wq"] + params[prefix + "bq"]
        k = xin @ params[prefix + "Wk"] + params[prefix + "bk"]
        v = xin @ params[prefix + "Wv"] + params[prefix + "bv"]
        out = np.zeros_like(xin)
        for i in range(length):
            logits = np.array([q[i] @ k[j] / math.sqrt(4) for j in range(length)])
            w = np.exp(logits - logits.max())
            w /= w.sum()
            ctx = sum(w[j] * v[j] for j in range(length))
            out[i] = ctx @ params[prefix + "Wo"] + params[prefix + "bo"]
        x1 = np.array([
            ln(xin[i] + out[i], params[prefix + "ln1_g"], params[prefix + "ln1_b"])
            for i in range(length)
        ])
        f = np.array([
            np.tanh(x1[i] @ params[prefix + "ffn1_W"] + params[prefix + "ffn1_b"])
            @ params[prefix + "ffn2_W"] + params[prefix + "ffn2_b"]
            for i in range(length)
        ])
        return np.array([
            ln(x1[i] + f[i], params[prefix + "ln2_g"], params[prefix + "ln2_b"])
            for i in range(length)
        ])

    text_out = block("text0.", x, 3)
    summary = text_out[0]
    struct_in = np.stack([
        params["dom_emb"][vocab.domain_id("d")],
        np.zeros(4),  # no slots
        params["item_emb"][vocab.item_id("m")],
        summary,
    ])
    struct_out = block("struct0.", struct_in, 4)
    expected = struct_out.mean(axis=0)

    np.testing.assert_allclose(_encode_turn(params, config, vocab, turn), expected, atol=1e-12)


@pytest.mark.parametrize("num_heads", [1, 2])
def test_summary_only_block_equals_slot_zero_of_full_block(num_heads):
    """The last text block computes queries, LN and FFN for slot 0 alone; its
    output and its gradients equal the full block's at slot 0, on rows whose
    padded key positions hold random content."""
    config = replace(TINY_CONFIG, num_heads=num_heads)
    vocab = Vocabulary(tokens=["a"], domains=["d"], slot_keys=["k"], items=["m"])
    rng = np.random.default_rng(num_heads)
    params = {k: v + 0.1 * rng.normal(size=v.shape)
              for k, v in init_params(config, vocab, seed=4).items()}
    N, L, D = 5, 7, config.embed_dim
    x = rng.normal(size=(N, L, D))
    key_mask = (np.arange(L)[None, :] < np.array([1, 3, 5, 7, 2])[:, None]).astype(float)
    dy = np.zeros((N, L, D))
    dy[:, 0] = rng.normal(size=(N, D))

    def run(summary_only):
        out, cache = net._block_forward(params, "text0.", x, key_mask, num_heads,
                                        summary_only=summary_only)
        grads = net.flat_views({k: v.shape for k, v in params.items()})[1]
        d_x = net._block_backward(params, grads, "text0.", dy[:, : out.shape[1]], cache,
                                  num_heads)
        return out, d_x, {k: g for k, g in grads.items() if k.startswith("text0.")}

    full, d_x_full, g_full = run(False)
    part, d_x_part, g_part = run(True)
    assert part.shape == (N, 1, D)
    np.testing.assert_allclose(part[:, 0], full[:, 0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(d_x_part, d_x_full, rtol=0, atol=1e-12)
    assert len(g_part) == 16
    for name in g_part:
        np.testing.assert_allclose(g_part[name], g_full[name], rtol=0, atol=1e-12,
                                   err_msg=name)

    # d_x against central differences of the summary-only output, so that a
    # fault the two query layouts share cannot hide.
    h = 1e-6
    fd = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        old = x[i]
        x[i] = old + h
        up = net._block_forward(params, "text0.", x, key_mask, num_heads, summary_only=True)[0]
        x[i] = old - h
        down = net._block_forward(params, "text0.", x, key_mask, num_heads, summary_only=True)[0]
        x[i] = old
        fd[i] = np.sum(dy[:, :1] * (up - down)) / (2 * h)
    np.testing.assert_allclose(d_x_part, fd, rtol=0, atol=1e-7)


def test_cross_turn_attention_and_head_match_straight_line_recomputation(tiny_setup):
    """Three-turn context: recompute the cross-turn attention and the head by
    hand, over the per-turn embeddings, for windows of one, two and three
    turns."""
    sessions, _, _ = tiny_setup
    config = PredictorConfig(
        vocab_size=50, max_text_len=6, embed_dim=4, num_turns=3,
        text_blocks=1, struct_blocks=1, num_heads=1, ffn_dim=8,
    )
    vocab = Vocabulary.build(sessions, config.vocab_size)
    rng = np.random.default_rng(12)
    # non-zero biases, so that every term of the head shows
    params = {
        k: v + rng.normal(0.0, 0.3, v.shape) for k, v in init_params(config, vocab, seed=3).items()
    }
    turns = next(s for s in sessions if len(s.turns) >= 3).turns[:3]
    E = [_encode_turn(params, config, vocab, t) for t in turns]

    def linear(name, x):
        return x @ params[name + "_W"] + params[name + "_b"]

    for n in (1, 2, 3):
        # real turns, oldest first, tagged by their distance from the current turn
        e = [E[i] + params["turn_offset_emb"][n - 1 - i] for i in range(n)]
        previous = e[:-1] or e  # a session's first turn attends to itself
        q = linear("cross_q", e[-1])
        logits = np.array([q @ linear("cross_k", x) for x in previous])
        logits /= math.sqrt(config.embed_dim)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        O = sum(wi * linear("cross_v", x) for wi, x in zip(w, previous))
        hidden = [np.tanh(linear("head", np.concatenate([x, O]))) for x in e]
        logit = np.max(hidden, axis=0) @ params["out_w"] + params["out_b"]
        expected = 1.0 / (1.0 + math.exp(-logit))
        assert abs(forward(params, config, vocab, list(turns[:n])) - expected) < 1e-12


# --- forward -----------------------------------------------------------------


def test_forward_output_strictly_inside_unit_interval(tiny_setup):
    sessions, vocab, params = tiny_setup
    for session in sessions[:10]:
        window = list(session.turns[: TINY_CONFIG.num_turns])
        p = forward(params, TINY_CONFIG, vocab, window)
        assert 0.0 < p < 1.0


def test_forward_short_window_equals_smaller_num_turns_config(tiny_setup):
    """Front padding with the masked null turn must not change the output."""
    sessions, vocab, _ = tiny_setup
    session = next(s for s in sessions if len(s.turns) >= 3)
    window = list(session.turns[:3])

    config5 = PredictorConfig(
        vocab_size=TINY_CONFIG.vocab_size, max_text_len=TINY_CONFIG.max_text_len,
        embed_dim=8, num_turns=5, text_blocks=1, struct_blocks=1, num_heads=2, ffn_dim=16,
    )
    config3 = PredictorConfig(
        vocab_size=TINY_CONFIG.vocab_size, max_text_len=TINY_CONFIG.max_text_len,
        embed_dim=8, num_turns=3, text_blocks=1, struct_blocks=1, num_heads=2, ffn_dim=16,
    )
    params5 = init_params(config5, vocab, seed=9)
    params3 = {k: v.copy() for k, v in params5.items()}
    params3["turn_offset_emb"] = params5["turn_offset_emb"][:3].copy()

    p5 = forward(params5, config5, vocab, window)
    p3 = forward(params3, config3, vocab, window)
    assert p5 == pytest.approx(p3, abs=1e-12)


def test_forward_window_validation(tiny_setup):
    sessions, vocab, params = tiny_setup
    turns = [make_turn(timestamp=float(i)) for i in range(TINY_CONFIG.num_turns + 1)]
    with pytest.raises(ValueError):
        forward(params, TINY_CONFIG, vocab, turns)
    with pytest.raises(ValueError):
        forward(params, TINY_CONFIG, vocab, [])


def test_attention_rows_sum_to_one(tiny_setup):
    sessions, vocab, params = tiny_setup
    session = next(s for s in sessions if len(s.turns) >= 2)
    batch = encode_window(list(session.turns[:2]), vocab, TINY_CONFIG)
    _, cache = forward_batch(params, TINY_CONFIG, batch, want_cache=True)
    for block_cache in cache["pool"]["text_caches"] + cache["pool"]["struct_caches"]:
        sums = block_cache["A"].sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
    np.testing.assert_allclose(cache["A"].sum(axis=-1), 1.0, atol=1e-9)


def test_deployed_reference_config_accepted():
    assert DEPLOYED_CONFIG.embed_dim == 240
    assert DEPLOYED_CONFIG.num_turns == 5
    assert DEPLOYED_CONFIG.text_blocks == 8
    assert DEPLOYED_CONFIG.struct_blocks == 4


def test_config_validation():
    with pytest.raises(ValueError):
        PredictorConfig(embed_dim=10, num_heads=4)
    with pytest.raises(ValueError):
        PredictorConfig(text_blocks=0)
    for field, value in [("num_turns", True), ("embed_dim", 40.0), ("ffn_dim", "80")]:
        with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
            PredictorConfig(**{field: value})


def test_lipschitz_smoke(tiny_setup):
    """A 1e-6 embedding perturbation moves the output by a bounded amount."""
    sessions, vocab, params = tiny_setup
    window = list(sessions[0].turns[:2])
    p_ref = forward(params, TINY_CONFIG, vocab, window)
    eps = 1e-6
    perturbed = {k: v.copy() for k, v in params.items()}
    used_id = vocab.token_id(window[0].query[0])
    perturbed["tok_emb"][used_id, 0] += eps
    p_new = forward(perturbed, TINY_CONFIG, vocab, window)
    c = abs(p_new - p_ref) / eps
    assert c < 1e3


# --- forward's memo of the previous window -------------------------------------


_PRESETS = {"tiny": TINY_CONFIG, "desk": DESK_CONFIG, "deployed": DEPLOYED_CONFIG}


def _loaded_model(config, sessions, tmp_path, seed=4):
    """A checkpoint of seeded initial weights, saved and loaded back, and the
    sessions' windows scored by ``predict_scores`` in corpus order."""
    vocab = Vocabulary.build(sessions, config.vocab_size)
    save_checkpoint(tmp_path / "m.ckpt", config, vocab, init_params(config, vocab, seed=seed))
    _, vocab, params = load_checkpoint(tmp_path / "m.ckpt")
    ds = WindowDataset.from_sessions(sessions, vocab, config, "none")
    return vocab, params, predict_scores(params, config, ds.batch, microbatch=128)


def _window(session, i, config):
    return list(session.turns[max(0, i + 1 - config.num_turns) : i + 1])


def _distinct_session(sessions, vocab, config, min_turns):
    """The first session with at least ``min_turns`` turns, all of distinct content."""
    return next(s for s in sessions if len(s.turns) >= min_turns
                and len({net._content_key(t, vocab, config) for t in s.turns}) == len(s.turns))


@pytest.fixture
def encoded_rows(monkeypatch):
    """The pool size of every ``_encode_pool`` call, in call order."""
    sizes = []
    real_encode = net._encode_pool

    def counting_encode(params, config, pool, want_cache):
        sizes.append(pool.pool_size)
        return real_encode(params, config, pool, want_cache)

    monkeypatch.setattr(net, "_encode_pool", counting_encode)
    return sizes


@pytest.mark.parametrize("order", ["sessions", "interleaved"])
@pytest.mark.parametrize("preset", ["tiny", "desk", "deployed"])
def test_forward_replay_with_loaded_params_equals_predict_scores(preset, order, tmp_path):
    """Every turn of a corpus replayed through ``forward``, reusing the
    previous window's rows, scores as ``predict_scores`` does within 1e-12:
    sessions one after another, or two at a time, turn by turn."""
    config = _PRESETS[preset]
    sessions = generate(CorpusConfig(seed=21, num_sessions=6 if preset == "deployed" else 30))
    vocab, params, want = _loaded_model(config, sessions, tmp_path)
    corpus_row = {}
    for si, session in enumerate(sessions):
        for i in range(len(session.turns)):
            corpus_row[si, i] = len(corpus_row)
    if order == "sessions":
        replay = list(corpus_row)
    else:
        replay = []
        for a in range(0, len(sessions), 2):
            pair = [k for k in (a, a + 1) if k < len(sessions)]
            longest = max(len(sessions[k].turns) for k in pair)
            replay += [(k, i) for i in range(longest) for k in pair if i < len(sessions[k].turns)]
    assert sorted(replay) == sorted(corpus_row)
    for si, i in replay:
        got = forward(params, config, vocab, _window(sessions[si], i, config))
        assert abs(got - want[corpus_row[si, i]]) <= 1e-12, (si, i)


def test_forward_encodes_only_the_new_turn_of_a_replayed_session(tmp_path, encoded_rows):
    """With the predecessors in the memo, a decision encodes its own turn
    alone; a window's first decision encodes every row."""
    config = DESK_CONFIG
    sessions = generate(CorpusConfig(seed=5, num_sessions=40))
    vocab, params, _ = _loaded_model(config, sessions, tmp_path)
    session = _distinct_session(sessions, vocab, config, config.num_turns + 1)
    encoded_rows.clear()
    for i in range(len(session.turns)):
        forward(params, config, vocab, _window(session, i, config))
    assert encoded_rows == [1] * len(session.turns)
    encoded_rows.clear()
    forward(params, config, vocab, _window(session, 0, config))  # the memo holds other turns
    forward(params, config, vocab, _window(session, 0, config))  # the memo holds this one
    assert encoded_rows == [1]


def test_forward_reencodes_for_a_replaced_param_or_config_not_another_vocab(tmp_path,
                                                                           encoded_rows):
    """A plain dict of the loaded arrays with one replaced, even by a
    read-only one, or the loaded model under another config, encodes every
    row afresh and gives its own score, not a stale row's; the loaded
    model's memo survives such calls. Rows are keyed by ids, so another
    vocabulary with the same words reuses them."""
    config = TINY_CONFIG
    sessions = generate(CorpusConfig(seed=6, num_sessions=20))
    vocab, params, _ = _loaded_model(config, sessions, tmp_path)
    window = _window(_distinct_session(sessions, vocab, config, 2), 1, config)
    encoded_rows.clear()
    first = forward(params, config, vocab, window)
    assert forward(params, config, vocab, window) == first
    assert encoded_rows == [2]

    edited = dict(params)
    edited["tok_emb"] = params["tok_emb"] * 1.5
    edited["tok_emb"].flags.writeable = False
    got = forward(edited, config, vocab, window)
    copies = {k: v.copy() for k, v in edited.items()}
    assert got == forward_batch(copies, config, encode_window(window, vocab, config))[0][0]
    assert got != forward(params, config, vocab, window)
    same_words = Vocabulary.from_dict(vocab.to_dict())
    assert forward(params, config, same_words, window) == first
    other = replace(config, num_heads=1)
    got = forward(params, other, vocab, window)
    assert got == forward_batch(params, other, encode_window(window, vocab, other))[0][0]
    # The first call, the edited dict and its reference, the other config
    # and its reference; the memo serves the original dict and vocabulary.
    assert encoded_rows == [2] * 5


def test_two_loaded_models_alternating_each_encode_one_row_a_decision(tmp_path, encoded_rows):
    """Each loaded model keeps the memo of its own last window, so a control
    and a treatment model that score the same replay decision by decision
    encode one row a decision each, and each scores as its own
    ``predict_scores`` within 1e-12."""
    config = DESK_CONFIG
    sessions = generate(CorpusConfig(seed=5, num_sessions=40))
    models = []
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        models.append(_loaded_model(config, sessions, tmp_path / str(seed), seed=seed))
    session = _distinct_session(sessions, models[0][0], config, config.num_turns + 1)
    start = sum(len(s.turns) for s in sessions[: sessions.index(session)])
    encoded_rows.clear()
    for i in range(config.num_turns + 1):
        for vocab, params, want in models:
            got = forward(params, config, vocab, _window(session, i, config))
            assert abs(got - want[start + i]) <= 1e-12, i
    assert encoded_rows == [1] * 2 * (config.num_turns + 1)


def test_forward_with_a_plain_dict_of_read_only_arrays_encodes_every_row(tmp_path, encoded_rows):
    """Only ``LoadedParams`` carry a memo: the same read-only arrays in a
    plain dict encode the whole window on every call."""
    config = DESK_CONFIG
    sessions = generate(CorpusConfig(seed=5, num_sessions=40))
    vocab, params, _ = _loaded_model(config, sessions, tmp_path)
    plain = dict(params)
    assert not any(v.flags.writeable for v in plain.values())
    session = _distinct_session(sessions, vocab, config, config.num_turns + 1)
    encoded_rows.clear()
    for i in range(len(session.turns)):
        forward(plain, config, vocab, _window(session, i, config))
        forward(plain, config, vocab, _window(session, i, config))
    assert encoded_rows == [min(i + 1, config.num_turns) for i in range(len(session.turns))
                            for _ in range(2)]


def test_concurrent_forward_calls_score_as_predict_scores(tmp_path):
    """Threads replaying different sessions through ``forward`` share its
    memo; with two models and frequent thread switches every decision still
    equals ``predict_scores`` of its own model within 1e-12."""
    config = TINY_CONFIG
    sessions = generate(CorpusConfig(seed=12, num_sessions=16))
    models = []
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        models.append(_loaded_model(config, sessions, tmp_path / str(seed), seed=seed))
    starts = np.cumsum([0] + [len(s.turns) for s in sessions])
    errors = []

    def replay(k):
        vocab, params, want = models[k % 2]
        for _ in range(3):
            for si in range(k, len(sessions), 4):
                for i in range(len(sessions[si].turns)):
                    got = forward(params, config, vocab, _window(sessions[si], i, config))
                    if abs(got - want[starts[si] + i]) > 1e-12:
                        errors.append((k, si, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=replay, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_writable_params_edited_in_place_between_calls_match_fresh_params(tiny_setup):
    """The finite-difference pattern: writable params edited in place between
    two ``forward`` calls give, bit for bit, what the edited values give as
    a fresh dict; no row of the first call is reused."""
    sessions, vocab, _ = tiny_setup
    session = next(s for s in sessions if len(s.turns) >= 3)
    params = init_params(TINY_CONFIG, vocab, seed=8)
    for i, name in enumerate(("tok_emb", "text0.Wq", "struct0.ffn1_W")):
        forward(params, TINY_CONFIG, vocab, _window(session, i, TINY_CONFIG))
        params[name][...] *= 1.0 + 1e-3
        window = _window(session, i + 1, TINY_CONFIG)
        got = forward(params, TINY_CONFIG, vocab, window)
        fresh = {k: v.copy() for k, v in params.items()}
        want = forward_batch(fresh, TINY_CONFIG, encode_window(window, vocab, TINY_CONFIG))[0][0]
        assert got == want, name


def test_loaded_checkpoint_is_read_only_and_still_trains_and_scores(tmp_path, tiny_setup):
    """Every loaded array is read-only, so an in-place write raises; ``train``
    (as ``satgate train --warm`` calls it) and ``predict_scores`` take the
    loaded dict and give what a writable copy of it gives, bit for bit."""
    sessions, vocab, params = tiny_setup
    save_checkpoint(tmp_path / "m.ckpt", TINY_CONFIG, vocab, params)
    config, vocab, loaded = load_checkpoint(tmp_path / "m.ckpt")
    assert not any(v.flags.writeable for v in loaded.values())
    with pytest.raises(ValueError, match="read-only"):
        loaded["out_w"][0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        loaded["tok_emb"] += 1.0
    copies = {k: v.copy() for k, v in loaded.items()}
    ds = WindowDataset.from_sessions(sessions, vocab, config, "oracle")
    tconfig = TrainConfig(batch_size=32, learning_rate=0.01, epochs=1)
    for a, b in zip(train(loaded, config, ds, None, tconfig).trace,
                    train(copies, config, ds, None, tconfig).trace):
        assert a.train_loss == b.train_loss
    assert (predict_scores(loaded, config, ds.batch).tobytes()
            == predict_scores(copies, config, ds.batch).tobytes())


# --- loss ---------------------------------------------------------------------


def test_loss_symmetric_half():
    assert loss(0.5, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_vanishes_at_confident_correct():
    assert loss(1.0 - 1e-7, 1.0) < 1e-6


def test_loss_soft_label_scalar_recomputation():
    expected = -(0.3 * math.log(0.6) + 0.7 * math.log(0.4))
    assert loss(0.6, 0.3) == pytest.approx(expected, abs=1e-12)


def test_loss_domain_errors():
    with pytest.raises(ValueError):
        loss(0.0, 0.5)
    with pytest.raises(ValueError):
        loss(1.0, 0.5)
    with pytest.raises(ValueError):
        loss(0.5, 1.5)


# --- backward -------------------------------------------------------------------


def test_backward_deterministic(tiny_setup):
    sessions, vocab, params = tiny_setup
    window = list(sessions[0].turns[:2])
    g1 = backward(params, TINY_CONFIG, vocab, window, 0.3)
    g2 = backward(params, TINY_CONFIG, vocab, window, 0.3)
    assert sorted(g1) == sorted(params)
    for key in g1:
        assert np.array_equal(g1[key], g2[key])
        assert g1[key].shape == params[key].shape


@pytest.mark.parametrize("length", [
    pytest.param(TINY_CONFIG.num_turns, id="full"),
    pytest.param(2, id="short"),
])
def test_backward_null_turn_gradient_zero(tiny_setup, length):
    sessions, vocab, params = tiny_setup
    session = next(s for s in sessions if len(s.turns) >= TINY_CONFIG.num_turns)
    window = list(session.turns[:length])
    grads = backward(params, TINY_CONFIG, vocab, window, 0.7)
    assert np.all(grads["null_turn"] == 0.0)


def test_null_turn_values_change_no_score_or_gradient(tiny_setup, repeated_setup):
    """Padded window slots need no embedding, so random null_turn values
    leave predict_scores, forward and loss_and_grad_batch (loss, p and every
    gradient) bit-identical."""
    sessions, vocab, params = tiny_setup
    batch, _ = repeated_setup
    batch = replace(batch, labels=np.random.default_rng(2).uniform(size=len(batch)))
    other = {k: v.copy() for k, v in params.items()}
    other["null_turn"][...] = np.random.default_rng(3).normal(0.0, 5.0, other["null_turn"].shape)
    windows = [s.turns[max(0, i + 1 - TINY_CONFIG.num_turns) : i + 1]
               for s in sessions for i in range(len(s.turns))]

    def run(p):
        loss_value, grads, probs = net.loss_and_grad_batch(p, TINY_CONFIG, batch)
        return [predict_scores(p, TINY_CONFIG, batch),
                np.array([forward(p, TINY_CONFIG, vocab, list(w)) for w in windows]),
                np.array(loss_value), probs, *(grads[name] for name in params)]

    for name, a, b in zip(["predict_scores", "forward", "loss", "p", *params],
                          run(params), run(other)):
        assert a.tobytes() == b.tobytes(), name


def _assert_backward_matches_finite_differences(params, config, vocab, window, label,
                                                names, rng):
    """Central differences of the loss at 40 random entries of ``names``."""
    _assert_gradient_entries_match_finite_differences(params, config, vocab, window, label,
                                                      _random_entries(params, names, rng))


def _random_entries(params, names, rng):
    """40 random (name, flat index) entries of the tensors ``names``."""
    entries = []
    for _ in range(40):
        name = names[int(rng.integers(len(names)))]
        entries.append((name, int(rng.integers(params[name].size))))
    return entries


def _assert_gradient_entries_match_finite_differences(params, config, vocab, window, label,
                                                      entries):
    """Central differences of the loss at the (name, flat index) ``entries``."""
    grads = backward(params, config, vocab, window, label)
    h = 1e-5
    for name, i in entries:
        flat = params[name].reshape(-1)
        old = flat[i]
        flat[i] = old + h
        up = loss(forward(params, config, vocab, window), label)
        flat[i] = old - h
        down = loss(forward(params, config, vocab, window), label)
        flat[i] = old
        fd = (up - down) / (2 * h)
        an = grads[name].reshape(-1)[i]
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) <= 1e-4


def test_backward_matches_finite_differences_quick(tiny_setup):
    """Spot check; the acceptance suite runs the exhaustive version."""
    sessions, vocab, _ = tiny_setup
    params = init_params(TINY_CONFIG, vocab, seed=11)
    _assert_backward_matches_finite_differences(
        params, TINY_CONFIG, vocab, list(sessions[1].turns[:2]), 0.4, sorted(params),
        np.random.default_rng(0),
    )


def test_backward_matches_finite_differences_two_text_blocks(tiny_setup):
    """Spot check of the full text block that feeds the summary-only last
    block, on a window whose text rows have padded positions."""
    _, vocab, _ = tiny_setup
    config = replace(TINY_CONFIG, text_blocks=2)
    params = init_params(config, vocab, seed=12)
    window = [make_turn(query="play music", voice_response="ok"),
              make_turn(query="play the song show me love", voice_response="playing")]
    assert (encode_window(window, vocab, config).text_mask == 0.0).any()
    names = sorted(n for n in params if n.startswith("text") or n in ("tok_emb", "pos_emb"))
    _assert_backward_matches_finite_differences(
        params, config, vocab, window, 0.3, names, np.random.default_rng(1)
    )


def test_backward_matches_finite_differences_across_length_buckets(quartile_cuts):
    """Spot check at ``text_blocks=2`` on a window whose four turns fall in
    three length buckets, with every ``pos_emb`` entry past the shortest
    bucket's width: those rows get their gradient from the longer buckets
    alone."""
    config = replace(TINY_CONFIG, text_blocks=2, num_turns=4)
    window = [make_turn(query=q, voice_response="ok", timestamp=float(i)) for i, q in
              enumerate(["play", "play the", "play the song", "play the song show me love"])]
    vocab = Vocabulary.build([Session("s", tuple(window))], config.vocab_size)
    params = init_params(config, vocab, seed=13)
    buckets = net._length_buckets(encode_window(window, vocab, config).text_mask, 0.0)
    assert [width for _, width in buckets] == [4, 5, 7]
    D = config.embed_dim
    entries = [("pos_emb", r * D + c) for r in range(4, 7) for c in range(D)]
    names = sorted(n for n in params if n.startswith("text") or n == "tok_emb")
    entries += _random_entries(params, names, np.random.default_rng(2))
    _assert_gradient_entries_match_finite_differences(params, config, vocab, window, 0.3,
                                                      entries)


# --- batch scoring ------------------------------------------------------------


@pytest.fixture(scope="module")
def repeated_setup(tiny_setup):
    """Windows of a corpus whose turn contents repeat across sessions: every
    session again, and its first two turns as a session of their own."""
    sessions, vocab, params = tiny_setup
    corpus = list(sessions)
    for s in sessions:
        corpus.append(Session(s.session_id + "-again", s.turns))
        corpus.append(Session(s.session_id + "-head", s.turns[:2]))
    ds = WindowDataset.from_sessions(corpus, vocab, TINY_CONFIG, "none")
    return ds.batch, params


def _row_contents(batch):
    """Per pool row, every per-turn array the encoder reads, as bytes."""
    return [b"|".join(getattr(batch, name)[r].tobytes() for name in _POOL_ARRAYS)
            for r in range(batch.pool_size)]


def test_windows_and_feature_rows_list_turns_in_corpus_order(tiny_setup):
    """Dataset windows and feature rows both follow corpus order (sessions in
    order, each session's turns in order; an empty session adds nothing), the
    order in which per-turn scores and labels pass between stages."""
    sessions, vocab, _ = tiny_setup
    corpus = [sessions[0], Session("empty", ()), *sessions[1:6], Session("empty-last", ())]
    positions = [(si, ti) for si, s in enumerate(corpus) for ti in range(len(s.turns))]
    turns = [turn for s in corpus for turn in s.turns]
    ds = WindowDataset.from_sessions(corpus, vocab, TINY_CONFIG, "none")
    X, index = features_matrix(corpus, FeatureExtractor.fit(corpus))
    assert list(zip(ds.session_index.tolist(), ds.turn_index.tolist())) == positions
    assert list(map(tuple, index.tolist())) == positions
    pool = _row_contents(ds.batch)
    for i, turn in enumerate(turns):
        own = _row_contents(encode_window([turn], vocab, TINY_CONFIG))[0]
        assert pool[ds.batch.window_rows[i, -1]] == own
    assert X[:, 0].tolist() == [t.asr_confidence for t in turns]
    assert X[:, 13].tolist() == [t.nlu_confidence for t in turns]


@pytest.mark.parametrize("microbatch", [1, 7, 1024, None])
def test_predict_scores_equals_per_window_forward(repeated_setup, microbatch):
    batch, params = repeated_setup
    n = len(batch)
    want = np.array([
        forward_batch(params, TINY_CONFIG, batch.subset(np.array([i])))[0][0] for i in range(n)
    ])
    got = predict_scores(params, TINY_CONFIG, batch, microbatch=microbatch or n + 5)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("microbatch", [7, 1024])
def test_predict_scores_encodes_each_content_once(repeated_setup, monkeypatch, microbatch):
    batch, params = repeated_setup
    distinct = set(_row_contents(batch))
    # One window per turn; the corpus repeats content, and the pool does not.
    assert batch.pool_size == len(distinct) < len(batch)
    encoded = []
    real_encode = net._encode_pool

    def counting_encode(params, config, pool, want_cache):
        encoded.extend(_row_contents(pool))
        assert pool.pool_size <= microbatch
        return real_encode(params, config, pool, want_cache)

    monkeypatch.setattr(net, "_encode_pool", counting_encode)
    predict_scores(params, TINY_CONFIG, batch, microbatch=microbatch)
    assert len(encoded) == len(distinct)
    assert set(encoded) == distinct


_POOL_VOCAB = Vocabulary(
    tokens="play the a song show me love playing more".split(),
    domains=["music-play", "music-stop"],
    slot_keys=["song", "artist"],
    items=["show me love", "love me do"],
)


def _pool_of(*turns):
    """The pool of one-turn sessions, one per turn; the default turn's text
    fills ``max_text_len`` exactly."""
    sessions = [Session(str(i), (turn,)) for i, turn in enumerate(turns)]
    config = replace(TINY_CONFIG, max_text_len=10)
    return WindowDataset.from_sessions(sessions, _POOL_VOCAB, config, "none").batch


@pytest.mark.parametrize("field, edits", [pytest.param(field, edits, id=field) for field, edits in [
    ("text_ids", [dict(query="play a song show me love"),  # a query token
                  dict(voice_response="playing show me more")]),  # a response token
    ("text_mask", [dict(voice_response="playing show me")]),
    ("dom_ids", [dict(domain_intent="music-stop")]),
    ("item_ids", [dict(result_item="love me do")]),
    ("slot_key_ids", [dict(slots=(("artist", ("show", "me", "love")),))]),
    ("slot_key_mask", [dict(slots=(("song", ("show", "me", "love")), ("artist", ("me",))))]),
    ("slot_val_ids", [dict(slots=(("song", ("show", "me", "more")),))]),
    ("slot_val_mask", [dict(slots=(("song", ("show", "me")),))]),
]])
def test_content_groups_separate_rows_that_differ_in_any_array(field, edits):
    """A turn that differs from another in an id the encoder reads gets a
    pool row of its own, and the two rows differ in ``field``."""
    for edit in edits:
        batch = _pool_of(make_turn(), make_turn(**edit))
        assert batch.pool_size == 2
        assert list(batch.window_rows[:, -1]) == [0, 1]
        values = getattr(batch, field)
        assert not np.array_equal(values[0], values[1])


@pytest.mark.parametrize("turn_a, turn_b", [
    pytest.param({}, dict(timestamp=5.0), id="timestamp"),
    pytest.param({}, dict(asr_confidence=0.2, nlu_confidence=0.3), id="confidences"),
    pytest.param({}, dict(voice_response="playing show me love more"), id="past-max-text-len"),
    pytest.param(dict(query="play the song xyzzy"), dict(query="play the song plugh"),
                 id="two-oovs"),
    pytest.param(dict(slots=(("song", tuple("play the a song show me".split())),)),
                 dict(slots=(("song", tuple("play the a song show love".split())),)),
                 id="past-max-slot-value-tokens"),
    pytest.param(dict(slots=(("song", ("me",)), ("song", ("me",)), ("song", ("a",)))),
                 dict(slots=(("song", ("me",)), ("song", ("me",)), ("artist", ("b",)))),
                 id="past-max-slots"),
])
def test_turns_that_differ_only_where_the_encoder_does_not_read_share_a_row(turn_a, turn_b):
    batch = _pool_of(make_turn(**turn_a), make_turn(**turn_b))
    assert batch.pool_size == 1
    assert list(batch.window_rows[:, -1]) == [0, 0]


def test_predict_scores_rejects_microbatch_below_one(repeated_setup):
    batch, params = repeated_setup
    with pytest.raises(ValueError, match="microbatch must be at least 1, got 0"):
        predict_scores(params, TINY_CONFIG, batch, microbatch=0)


def test_loss_and_grad_batch_fills_the_given_flat_buffer(repeated_setup, monkeypatch):
    """With ``out`` the gradient lands in that vector, overwriting what it
    held, and equals the gradient of a call without it bit for bit, with one
    chunk and with several."""
    batch, params = repeated_setup
    shapes = {k: v.shape for k, v in params.items()}
    size = sum(v.size for v in params.values())
    for microbatch in (256, 3):
        monkeypatch.setattr(net, "_MICROBATCH", microbatch)
        _, want, _ = net.loss_and_grad_batch(params, TINY_CONFIG, batch)
        out = net.flat_views(shapes, np.full(size, 7.0))
        _, got, _ = net.loss_and_grad_batch(params, TINY_CONFIG, batch, out=out)
        assert got is out[1] and list(got) == list(params)
        for name in params:
            assert got[name].base is out[0]
            assert got[name].tobytes() == want[name].tobytes(), name


def test_loss_and_grad_batch_does_not_depend_on_the_chunk_size(repeated_setup, monkeypatch):
    """Chunks of 3 windows give the loss, p and every gradient of one
    256-window chunk within 1e-12: only the summation order differs."""
    batch, params = repeated_setup
    batch = replace(batch, labels=np.random.default_rng(4).uniform(size=len(batch)))
    assert 3 < len(batch) <= 256
    want = net.loss_and_grad_batch(params, TINY_CONFIG, batch)
    monkeypatch.setattr(net, "_MICROBATCH", 3)
    got = net.loss_and_grad_batch(params, TINY_CONFIG, batch)
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12, err_msg="loss")
    np.testing.assert_allclose(got[2], want[2], rtol=0, atol=1e-12, err_msg="p")
    for name in params:
        np.testing.assert_allclose(got[1][name], want[1][name], rtol=0, atol=1e-12,
                                   err_msg=name)


# --- embedding scatter ---------------------------------------------------------------


@pytest.mark.parametrize("ids", [
    pytest.param([4, 0, 4, 2, 4, 0, 7, 2], id="repeated"),
    pytest.param([3], id="single"),
    pytest.param([5, 5, 5, 5, 5], id="all-equal"),
    pytest.param([], id="empty"),
])
def test_scatter_add_matches_add_at(ids):
    rng = np.random.default_rng(len(ids))
    ids = np.array(ids, dtype=np.int64)
    rows = rng.normal(size=(len(ids), 6))
    want = rng.normal(size=(9, 6))
    got = want.copy()
    np.add.at(want, ids, rows)
    net._scatter_add(got, ids, rows)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# --- length buckets of the text stack ----------------------------------------------


@pytest.fixture
def quartile_cuts(monkeypatch):
    """Pins the cost of a text-stack pass to 0 positions, so that the text
    stack runs every quartile bucket ``_length_buckets`` cuts."""
    monkeypatch.setattr(net, "_PASS_FIXED", 0.0)
    monkeypatch.setattr(net, "_PASS_SCALE", 0.0)


def _one_full_width_bucket(text_mask, pass_cost):
    """The bucketing that computes every position: the reference arithmetic."""
    return [(np.arange(text_mask.shape[0]), text_mask.shape[1])]


def _text_lengths_pool(lengths):
    """A tiny-preset dataset of two-turn sessions whose pool rows have the
    given lengths (aggregate slot included; L = 7), with random labels."""
    words = "play the a song show me love playing more".split()
    turns = [make_turn(query=" ".join(words[i % 3 : i % 3 + n - 2]), voice_response=words[i],
                       timestamp=float(i % 2))
             for i, n in enumerate(lengths)]
    sessions = [Session(str(i), tuple(turns[i : i + 2])) for i in range(0, len(turns), 2)]
    vocab = Vocabulary.build(sessions, TINY_CONFIG.vocab_size)
    ds = WindowDataset.from_sessions(sessions, vocab, TINY_CONFIG, "none")
    labels = np.random.default_rng(len(lengths)).uniform(size=len(ds))
    return replace(ds.batch, labels=labels), vocab, sessions


def _assert_bucketed_equals_full_width(params, config, vocab, batch, sessions, monkeypatch):
    """predict_scores, forward and loss_and_grad_batch (loss, p and every
    gradient tensor) match the one-full-width-bucket reference within 1e-12."""
    def run():
        windows = [s.turns[max(0, i + 1 - config.num_turns) : i + 1]
                   for s in sessions for i in range(len(s.turns))]
        return (predict_scores(params, config, batch),
                np.array([forward(params, config, vocab, list(w)) for w in windows]),
                net.loss_and_grad_batch(params, config, batch))

    monkeypatch.setattr(net, "_MICROBATCH", 64)
    got = run()
    with monkeypatch.context() as m:
        m.setattr(net, "_length_buckets", _one_full_width_bucket)
        want = run()
    for name, a, b in (("predict_scores", got[0], want[0]), ("forward", got[1], want[1]),
                       ("loss", got[2][0], want[2][0]), ("p", got[2][2], want[2][2])):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)
    assert sorted(got[2][1]) == sorted(params)
    for name in params:
        np.testing.assert_allclose(got[2][1][name], want[2][1][name], rtol=0, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("preset", ["tiny", "desk"])
def test_length_buckets_match_one_full_width_bucket(preset, monkeypatch, quartile_cuts):
    config = {"tiny": TINY_CONFIG, "desk": DESK_CONFIG}[preset]
    sessions = generate(CorpusConfig(seed=17, num_sessions=40))
    # Generated text mostly fills the tiny preset's 6 positions; shortened
    # copies of half the sessions spread the lengths at both presets.
    sessions = sessions[:20] + [
        Session(s.session_id + "-short", tuple(
            replace(t, query=t.query[: 1 + k % 3], voice_response=t.voice_response[:1])
            for k, t in enumerate(s.turns)))
        for s in sessions[20:]
    ]
    vocab = Vocabulary.build(sessions, config.vocab_size)
    params = init_params(config, vocab, seed=6)
    ds = WindowDataset.from_sessions(sessions, vocab, config, "none")
    batch = replace(ds.batch, labels=np.random.default_rng(0).uniform(size=len(ds)))
    assert len(net._length_buckets(batch.text_mask, 0.0)) >= 3
    _assert_bucketed_equals_full_width(params, config, vocab, batch, sessions, monkeypatch)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=40))
def test_length_buckets_cut_at_rounded_up_quartiles(lengths):
    """Each row lands in the first group whose width, the row length at or
    above a quartile of the pool's lengths, holds it."""
    mask = (np.arange(7) < np.array(lengths)[:, None]).astype(float)
    cuts = np.unique(np.quantile(lengths, [0.25, 0.5, 0.75, 1.0], method="higher")).tolist()
    buckets = net._length_buckets(mask, 0.0)
    assert [width for _, width in buckets] == cuts
    for (rows, width), below in zip(buckets, [0] + cuts[:-1]):
        assert all(below < lengths[r] <= width for r in rows)
    assert sorted(np.concatenate([rows for rows, _ in buckets])) == list(range(len(lengths)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=40), st.floats(0.0, 200.0))
def test_length_buckets_merge_while_padding_costs_less_than_a_pass(lengths, pass_cost):
    """Merged quartile groups still partition the rows, each width is its
    group's longest row, and no neighbouring pair is left whose merge would
    add fewer padded positions than a pass costs."""
    mask = (np.arange(7) < np.array(lengths)[:, None]).astype(float)
    lengths = np.array(lengths)
    buckets = net._length_buckets(mask, pass_cost)
    quartile_widths = [width for _, width in net._length_buckets(mask, 0.0)]
    widths = [width for _, width in buckets]
    assert set(widths) <= set(quartile_widths) and widths[-1] == quartile_widths[-1]
    assert widths == sorted(set(widths))
    assert sorted(np.concatenate([rows for rows, _ in buckets])) == list(range(len(lengths)))
    for rows, width in buckets:
        assert lengths[rows].max() == width
    for (rows, width), (_, wider) in zip(buckets, buckets[1:]):
        assert len(rows) * (wider - width) >= pass_cost


@pytest.mark.parametrize("lengths, widths", [
    pytest.param([3, 4, 5, 6, 7, 3, 5, 4], [4, 5, 6, 7], id="every-bucket"),
    pytest.param([7] * 6, [7], id="all-full-length"),
    pytest.param([4], [4], id="one-row"),
])
def test_length_bucket_edge_pools(lengths, widths, monkeypatch, quartile_cuts):
    batch, vocab, sessions = _text_lengths_pool(lengths)
    lengths_got = batch.text_mask.sum(axis=1)
    assert sorted(lengths_got) == sorted(lengths)
    buckets = net._length_buckets(batch.text_mask, 0.0)
    assert [width for _, width in buckets] == widths
    rows = np.concatenate([r for r, _ in buckets])
    assert sorted(rows) == list(range(batch.pool_size))  # each row in one bucket
    for r, width in buckets:
        assert lengths_got[r].max() == width
    params = init_params(TINY_CONFIG, vocab, seed=8)
    _assert_bucketed_equals_full_width(params, TINY_CONFIG, vocab, batch, sessions, monkeypatch)


@pytest.mark.parametrize("lengths, positions", [
    # widths 4, 5, 6 and 7 over 4, 2, 1 and 1 rows
    pytest.param([3, 4, 5, 6, 7, 3, 5, 4], 4 * 4 + 2 * 5 + 6 + 7, id="mixed"),
    pytest.param([7] * 6, 6 * 7, id="all-full-length"),
])
def test_text_blocks_skip_padding(lengths, positions, monkeypatch, quartile_cuts):
    """The positions the first text block computes total less than M x L on
    a mixed-length pool and exactly M x L when every row is full length."""
    batch, vocab, _ = _text_lengths_pool(lengths)
    params = init_params(TINY_CONFIG, vocab, seed=8)
    seen = []
    real_block = net._block_forward

    def counting_block(params, prefix, x, *args, **kwargs):
        if prefix == "text0.":
            seen.append(x.shape[0] * x.shape[1])
        return real_block(params, prefix, x, *args, **kwargs)

    monkeypatch.setattr(net, "_block_forward", counting_block)
    predict_scores(params, TINY_CONFIG, batch)
    assert sum(seen) == positions
    M, L = batch.text_mask.shape
    if min(lengths) < L:
        assert positions < M * L
    else:
        assert positions == M * L


@pytest.mark.parametrize("preset", ["tiny", "desk"])
def test_flat_products_match_per_row_products(preset, monkeypatch):
    """Every per-position layer over more than one position runs as one 2-D
    product, at every preset; that gives the scores, loss and gradients of
    numpy's per-row products (``m @ W`` on the stacked operand) within
    1e-12."""
    config = {"tiny": TINY_CONFIG, "desk": DESK_CONFIG}[preset]
    sessions = generate(CorpusConfig(seed=17, num_sessions=30))
    vocab = Vocabulary.build(sessions, config.vocab_size)
    params = init_params(config, vocab, seed=6)
    ds = WindowDataset.from_sessions(sessions, vocab, config, "none")
    batch = replace(ds.batch, labels=np.random.default_rng(0).uniform(size=len(ds)))

    def run():
        return predict_scores(params, config, batch), net.loss_and_grad_batch(params, config, batch)

    got_p, (got_loss, got_grads, _) = run()
    monkeypatch.setattr(net, "_positionwise", lambda m, W: m @ W)
    want_p, (want_loss, want_grads, _) = run()
    np.testing.assert_allclose(got_p, want_p, rtol=0, atol=1e-12)
    assert abs(got_loss - want_loss) <= 1e-12
    for name in params:
        np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=0, atol=1e-12,
                                   err_msg=name)


def test_deployed_forward_passes_the_text_stack_once(monkeypatch):
    """At the deployed preset a gate decision's few pool rows run as one
    length bucket, so each ``forward`` passes through the first text block
    once; quartile cuts alone would split many of these windows."""
    config = DEPLOYED_CONFIG
    sessions = generate(CorpusConfig(seed=3, num_sessions=12))
    vocab = Vocabulary.build(sessions, config.vocab_size)
    params = init_params(config, vocab, seed=0)
    windows = [list(s.turns[max(0, i + 1 - config.num_turns) : i + 1])
               for s in sessions for i in range(len(s.turns))]
    quartile = [len(net._length_buckets(encode_window(w, vocab, config).text_mask, 0.0))
                for w in windows]
    assert max(quartile) >= 3
    passes = []
    real_block = net._block_forward

    def counting_block(params, prefix, *args, **kwargs):
        if prefix == "text0.":
            passes[-1] += 1
        return real_block(params, prefix, *args, **kwargs)

    monkeypatch.setattr(net, "_block_forward", counting_block)
    for window in windows:
        passes.append(0)
        forward(params, config, vocab, window)
    assert passes == [1] * len(windows)


# --- vocabulary and checkpoints ---------------------------------------------------


def test_vocab_build_caps_and_reserved_ids(small_corpus):
    vocab = Vocabulary.build(small_corpus, vocab_size=20)
    assert vocab.n_tokens <= 20
    assert vocab.token_id("zz-unknown-zz") == 1  # OOV
    assert PAD_ID == 0 and AGG_ID == 2
    known = vocab.tokens[0]
    assert vocab.token_id(known) >= 3


def _per_turn_vocab(sessions, vocab_size):
    """The vocabulary as a per-turn count of every token and symbol gives it."""
    tokens, domains, keys, items = Counter(), Counter(), Counter(), Counter()
    for session in sessions:
        for turn in session.turns:
            tokens.update(turn.query)
            tokens.update(turn.voice_response)
            domains[turn.domain_intent] += 1
            items[turn.result_item] += 1
            for key, value in turn.slots:
                keys[key] += 1
                tokens.update(value)

    def ranked(counts):
        return [k for k, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]

    return {"tokens": ranked(tokens)[: max(vocab_size - 3, 0)], "domains": ranked(domains),
            "slot_keys": ranked(keys), "items": ranked(items)}, tokens


def test_vocab_counts_shared_tuples_like_every_turn(small_corpus):
    """Counting each distinct token tuple once, weighted by the turns that
    hold it, ranks as a per-turn count does, ties and caps inside a tie
    included; equal tuples need not be one object."""
    def turn(query, response, slots, domain, item):
        return make_turn(query=query, voice_response=response, slots=slots,
                         domain_intent=domain, result_item=item)

    def a():
        return turn("b a", "c d", (("k", ("e",)),), "d2", "i2")

    def b():
        return turn("e", "d c a b", (("j", ()),), "d1", "i1")

    def c():
        return turn("c d", "b a e", (("k", ("a",)), ("j", ("b",))), "d1", "i2")

    sessions = [Session("s0", (a(), b())), Session("s1", (c(), b(), a())), Session("s2", (a(), c()))]
    for corpus in (sessions, small_corpus):
        for vocab_size in range(3, 12):
            expected, _ = _per_turn_vocab(corpus, vocab_size)
            assert Vocabulary.build(corpus, vocab_size).to_dict() == expected
    _, counts = _per_turn_vocab(sessions, 3)
    assert len(set(counts.values())) < len(counts)  # the hand-made corpus has ties


def test_vocab_deterministic(small_corpus):
    v1 = Vocabulary.build(small_corpus, 50)
    v2 = Vocabulary.build(small_corpus, 50)
    assert v1.to_dict() == v2.to_dict()


def test_checkpoint_roundtrip_and_determinism(tmp_path, tiny_setup):
    _, vocab, params = tiny_setup
    p1, p2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    save_checkpoint(p1, TINY_CONFIG, vocab, params)
    save_checkpoint(p2, TINY_CONFIG, vocab, params)
    assert p1.read_bytes() == p2.read_bytes()
    config, vocab2, params2 = load_checkpoint(p1)
    assert config == TINY_CONFIG
    assert vocab2.to_dict() == vocab.to_dict()
    assert sorted(params2) == sorted(params)
    for key in params:
        assert np.array_equal(params2[key], params[key])


def test_init_params_are_views_of_one_buffer_drawn_per_tensor():
    """Names, shapes and order follow ``param_shapes``; every tensor is a
    view into one flat vector, laid end to end; and the values are the
    per-tensor draws of the same seeded stream, bit for bit."""
    vocab = Vocabulary(tokens=["a", "b"], domains=["d"], slot_keys=["k"], items=["m"])
    params = init_params(TINY_CONFIG, vocab, seed=3)
    shapes = net.param_shapes(TINY_CONFIG, vocab)
    assert list(params) == list(shapes)
    buffer = params["tok_emb"].base
    assert buffer.ndim == 1 and buffer.size == sum(math.prod(s) for s in shapes.values())
    end = 0
    for name, shape in shapes.items():
        assert params[name].shape == shape and params[name].base is buffer
        assert np.shares_memory(params[name], buffer[end : end + params[name].size])
        end += params[name].size
    rng = np.random.default_rng(3)
    fills = {"zeros": np.zeros, "ones": np.ones}
    for name, shape, init in net._param_specs(TINY_CONFIG, vocab):
        want = fills[init](shape) if isinstance(init, str) else rng.normal(0.0, init, shape)
        assert params[name].tobytes() == want.tobytes(), name


def test_checkpoint_loads_into_one_buffer(tmp_path, tiny_setup):
    _, vocab, params = tiny_setup
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)
    _, _, loaded = load_checkpoint(path)
    assert list(loaded) == sorted(params)  # the file's tensor order
    buffer = loaded["tok_emb"].base
    assert buffer.ndim == 1 and buffer.size == sum(v.size for v in params.values())
    end = 0
    for name in loaded:
        assert loaded[name].base is buffer
        assert np.shares_memory(loaded[name], buffer[end : end + loaded[name].size])
        end += loaded[name].size
        assert loaded[name].tobytes() == params[name].tobytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", ["rename", "reshape", "extra"])
def test_checkpoint_tensors_checked_against_parameter_set(tmp_path, tiny_setup, edit):
    """A params dict whose names or shapes differ from ``param_shapes``
    fails at save, naming the tensor, and creates no file: the file lists
    no tensors, so a load could not catch it."""
    _, vocab, params = tiny_setup
    params = dict(params)
    if edit == "rename":
        params["tok_emb_old"] = params.pop("tok_emb")
        expect = r"tensor 'tok_emb' .* shape absent, expected \(\d+, 8\)"
    elif edit == "reshape":
        params["pos_emb"] = params["pos_emb"][:-1]
        expect = r"tensor 'pos_emb' .* shape \(6, 8\), expected \(7, 8\)"
    else:
        params["zz_extra"] = np.zeros(3)
        expect = r"tensor 'zz_extra' .* shape \(3,\), expected absent"
    with pytest.raises(CheckpointError, match=expect):
        save_checkpoint(tmp_path / "edited.ckpt", TINY_CONFIG, vocab, params)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_payload_is_the_tensors_in_name_order(tmp_path, tiny_setup):
    """The header holds only the config and vocabulary, and the payload is
    every tensor of ``param_shapes`` in name order, as little-endian float64
    in C order, up to the end of the file."""
    _, vocab, params = tiny_setup
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)
    data = path.read_bytes()
    start = _payload_start(data)
    assert json.loads(data[20:start]) == {"config": TINY_CONFIG.to_dict(),
                                          "vocab": vocab.to_dict()}
    names = sorted(net.param_shapes(TINY_CONFIG, vocab))
    assert data[start:] == b"".join(params[name].astype("<f8").tobytes() for name in names)


def test_checkpoint_of_older_version_rejected(tmp_path, tiny_setup):
    _, vocab, params = tiny_setup
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)
    data = path.read_bytes()
    for version in (1, 2, 3, 4):
        path.write_bytes(data[:8] + version.to_bytes(4, "little") + data[12:])
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(path)


def test_truncated_or_corrupt_checkpoint_raises_checkpoint_error(tmp_path, tiny_setup):
    _, vocab, params = tiny_setup
    path = tmp_path / "full.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)
    data = path.read_bytes()
    header_end = 20 + int.from_bytes(data[12:20], "little")
    cut_path = tmp_path / "cut.ckpt"
    for cut in (0, 5, 8, 15, 20, 30, header_end - 1, header_end, len(data) - 40, len(data) - 1):
        cut_path.write_bytes(data[:cut])
        with pytest.raises(CheckpointError, match="truncated|bad magic"):
            load_checkpoint(cut_path)
    cut_path.write_bytes(data[:20] + b"x" + data[21:])  # header no longer JSON
    with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
        load_checkpoint(cut_path)


def _pipe_sending(tmp_path, data: bytes):
    """A named pipe in ``tmp_path`` and the started thread that writes
    ``data`` into it; a reader that closes the pipe early ends the write."""
    fifo = tmp_path / "pipe.ckpt"
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return fifo, writer


@pytest.mark.parametrize("source", ["devnull", "fifo"])
def test_checkpoint_that_is_not_a_regular_file_fails_naming_it(tmp_path, tiny_setup, source):
    """Only a regular file can be mapped: a device, or a pipe fed a valid
    checkpoint, fails with one line that names the path."""
    writer = None
    if source == "devnull":
        path = os.devnull
    else:
        if not hasattr(os, "mkfifo"):
            pytest.skip("needs named pipes")
        _, vocab, params = tiny_setup
        saved = tmp_path / "full.ckpt"
        save_checkpoint(saved, TINY_CONFIG, vocab, params)
        path, writer = _pipe_sending(tmp_path, saved.read_bytes())
    with pytest.raises(CheckpointError) as caught:
        load_checkpoint(path)
    assert str(caught.value) == f"checkpoint {str(path)!r} is not a regular file"
    if writer is not None:
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.parametrize("source", ["file", "smaller-config"])
def test_checkpoint_payload_longer_than_its_tensors_fails(tmp_path, tiny_setup, source):
    """A payload that runs on past the tensors its config and vocabulary
    define fails: bytes appended to the file, or a header edited to describe
    a smaller model."""
    _, vocab, params = tiny_setup
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)
    if source == "smaller-config":
        _rewrite_header(path, lambda h: {**h, "config": {**h["config"], "num_turns": 1}})
    else:
        path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match=r"payload runs past the \d+ bytes of its tensors"):
        load_checkpoint(path)


def _payload_start(data: bytes) -> int:
    return 20 + int.from_bytes(data[12:20], "little")


def test_checkpoint_payload_starts_at_a_multiple_of_64_after_space_padding(tmp_path, tiny_setup):
    """The JSON header is padded with fewer than 64 spaces, so that the
    payload starts at a multiple of 64 bytes, for any header length."""
    sessions, _, _ = tiny_setup
    paddings = set()
    for vocab_size in range(20, 28):
        vocab = Vocabulary.build(sessions, vocab_size)
        path = tmp_path / f"v{vocab_size}.ckpt"
        save_checkpoint(path, TINY_CONFIG, vocab, init_params(TINY_CONFIG, vocab, seed=1))
        data = path.read_bytes()
        start = _payload_start(data)
        assert start % 64 == 0
        header = data[20:start]
        text = header.rstrip(b" ")
        assert json.loads(text)["vocab"] == vocab.to_dict()
        assert len(header) - len(text) < 64
        paddings.add(len(header) - len(text))
    assert len(paddings) > 1  # the vocabularies give headers of different lengths


def test_desk_checkpoint_loads_without_copying_its_payload(tmp_path, tiny_setup):
    """A regular file's payload is mapped, not read: loading a desk
    checkpoint allocates less than a tenth of its payload beyond what
    parsing its header (the vocabulary's strings) alone allocates, and the
    loaded arrays hold the saved bits."""
    sessions, _, _ = tiny_setup
    vocab = Vocabulary.build(sessions, DESK_CONFIG.vocab_size)
    params = init_params(DESK_CONFIG, vocab, seed=2)
    path = tmp_path / "desk.ckpt"
    save_checkpoint(path, DESK_CONFIG, vocab, params)
    data = path.read_bytes()
    payload = len(data) - _payload_start(data)
    assert payload == 8 * sum(v.size for v in params.values())

    def peak_of(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, header_peak = peak_of(lambda: checkpoint_module._parse_header(data[20:_payload_start(data)]))
    (_, _, loaded), peak = peak_of(lambda: load_checkpoint(path))
    assert peak - header_peak < 0.1 * payload
    assert all(loaded[name].tobytes() == params[name].tobytes() for name in params)


def test_rewritten_checkpoint_leaves_a_loaded_model_its_old_weights(tmp_path, tiny_setup):
    """``save_checkpoint`` replaces the file instead of rewriting it in
    place, so a model loaded from the old file keeps its values, and a new
    load sees the new ones."""
    _, vocab, params = tiny_setup
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)
    _, _, old = load_checkpoint(path)
    newer = {name: value + 1.0 for name, value in params.items()}
    save_checkpoint(path, TINY_CONFIG, vocab, newer)
    _, _, new = load_checkpoint(path)
    for name in params:
        assert old[name].tobytes() == params[name].tobytes()
        assert new[name].tobytes() == newer[name].tobytes()


def test_checkpoint_rewrite_leaves_no_temporary_file_and_keeps_open_modes(tmp_path, tiny_setup):
    """A saved checkpoint gets the mode ``open(path, "wb")`` would give it:
    0o666 less the umask for a new file, and its own mode for a file it
    replaces; no temporary file is left, also when the rename fails."""
    _, vocab, params = tiny_setup
    path, plain = tmp_path / "m.ckpt", tmp_path / "plain"
    old_umask = os.umask(0o027)
    try:
        save_checkpoint(path, TINY_CONFIG, vocab, params)
        with open(plain, "wb"):
            pass
    finally:
        os.umask(old_umask)
    assert path.stat().st_mode == plain.stat().st_mode
    assert path.stat().st_mode & 0o777 == 0o640
    first = path.read_bytes()
    for mode in (0o600, 0o644):
        path.chmod(mode)
        save_checkpoint(path, TINY_CONFIG, vocab, params)
        assert path.stat().st_mode & 0o777 == mode
        assert path.read_bytes() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "plain"]


def test_failed_checkpoint_rewrite_keeps_the_old_file(tmp_path, tiny_setup, monkeypatch):
    _, vocab, params = tiny_setup
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)
    first = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        save_checkpoint(path, TINY_CONFIG, vocab, {k: v + 1.0 for k, v in params.items()})
    assert path.read_bytes() == first
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def _rewrite_header(path, edit):
    """Replace a saved checkpoint's JSON header with ``edit(header)``,
    keeping its payload."""
    data = path.read_bytes()
    header_end = 20 + int.from_bytes(data[12:20], "little")
    raw = json.dumps(edit(json.loads(data[20:header_end]))).encode("utf-8")
    path.write_bytes(data[:12] + len(raw).to_bytes(8, "little") + raw + data[header_end:])


@pytest.mark.parametrize("edit, expect", [
    pytest.param(lambda h: h["config"].update(depth=3),
                 "bad 'config': .*unexpected keyword argument 'depth'", id="unknown-config-key"),
    pytest.param(lambda h: h["config"].update(embed_dim=-8),
                 "bad 'config': embed_dim must be a positive", id="bad-config-value"),
    pytest.param(lambda h: h.pop("config"), "no 'config'", id="no-config"),
    pytest.param(lambda h: h.pop("vocab"), "no 'vocab'", id="no-vocab"),
    pytest.param(lambda h: h["vocab"].pop("tokens"), "'vocab' lacks 'tokens'", id="no-vocab-tokens"),
    pytest.param(None, "not a JSON object", id="header-is-a-list"),
    pytest.param(lambda h: h.update(tensors=[]), "unknown field 'tensors'", id="leftover-tensors"),
    pytest.param(lambda h: h["config"].pop("num_heads"), "'config' lacks 'num_heads'",
                 id="no-config-field"),
    pytest.param(lambda h: h["vocab"].update(tokens=[7] + h["vocab"]["tokens"][1:]),
                 "bad 'vocab': tokens must be a list of strings", id="non-string-token"),
])
def test_malformed_checkpoint_header_raises_checkpoint_error(tmp_path, tiny_setup, edit, expect):
    _, vocab, params = tiny_setup
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)

    def rewrite(header):
        if edit is None:
            return [header]
        edit(header)
        return header

    _rewrite_header(path, rewrite)
    with pytest.raises(CheckpointError, match=expect):
        load_checkpoint(path)


def test_checkpoint_too_short_for_its_header_fails_before_allocating(tmp_path, tiny_setup):
    """A file of tens of KB whose header describes a deployed-preset model
    (tens of MB of tensors) fails as truncated before a buffer of the
    model's size is allocated: the load's tracemalloc peak stays within a
    small multiple of the file's size."""
    _, vocab, params = tiny_setup
    path = tmp_path / "short.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)
    _rewrite_header(path, lambda h: {**h, "config": DEPLOYED_CONFIG.to_dict()})
    size = path.stat().st_size
    shapes = net.param_shapes(DEPLOYED_CONFIG, vocab)
    assert 8 * sum(math.prod(shape) for shape in shapes.values()) > 1000 * size
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated checkpoint: tensor"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * size


def _must_hold(path) -> bool:
    """Whether a saved checkpoint's header must hold the key at ``path``:
    the header's own keys and every config and vocabulary field."""
    return len(path) == 1 or len(path) == 2 and path[0] in ("config", "vocab")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_every_mutated_checkpoint_fails_with_a_checkpoint_error(tmp_path_factory, tiny_setup,
                                                                data):
    """Truncating a saved checkpoint, deleting a header key it must hold, or
    giving any header value another JSON type fails at load with a
    ``CheckpointError``; no ``KeyError``, ``TypeError``, ``AttributeError``,
    ``IndexError`` or ``MemoryError`` escapes."""
    _, vocab, params = tiny_setup
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)
    kind = data.draw(st.sampled_from(["truncate", "delete", "retype"]))
    if kind == "truncate":
        raw = path.read_bytes()
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    else:
        _rewrite_header(path, lambda header: mutate_json(data, header, kind, _must_hold)[0])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
