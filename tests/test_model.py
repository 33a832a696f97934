import json
import math
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
    encode_turn,
    encode_window,
    forward,
    forward_batch,
    init_params,
    load_checkpoint,
    loss,
    predict_scores,
    save_checkpoint,
)
from satgate.model import net
from satgate.synth import CorpusConfig, generate

from conftest import make_turn

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


# --- encode_turn -------------------------------------------------------------


def test_encode_turn_deterministic(tiny_setup):
    _, vocab, params = tiny_setup
    turn = make_turn()
    e1 = encode_turn(params, TINY_CONFIG, vocab, turn)
    e2 = encode_turn(params, TINY_CONFIG, vocab, turn)
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

    np.testing.assert_allclose(encode_turn(params, config, vocab, turn), expected, atol=1e-12)


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
    E = [encode_turn(params, config, vocab, t) for t in turns]

    def linear(name, x):
        return x @ params[name + "_W"] + params[name + "_b"]

    for n in (1, 2, 3):
        # real turns, oldest first, tagged by their distance from the current turn
        e = [E[i] + params["turn_offset_emb"][n - 1 - i] for i in range(n)]
        previous = e[:-1] or e  # a session's first turn attends to itself
        q = linear("cross_q", e[-1])
        logits = np.array([q @ linear("cross_k", x) for x in previous])
        logits /= math.sqrt(config.attention_scale)
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
    with pytest.raises(ValueError):
        PredictorConfig(attention_scale=-1.0)


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


def test_backward_null_turn_gradient_zero_when_window_full(tiny_setup):
    sessions, vocab, params = tiny_setup
    session = next(s for s in sessions if len(s.turns) >= TINY_CONFIG.num_turns)
    window = list(session.turns[: TINY_CONFIG.num_turns])
    grads = backward(params, TINY_CONFIG, vocab, window, 0.7)
    assert np.all(grads["null_turn"] == 0.0)


def test_backward_matches_finite_differences_quick(tiny_setup):
    """Spot check; the acceptance suite runs the exhaustive version."""
    sessions, vocab, _ = tiny_setup
    rng = np.random.default_rng(0)
    params = init_params(TINY_CONFIG, vocab, seed=11)
    window = list(sessions[1].turns[:2])
    label = 0.4
    grads = backward(params, TINY_CONFIG, vocab, window, label)
    h = 1e-5
    names = sorted(params)
    for _ in range(40):
        name = names[int(rng.integers(len(names)))]
        flat = params[name].reshape(-1)
        i = int(rng.integers(flat.size))
        old = flat[i]
        flat[i] = old + h
        up = loss(forward(params, TINY_CONFIG, vocab, window), label)
        flat[i] = old - h
        down = loss(forward(params, TINY_CONFIG, vocab, window), label)
        flat[i] = old
        fd = (up - down) / (2 * h)
        an = grads[name].reshape(-1)[i]
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-6) <= 1e-4


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


# --- vocabulary and checkpoints ---------------------------------------------------


def test_vocab_build_caps_and_reserved_ids(small_corpus):
    vocab = Vocabulary.build(small_corpus, vocab_size=20)
    assert vocab.n_tokens <= 20
    assert vocab.token_id("zz-unknown-zz") == 1  # OOV
    assert PAD_ID == 0 and AGG_ID == 2
    known = vocab.tokens[0]
    assert vocab.token_id(known) >= 3


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


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", ["rename", "reshape"])
def test_checkpoint_tensors_checked_against_parameter_set(tmp_path, tiny_setup, edit):
    _, vocab, params = tiny_setup
    params = dict(params)
    if edit == "rename":
        params["tok_emb_old"] = params.pop("tok_emb")
        expect = r"tensor 'tok_emb' .* checkpoint shape absent, expected \(\d+, 8\)"
    else:
        params["pos_emb"] = params["pos_emb"][:-1]
        expect = r"tensor 'pos_emb' .* checkpoint shape \(6, 8\), expected \(7, 8\)"
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)
    with pytest.raises(CheckpointError, match=expect):
        load_checkpoint(path)


def test_checkpoint_of_older_version_rejected(tmp_path, tiny_setup):
    _, vocab, params = tiny_setup
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)
    data = path.read_bytes()
    path.write_bytes(data[:8] + (1).to_bytes(4, "little") + data[12:])
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
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


def _drop_tensor_key(key):
    def edit(header):
        del header["tensors"][0][key]
    return edit


@pytest.mark.parametrize("edit, expect", [
    pytest.param(lambda h: h["config"].update(depth=3),
                 "bad 'config': .*unexpected keyword argument 'depth'", id="unknown-config-key"),
    pytest.param(lambda h: h["config"].update(embed_dim=-8),
                 "bad 'config': embed_dim must be a positive", id="bad-config-value"),
    pytest.param(lambda h: h.pop("config"), "no 'config'", id="no-config"),
    pytest.param(lambda h: h.pop("vocab"), "no 'vocab'", id="no-vocab"),
    pytest.param(lambda h: h["vocab"].pop("tokens"), "'vocab' lacks 'tokens'", id="no-vocab-tokens"),
    pytest.param(lambda h: h.pop("tensors"), "no 'tensors'", id="no-tensors"),
    pytest.param(_drop_tensor_key("offset"), "'tensors' lacks 'offset'", id="no-tensor-offset"),
    pytest.param(_drop_tensor_key("shape"), "'tensors' lacks 'shape'", id="no-tensor-shape"),
    pytest.param(None, "not a JSON object", id="header-is-a-list"),
])
def test_malformed_checkpoint_header_raises_checkpoint_error(tmp_path, tiny_setup, edit, expect):
    _, vocab, params = tiny_setup
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, TINY_CONFIG, vocab, params)
    data = path.read_bytes()
    header_end = 20 + int.from_bytes(data[12:20], "little")
    header = json.loads(data[20:header_end])
    if edit is None:
        header = [header]
    else:
        edit(header)
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:12] + len(raw).to_bytes(8, "little") + raw + data[header_end:])
    with pytest.raises(CheckpointError, match=expect):
        load_checkpoint(path)
