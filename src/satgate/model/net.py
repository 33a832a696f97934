"""The satisfaction predictor: per-turn transformer encoding, cross-turn
attention, and a max-pooled head, in float64 numpy with exact analytic
gradients.

Per turn, a text stack attends over the query and voice-response tokens (an
aggregate slot ahead of the text collects the summary) and a structured stack
attends over {domain-intent, slots, result item, text summary}. Only the
summary leaves the text stack, so its last block computes keys and values
for every position but everything past them for the aggregate slot alone;
the other blocks keep their per-position work. The text stack runs per
length bucket: pool rows are grouped by real text length into at most four
buckets, cut at the pool's length quartiles, and each bucket is trimmed to
its longest row, so trailing padding is never computed (a masked key gets a
softmax weight of exactly 0, and no output reads a padded query). Turn
embeddings, offset-tagged by distance from the current turn, feed an
attention of the current turn over its predecessors; each turn's embedding
concatenated with that attention output passes through a shared
fully-connected layer, an elementwise max over real turns, and a sigmoid
unit. One scaled dot-product attention primitive (``_attend``, with its
gradient ``_attend_backward``) serves the blocks of both stacks, the
cross-turn attention and the public ``attend_turns``.

Turns are encoded once per pool row and gathered into windows. The pool
(``data.py``) holds each distinct turn content once, so training, batch
scoring and online gating all run the heavy per-turn work once per distinct
content, however many windows and window slots share it.
"""

from __future__ import annotations

import math

import numpy as np

from ..dialog import DialogueTurn
from .config import PredictorConfig
from .data import Batch, encode_window
from .vocab import Vocabulary

__all__ = [
    "init_params",
    "param_shapes",
    "zeros_grads",
    "attend_turns",
    "encode_turn",
    "forward",
    "loss",
    "backward",
    "forward_batch",
    "loss_and_grad_batch",
    "predict_scores",
]

_MASK_OFF = 1e30  # additive logit penalty; exp underflows to exactly 0
_LOGIT_CLIP = 36.0  # keeps sigmoid strictly inside (0, 1) in float64
_LN_EPS = 1e-6
_MAX_BUCKETS = 4  # length buckets the text stack runs per pool


# --- primitives -----------------------------------------------------------


# tanh keeps every path smooth (finite-difference checks stay tight) and its
# derivative falls out of the cached activation.
def _act(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _act_grad_from_out(out: np.ndarray) -> np.ndarray:
    return 1.0 - out * out


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax_last(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


def _ln_forward(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv)


def _ln_backward(dy, gain, cache):
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    d_gain = (dy * xhat).sum(axis=axes)
    d_bias = dy.sum(axis=axes)
    dxhat = dy * gain
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, d_gain, d_bias


def _attend(q, k, v, key_mask, scale):
    """Scaled dot-product attention over the last two axes:
    ``softmax(q k^T / sqrt(scale) + mask) v`` and its weights A. ``key_mask``
    (q's leading axes, then the key axis; 1 = real key) removes keys from
    every query's softmax; None keeps them all."""
    logits = q @ k.swapaxes(-1, -2) / math.sqrt(scale)
    if key_mask is not None:
        logits = logits + (key_mask[..., None, :] - 1.0) * _MASK_OFF
    A = _softmax_last(logits)
    return A @ v, A


def _attend_backward(d_out, q, k, v, A, scale):
    """Gradients of ``_attend``'s output with respect to q, k and v; masked
    keys carry zero weight, so their gradients stay zero."""
    d_A = d_out @ v.swapaxes(-1, -2)
    d_v = A.swapaxes(-1, -2) @ d_out
    d_logits = A * (d_A - (d_A * A).sum(axis=-1, keepdims=True))
    d_q = d_logits @ k / math.sqrt(scale)
    d_k = d_logits.swapaxes(-1, -2) @ q / math.sqrt(scale)
    return d_q, d_k, d_v


def attend_turns(query_vec, keys, values, d: float) -> np.ndarray:
    """Scaled dot-product attention of one query over previous-turn rows:
    softmax(q K^T / sqrt(d)) V."""
    q = np.asarray(query_vec, dtype=np.float64).reshape(-1)
    K = np.atleast_2d(np.asarray(keys, dtype=np.float64))
    V = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if d <= 0:
        raise ValueError(f"attention scale d must be positive, got {d!r}")
    if K.shape != V.shape or K.shape[1] != q.shape[0] or K.shape[0] < 1:
        raise ValueError(
            f"shape mismatch: query {q.shape}, keys {K.shape}, values {V.shape}"
        )
    return _attend(q[None], K, V, None, d)[0][0]


# --- parameters -----------------------------------------------------------


def _block_prefixes(config: PredictorConfig) -> list[str]:
    return [f"text{b}." for b in range(config.text_blocks)] + [
        f"struct{b}." for b in range(config.struct_blocks)
    ]


def _param_specs(config: PredictorConfig, vocab: Vocabulary) -> list[tuple]:
    """Every parameter as (name, shape, init), in the order ``init_params``
    draws them; ``init`` is the standard deviation of a normal draw, or
    "zeros" or "ones"."""
    D, F, T = config.embed_dim, config.ffn_dim, config.num_turns
    L = config.max_text_len + 1
    rows = {"tok_emb": vocab.n_tokens, "pos_emb": L, "dom_emb": vocab.n_domains,
            "slotkey_emb": vocab.n_slot_keys, "item_emb": vocab.n_items, "turn_offset_emb": T}
    specs = [(name, (n, D), 0.1) for name, n in rows.items()] + [("null_turn", (D,), 0.1)]

    def linear(name, nin, nout):
        specs.append((name + "_W", (nin, nout), math.sqrt(2.0 / (nin + nout))))
        specs.append((name + "_b", (nout,), "zeros"))

    for prefix in _block_prefixes(config):
        for n in "qkvo":
            specs += [(prefix + "W" + n, (D, D), math.sqrt(1.0 / D)),
                      (prefix + "b" + n, (D,), "zeros")]
        specs += [(prefix + "ln1_g", (D,), "ones"), (prefix + "ln1_b", (D,), "zeros")]
        linear(prefix + "ffn1", D, F)
        linear(prefix + "ffn2", F, D)
        specs += [(prefix + "ln2_g", (D,), "ones"), (prefix + "ln2_b", (D,), "zeros")]

    for name in ("cross_q", "cross_k", "cross_v"):
        linear(name, D, D)
    linear("head", 2 * D, D)
    specs += [("out_w", (D,), math.sqrt(1.0 / D)), ("out_b", (), "zeros")]
    return specs


def param_shapes(config: PredictorConfig, vocab: Vocabulary) -> dict:
    """Name to shape of every parameter ``init_params`` creates; draws no
    random numbers."""
    return {name: shape for name, shape, _ in _param_specs(config, vocab)}


def init_params(config: PredictorConfig, vocab: Vocabulary, seed: int = 0) -> dict:
    """Fresh parameter dictionary; every array is float64."""
    rng = np.random.default_rng(seed)
    fills = {"zeros": np.zeros, "ones": np.ones}
    return {
        name: fills[init](shape) if isinstance(init, str) else rng.normal(0.0, init, shape)
        for name, shape, init in _param_specs(config, vocab)
    }


def zeros_grads(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}


# --- transformer block ----------------------------------------------------


def _block_forward(params, prefix, x, key_mask, num_heads, summary_only=False):
    """Post-norm block: x -> LN(x + MHA(x)) -> LN(. + FFN(.)).

    ``key_mask`` of shape (N, L) removes padded positions from every
    attention softmax; None means all positions are real. With
    ``summary_only`` the block computes keys and values for every position
    but queries, attention output, LN and FFN for slot 0 alone, and returns
    (N, 1, D): the output a full block would give at slot 0.
    """
    N, _, D = x.shape
    H = num_heads
    hd = D // H
    xq = x[:, :1] if summary_only else x

    def heads(m):
        return m.reshape(N, -1, H, hd).transpose(0, 2, 1, 3)

    Wkv = np.concatenate([params[prefix + "Wk"], params[prefix + "Wv"]], axis=1)
    kv = x @ Wkv + np.concatenate([params[prefix + "bk"], params[prefix + "bv"]])
    q = heads(xq @ params[prefix + "Wq"] + params[prefix + "bq"])
    k = heads(kv[..., :D])
    v = heads(kv[..., D:])
    mask = None if key_mask is None else key_mask[:, None, :]
    out, A = _attend(q, k, v, mask, hd)
    ctx = out.transpose(0, 2, 1, 3).reshape(xq.shape)
    attn = ctx @ params[prefix + "Wo"] + params[prefix + "bo"]

    x1, ln1 = _ln_forward(xq + attn, params[prefix + "ln1_g"], params[prefix + "ln1_b"])
    gu = _act(x1 @ params[prefix + "ffn1_W"] + params[prefix + "ffn1_b"])
    f = gu @ params[prefix + "ffn2_W"] + params[prefix + "ffn2_b"]
    x2, ln2 = _ln_forward(x1 + f, params[prefix + "ln2_g"], params[prefix + "ln2_b"])

    cache = {"x": x, "q": q, "k": k, "v": v, "A": A, "ctx": ctx, "Wkv": Wkv,
             "ln1": ln1, "x1": x1, "gu": gu, "ln2": ln2}
    return x2, cache


def _block_backward(params, grads, prefix, dy, cache, num_heads):
    """Gradient of ``_block_forward``: ``dy`` has the output's shape, (N, 1, D)
    for a summary-only block, and the returned d_x has x's, (N, L, D)."""
    x, q, k, v, A, ctx = (cache[n] for n in ("x", "q", "k", "v", "A", "ctx"))
    x1, gu = cache["x1"], cache["gu"]
    N, _, D = x.shape
    Lq = dy.shape[1]  # the query positions: all L, or slot 0 alone
    H = num_heads
    hd = D // H

    dres2, dg, db = _ln_backward(dy, params[prefix + "ln2_g"], cache["ln2"])
    grads[prefix + "ln2_g"] += dg
    grads[prefix + "ln2_b"] += db

    d_f = dres2
    grads[prefix + "ffn2_W"] += gu.reshape(-1, gu.shape[-1]).T @ d_f.reshape(-1, D)
    grads[prefix + "ffn2_b"] += d_f.sum(axis=(0, 1))
    d_u = (d_f @ params[prefix + "ffn2_W"].T) * _act_grad_from_out(gu)
    grads[prefix + "ffn1_W"] += x1.reshape(-1, D).T @ d_u.reshape(-1, d_u.shape[-1])
    grads[prefix + "ffn1_b"] += d_u.sum(axis=(0, 1))
    d_x1 = dres2 + d_u @ params[prefix + "ffn1_W"].T

    dres1, dg, db = _ln_backward(d_x1, params[prefix + "ln1_g"], cache["ln1"])
    grads[prefix + "ln1_g"] += dg
    grads[prefix + "ln1_b"] += db

    d_attn = dres1
    grads[prefix + "Wo"] += ctx.reshape(-1, D).T @ d_attn.reshape(-1, D)
    grads[prefix + "bo"] += d_attn.sum(axis=(0, 1))
    d_ctx = (d_attn @ params[prefix + "Wo"].T).reshape(N, Lq, H, hd).transpose(0, 2, 1, 3)

    d_q, d_k, d_v = _attend_backward(d_ctx, q, k, v, A, hd)

    def unheads(m):
        return m.transpose(0, 2, 1, 3).reshape(N, -1, D)

    d_q = unheads(d_q)
    d_kv = np.concatenate([unheads(d_k), unheads(d_v)], axis=-1)
    grads[prefix + "Wq"] += x[:, :Lq].reshape(-1, D).T @ d_q.reshape(-1, D)
    grads[prefix + "bq"] += d_q.sum(axis=(0, 1))
    gW = x.reshape(-1, D).T @ d_kv.reshape(-1, 2 * D)
    gb = d_kv.sum(axis=(0, 1))
    for i, n in enumerate("kv"):
        grads[prefix + "W" + n] += gW[:, i * D : (i + 1) * D]
        grads[prefix + "b" + n] += gb[i * D : (i + 1) * D]
    d_x = d_kv @ cache["Wkv"].T
    d_x[:, :Lq] += dres1 + d_q @ params[prefix + "Wq"].T
    return d_x


# --- per-turn encoding over the pool ---------------------------------------


def _length_buckets(text_mask):
    """Pool rows grouped by text length into at most ``_MAX_BUCKETS`` groups,
    cut at the pool's length quartiles, as (rows, width) pairs in ascending
    width. Each cut is the row length at or above its quartile, so each
    width is the longest row of its group, and a pool of a few rows (one
    gate decision) gets few groups: every group re-reads the block weights.

    A row's length is one past its last real position (the aggregate slot
    and the text form a prefix), so trimming a row to any width at or above
    it drops only masked keys, whose softmax weight is exactly 0; a row
    with no real position keeps the full width.
    """
    L = text_mask.shape[1]
    lengths = L - np.argmax(text_mask[:, ::-1] > 0, axis=1)
    n = len(lengths)
    if n == 0:
        return []
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    # The k-th cut is the sorted length at index ceil(k (n - 1) / _MAX_BUCKETS),
    # the one np.quantile(..., method="higher") picks, in integer arithmetic:
    # this runs once per pool, and a gate decision's pool is a few rows.
    cuts = sorted({int(sorted_lengths[-(-k * (n - 1) // _MAX_BUCKETS)])
                   for k in range(1, _MAX_BUCKETS + 1)})
    ends = np.searchsorted(sorted_lengths, cuts, side="right").tolist()
    return [(order[s:e], w) for s, e, w in zip([0] + ends[:-1], ends, cuts)]


def _encode_pool(params, config: PredictorConfig, batch: Batch, want_cache: bool):
    """Turn embeddings E (pool rows), running both per-turn stacks once per
    pool row.

    The text stack runs per length bucket (``_length_buckets``): each
    bucket's rows are trimmed to its longest row, so padding past it is
    never computed. The last text block is summary-only: past its keys and
    values it computes the aggregate slot alone, the one position read from
    it.
    """
    tok = params["tok_emb"]

    summary = np.empty((batch.pool_size, config.embed_dim))
    buckets = _length_buckets(batch.text_mask)
    text_caches = []  # bucket-major: text_blocks caches per bucket
    for rows, width in buckets:
        x = tok[batch.text_ids[rows, :width]] + params["pos_emb"][None, :width, :]
        tmask = batch.text_mask[rows, :width]
        for b in range(config.text_blocks):
            last = b == config.text_blocks - 1
            x, c = _block_forward(params, f"text{b}.", x, tmask, config.num_heads,
                                  summary_only=last)
            if want_cache:
                text_caches.append(c)
        summary[rows] = x[:, 0, :]

    key_mask = batch.slot_key_mask
    val_mask = batch.slot_val_mask
    val_cnt = np.maximum(val_mask.sum(axis=-1), 1.0)
    val_mean = (tok[batch.slot_val_ids] * val_mask[..., None]).sum(axis=2) / val_cnt[..., None]
    slot_tok = params["slotkey_emb"][batch.slot_key_ids] + val_mean
    key_cnt = np.maximum(key_mask.sum(axis=-1), 1.0)
    slot_vec = (slot_tok * key_mask[..., None]).sum(axis=1) / key_cnt[..., None]

    y = np.stack(
        [params["dom_emb"][batch.dom_ids], slot_vec, params["item_emb"][batch.item_ids], summary],
        axis=1,
    )
    struct_caches = []
    for b in range(config.struct_blocks):
        y, c = _block_forward(params, f"struct{b}.", y, None, config.num_heads)
        if want_cache:
            struct_caches.append(c)
    E = y.mean(axis=1)
    cache = {
        "buckets": buckets,
        "text_caches": text_caches,
        "struct_caches": struct_caches,
        "val_cnt": val_cnt,
        "key_cnt": key_cnt,
    } if want_cache else None
    return E, cache


def _encode_pool_backward(params, grads, config, batch: Batch, cache, d_E):
    """Gradient of ``_encode_pool``. The text stack runs backward per length
    bucket, from that bucket's summary gradients, and scatters into
    ``tok_emb`` over the trimmed ids and into the first ``width`` rows of
    ``pos_emb``."""
    M = batch.pool_size
    D = config.embed_dim
    d_y = np.broadcast_to(d_E[:, None, :] / 4.0, (M, 4, D)).copy()
    for b in range(config.struct_blocks - 1, -1, -1):
        d_y = _block_backward(
            params, grads, f"struct{b}.", d_y, cache["struct_caches"][b], config.num_heads
        )
    np.add.at(grads["dom_emb"], batch.dom_ids, d_y[:, 0, :])
    d_slot_vec = d_y[:, 1, :]
    np.add.at(grads["item_emb"], batch.item_ids, d_y[:, 2, :])
    d_summary = d_y[:, 3, :]

    key_mask, val_mask = batch.slot_key_mask, batch.slot_val_mask
    d_slot_tok = d_slot_vec[:, None, :] * key_mask[..., None] / cache["key_cnt"][:, None, None]
    np.add.at(grads["slotkey_emb"], batch.slot_key_ids.ravel(), d_slot_tok.reshape(-1, D))
    d_val_emb = (
        d_slot_tok[:, :, None, :] * val_mask[..., None] / cache["val_cnt"][..., None, None]
    )
    np.add.at(grads["tok_emb"], batch.slot_val_ids.ravel(), d_val_emb.reshape(-1, D))

    nb = config.text_blocks
    for i, (rows, width) in enumerate(cache["buckets"]):
        caches = cache["text_caches"][i * nb : (i + 1) * nb]
        d_x = d_summary[rows, None, :]
        for b in range(nb - 1, -1, -1):
            d_x = _block_backward(params, grads, f"text{b}.", d_x, caches[b], config.num_heads)
        np.add.at(grads["tok_emb"], batch.text_ids[rows, :width].ravel(), d_x.reshape(-1, D))
        grads["pos_emb"][:width] += d_x.sum(axis=0)


# --- full model -----------------------------------------------------------


def forward_batch(params: dict, config: PredictorConfig, batch: Batch, want_cache: bool = False):
    """Probabilities for a batch of windows; optionally keep the activation
    cache for the matching backward pass."""
    E, pool_cache = _encode_pool(params, config, batch, want_cache)
    p, cache = _score_windows(params, config, E, batch.window_rows, batch.turn_mask, want_cache)
    if want_cache:
        cache["pool"] = pool_cache
    return p, cache


def _score_windows(params, config: PredictorConfig, E, window_rows, turn_mask, want_cache: bool):
    """Probabilities for windows over turn embeddings ``E``: ``window_rows``
    (B, T) indexes rows of E and ``turn_mask`` marks the real turns."""
    B, T = window_rows.shape
    D = config.embed_dim

    # Turn-order information by distance from the current turn, so that front
    # padding never shifts a real turn's offset.
    offsets = np.arange(T - 1, -1, -1)
    tm = turn_mask
    e_real = E[window_rows] + params["turn_offset_emb"][offsets][None, :, :]
    e = np.where(tm[..., None] > 0, e_real, params["null_turn"][None, None, :])

    Q = e[:, T - 1, :] @ params["cross_q_W"] + params["cross_q_b"]
    K = e @ params["cross_k_W"] + params["cross_k_b"]
    V = e @ params["cross_v_W"] + params["cross_v_b"]
    pmask = tm.copy()
    pmask[:, T - 1] = 0.0
    no_prev = pmask.sum(axis=1) == 0
    pmask[no_prev, T - 1] = 1.0  # a session's first turn attends to itself
    O, A = _attend(Q[:, None, :], K, V, pmask, config.attention_scale)
    O = O[:, 0, :]

    # The head sees [e_t, O] for every turn t; O's half is the same for all
    # turns of a window, so it is computed once per window.
    W = params["head_W"]
    a = _act(e @ W[:D] + (O @ W[D:] + params["head_b"])[:, None, :])
    a_masked = np.where(tm[..., None] > 0, a, -np.inf)
    arg = a_masked.argmax(axis=1)
    mvec = np.take_along_axis(a_masked, arg[:, None, :], axis=1)[:, 0, :]
    logit = mvec @ params["out_w"] + params["out_b"]
    clip_ok = np.abs(logit) < _LOGIT_CLIP
    p = _sigmoid(np.clip(logit, -_LOGIT_CLIP, _LOGIT_CLIP))

    if not want_cache:
        return p, None
    cache = {
        "tm": tm, "e": e, "Q": Q, "K": K, "V": V, "A": A, "O": O,
        "a": a, "arg": arg, "mvec": mvec, "clip_ok": clip_ok, "p": p,
    }
    return p, cache


def _backward_batch(params, config, batch, cache, d_logit):
    """Gradients of sum_i d_logit[i] * logit_i with respect to every parameter."""
    B, T = batch.window_rows.shape
    D = config.embed_dim
    grads = zeros_grads(params)
    tm = cache["tm"]

    d_logit = d_logit * cache["clip_ok"]
    grads["out_w"] += cache["mvec"].T @ d_logit
    grads["out_b"] += d_logit.sum()
    d_m = d_logit[:, None] * params["out_w"][None, :]

    d_a = np.zeros((B, T, D))
    np.put_along_axis(d_a, cache["arg"][:, None, :], d_m[:, None, :], axis=1)
    d_uh = d_a * _act_grad_from_out(cache["a"])
    e, W = cache["e"], params["head_W"]
    e_flat = e.reshape(B * T, D)
    d_uh_O = d_uh.sum(axis=1)
    grads["head_W"][:D] += e_flat.T @ d_uh.reshape(B * T, D)
    grads["head_W"][D:] += cache["O"].T @ d_uh_O
    grads["head_b"] += d_uh_O.sum(axis=0)
    d_e = d_uh @ W[:D].T
    d_O = d_uh_O @ W[D:].T

    d_Q, d_K, d_V = _attend_backward(
        d_O[:, None, :], cache["Q"][:, None, :], cache["K"], cache["V"], cache["A"],
        config.attention_scale,
    )
    d_Q = d_Q[:, 0, :]
    grads["cross_q_W"] += e[:, T - 1, :].T @ d_Q
    grads["cross_q_b"] += d_Q.sum(axis=0)
    d_e[:, T - 1, :] += d_Q @ params["cross_q_W"].T
    for name, dm in (("cross_k", d_K), ("cross_v", d_V)):
        grads[name + "_W"] += e_flat.T @ dm.reshape(B * T, D)
        grads[name + "_b"] += dm.sum(axis=(0, 1))
        d_e += dm @ params[name + "_W"].T

    # Padded slots were replaced by the null embedding; nothing downstream
    # reads them, so their gradient, and the null embedding's, stays zero.
    d_e_real = d_e * tm[..., None]
    grads["null_turn"] += (d_e * (1.0 - tm[..., None])).sum(axis=(0, 1))
    offsets = np.arange(T - 1, -1, -1)
    np.add.at(grads["turn_offset_emb"], offsets, d_e_real.sum(axis=0))

    d_E = np.zeros((batch.pool_size, D))
    np.add.at(d_E, batch.window_rows.ravel(), d_e_real.reshape(B * T, D))
    _encode_pool_backward(params, grads, config, batch, cache["pool"], d_E)
    return grads


def loss(p: float, label: float) -> float:
    """Cross entropy between a predicted probability and a (possibly soft)
    satisfaction label."""
    p = float(p)
    y = float(label)
    if not (0.0 < p < 1.0):
        raise ValueError(f"prediction must lie strictly in (0, 1), got {p!r}")
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"label must lie in [0, 1], got {y!r}")
    return -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))


def loss_and_grad_batch(params, config, batch: Batch, microbatch: int = 256):
    """Mean cross-entropy over the batch and its exact gradient.

    Windows are processed in fixed index order, in chunks, and per-window
    gradients are summed before the final division, so the result does not
    depend on the chunk size up to float rounding (the chunking decides the
    order in which gradients are summed).
    """
    if microbatch < 1:
        raise ValueError(f"microbatch must be at least 1, got {microbatch!r}")
    n = len(batch)
    total = zeros_grads(params)
    loss_sum = 0.0
    p_all = np.zeros(n)
    for start in range(0, n, microbatch):
        idx = np.arange(start, min(start + microbatch, n))
        sub = batch.subset(idx)
        p, cache = forward_batch(params, config, sub, want_cache=True)
        y = sub.labels
        loss_sum += float(-np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
        g = _backward_batch(params, config, sub, cache, p - y)
        for key in total:
            total[key] += g[key]
        p_all[idx] = p
    for key in total:
        total[key] /= n
    return loss_sum / n, total, p_all


def predict_scores(params, config, batch: Batch, microbatch: int = 1024) -> np.ndarray:
    """Forward-only probabilities for every window in the batch.

    The pool holds each distinct turn content once; its rows are encoded
    ``microbatch`` at a time, and windows are then scored ``microbatch`` at a
    time over those embeddings. The result equals ``forward_batch`` on each
    window.
    """
    if microbatch < 1:
        raise ValueError(f"microbatch must be at least 1, got {microbatch!r}")
    n, M = len(batch), batch.pool_size
    out = np.zeros(n)
    if n == 0:
        return out
    E = np.empty((M, config.embed_dim))
    for start in range(0, M, microbatch):
        rows = slice(start, start + microbatch)
        E[rows], _ = _encode_pool(params, config, batch.pool_rows(rows), want_cache=False)
    for start in range(0, n, microbatch):
        w = slice(start, start + microbatch)
        out[w], _ = _score_windows(
            params, config, E, batch.window_rows[w], batch.turn_mask[w], want_cache=False
        )
    return out


# --- single-window public operations --------------------------------------


def encode_turn(params, config, vocab: Vocabulary, turn: DialogueTurn) -> np.ndarray:
    """Embedding vector of one turn (both per-turn stacks, before turn-order
    tagging and cross-turn attention)."""
    batch = encode_window([turn], vocab, config)
    E, _ = _encode_pool(params, config, batch, want_cache=False)
    return E[0]


def forward(params, config, vocab: Vocabulary, window: list[DialogueTurn]) -> float:
    """Satisfaction probability for the last turn of the window."""
    batch = encode_window(list(window), vocab, config)
    p, _ = forward_batch(params, config, batch, want_cache=False)
    return float(p[0])


def backward(params, config, vocab: Vocabulary, window: list[DialogueTurn], label: float) -> dict:
    """Exact gradient of loss(forward(window), label) for every parameter."""
    batch = encode_window(list(window), vocab, config, label=float(label))
    p, cache = forward_batch(params, config, batch, want_cache=True)
    return _backward_batch(params, config, batch, cache, p - batch.labels)
