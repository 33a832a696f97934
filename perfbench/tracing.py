"""In-memory span tracing of satgate's layers, installed from outside.

The program has no timers of its own, so the traced run replaces module-level
names in satgate with wrappers that open a span around each call and restores
them afterwards. A name that a later refactor removed is reported as absent,
with the reason, instead of failing the run.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
span that was open when it started (-1 for none) and ``op`` the id of the
training step, chain stage or gate decision it belongs to. A span's self time
is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        # Contents seen per outermost scoring call, keyed by its span index.
        self.contents: dict[int, set] = defaultdict(set)
        self.op = None
        self._stack: list[int] = []
        self._clock = time.perf_counter
        self._t0 = self._clock()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock() - self._t0, None, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def clear(self) -> None:
        """Forget what the untimed warm-up recorded."""
        self.spans.clear()
        self.counts.clear()
        self.contents.clear()

    def outermost(self, names) -> int:
        """Index of the outermost open span with one of ``names``, or -1."""
        return next((i for i in self._stack if self.spans[i][0] in names), -1)

    def end(self, index: int) -> None:
        self.spans[index][2] = self._clock() - self._t0
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": self.spans,
                    "totals": self.totals(),
                    "counts": dict(self.counts),
                    "absent": self.absent,
                },
                fh,
            )


def _timed(tracer: Tracer, fn, name, count=None):
    """``fn`` wrapped in a span; ``name`` may be a callable of the call args.
    ``count`` sees the call args first, outside the span."""

    def wrapper(*args, **kwargs):
        if count is not None:
            count(*args)
        index = tracer.begin(name(*args, **kwargs) if callable(name) else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)

    return wrapper


class _UfuncWithAt:
    """Stands in for ``numpy.add``: calls pass through, ``.at`` is traced."""

    def __init__(self, ufunc, at):
        self._ufunc = ufunc
        self.at = at

    def __call__(self, *args, **kwargs):
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)


class _NumpyWithTracedAddAt:
    """Stands in for the ``np`` global of one module, so that only that
    module's ``np.add.at`` scatters are timed."""

    def __init__(self, np_module, tracer: Tracer):
        self._np = np_module
        self.add = _UfuncWithAt(np_module.add, _timed(tracer, np_module.add.at, "net.scatter"))

    def __getattr__(self, name):
        return getattr(self._np, name)


def _content_keys(batch) -> np.ndarray:
    """One integer row per pool row holding everything the encoder reads."""
    m = batch.text_ids.shape[0]
    return np.concatenate(
        [
            batch.text_ids,
            batch.text_mask.astype(np.int64),
            batch.dom_ids[:, None],
            batch.item_ids[:, None],
            batch.slot_key_ids,
            batch.slot_key_mask.astype(np.int64),
            batch.slot_val_ids.reshape(m, -1),
            batch.slot_val_mask.reshape(m, -1).astype(np.int64),
        ],
        axis=1,
    )


def unique_rows(batch) -> int:
    return int(np.unique(_content_keys(batch), axis=0).shape[0])


def row_contents(batch) -> list[bytes]:
    keys = np.ascontiguousarray(_content_keys(batch))
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel().tolist()


# Calls whose encoded pool rows a content-deduplicating encoder could share.
SCORING_CALLS = ("net.predict", "training.grad", "net.forward")


class Instrumentation:
    """Installs the wrappers on entry and restores every replaced name on
    exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        from satgate import cli, dialog, gate, synth, training, weaklabel
        from satgate.model import data, net

        t = self.tracer
        plain = [
            # (owner, attribute, span name, metric it feeds)
            (training, "loss_and_grad_batch", "training.grad", None),
            (net, "_backward_batch", "net.backward", "net.backward_s"),
            (net, "encode_window", "data.encode_window", "data.encode_window_ms"),
            (cli, "predict_scores", "net.predict", "net.predict_s"),
            (cli, "load_checkpoint", "checkpoint.load", "checkpoint.load_s"),
            (cli, "read_sessions", "dialog.read", "dialog.read_s"),
            (dialog, "read_sessions", "dialog.read", "dialog.read_s"),
            (cli, "write_sessions", "dialog.write", "dialog.write_s"),
            (dialog, "write_sessions", "dialog.write", "dialog.write_s"),
            (cli, "_write_manifest", "cli.manifest", "cli.manifest_s"),
            (synth, "generate", "synth.generate", "synth.generate_s"),
            (weaklabel, "features_matrix", "weaklabel.features", "weaklabel.features_s"),
            (weaklabel, "train_weak_labeler", "weaklabel.fit", "weaklabel.fit_s"),
            (weaklabel, "label_corpus", "weaklabel.label", "weaklabel.label_s"),
            (gate, "simulate_ab", "gate.simulate", "gate.simulate_s"),
            (gate, "gate", "gate.gate", "gate.gate_us"),
        ]
        for owner, attr, span, metric in plain:
            self._wrap(owner, attr, (metric,) if metric else (),
                       lambda fn, span=span: _timed(t, fn, span))

        def block_name(params, grads_or_prefix, *rest):
            prefix = grads_or_prefix if isinstance(grads_or_prefix, str) else rest[0]
            return "net.text_block" if prefix.startswith("text") else "net.struct_block"

        self._wrap(training, "adam_update", ("training.adam_s",), self._adam_wrapper)
        self._wrap(net, "_block_forward", ("net.text_fwd_s", "net.struct_fwd_s"),
                   lambda fn: _timed(t, fn, lambda *a, **k: block_name(*a) + "_fwd"))
        self._wrap(net, "_block_backward", ("net.text_bwd_s", "net.struct_bwd_s"),
                   lambda fn: _timed(t, fn, lambda *a, **k: block_name(*a) + "_bwd"))
        def count_windows(params, config, batch, *rest):
            t.counts["windows"] += batch.window_rows.shape[0]

        def count_pool(params, config, batch, *rest):
            t.counts["pool_rows"] += batch.text_ids.shape[0]
            t.contents[t.outermost(SCORING_CALLS)].update(row_contents(batch))
            t.counts["text_real"] += float(batch.text_mask.sum())
            t.counts["text_positions"] += batch.text_mask.size

        self._wrap(net, "forward_batch", ("net.forward_s", "net.cross_head_ms", "net.rows_per_decision"),
                   lambda fn: _timed(t, fn, "net.forward", count_windows))
        self._wrap(net, "_encode_pool", ("net.encode_ms", "net.pool_rows", "net.text_real_share",
                                         "net.encode_dup_ratio"),
                   lambda fn: _timed(t, fn, "net.encode", count_pool))
        self._wrap(net, "np", ("net.scatter_s",), lambda np_mod: _NumpyWithTracedAddAt(np_mod, t))
        self._wrap(data.Batch, "subset", ("data.subset_s",),
                   lambda fn: _timed(t, fn, "data.subset"))
        self._wrap(data.WindowDataset, "from_sessions", ("data.dataset_s",),
                   lambda fn: _timed(t, fn, "data.dataset"))
        for attr in ("fit", "rows"):
            self._wrap(weaklabel.FeatureExtractor, attr, ("weaklabel.features_s",),
                       lambda fn: _timed(t, fn, "weaklabel.features"))
        return self

    def _adam_wrapper(self, fn):
        """Adam ends a training step, so the op id moves on after it."""
        t = self.tracer
        timed = _timed(t, fn, "training.adam")

        def wrapper(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            finally:
                if isinstance(t.op, int):
                    t.op += 1

        return wrapper

    def _wrap(self, owner, attr, metrics, make):
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            for metric in metrics:
                self.tracer.absent[metric] = (
                    f"{getattr(owner, '__name__', owner)}.{attr} no longer exists, "
                    "so the layer cannot be wrapped"
                )
            return
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        return False

