"""The three benchmark workloads, driven through satgate's public functions.

Each workload makes its inputs from the seed and writes them to its work
directory (``make_inputs``, untimed, run in a child process), reads them back
(``load_inputs``, untimed), sets up (timed as ``setup_s``), measures a loop of
operations for a time budget, reports the properties of its inputs, and
checks its outputs. ``size`` selects the input scale: "full" for the
benchmark, "tiny" for the smoke test and "probe" for the fixed-seed reference
runs whose outputs are stored in ``refs.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from satgate import dialog, metrics, synth, training, weaklabel
from satgate import gate as gate_mod
from satgate.cli import dispatch
from satgate.model import (
    DEPLOYED_CONFIG,
    DESK_CONFIG,
    TINY_CONFIG,
    Vocabulary,
    WindowDataset,
    forward,
    init_params,
    load_checkpoint,
    predict_scores,
    save_checkpoint,
)

from tracing import unique_rows

THRESHOLD = 0.7
# The criterion-5 training configuration.
TRAIN_BATCH = 256
TRAIN_LR = 0.0025
# The reference path must agree with the online path this closely.
REFERENCE_TOL = 1e-12
# Stored references are compared with this relative tolerance: it passes the
# ~3e-14 drift between one and two BLAS threads and fails any real change.
REFS_RTOL = 1e-9
PROBE_SEED = 1234


def weak_labeled_corpus(seed: int, sessions: int, expert_sessions: int, expert_rows: int):
    """The criterion-5 recipe: a corpus, a weak labeler fit on oracle labels of
    the first ``expert_rows`` turn pairs of an expert split, and the corpus
    weak-labeled by it."""
    corpus = synth.generate(synth.CorpusConfig(seed=seed, num_sessions=sessions))
    extractor = weaklabel.FeatureExtractor.fit(corpus)
    X, index = weaklabel.features_matrix(corpus, extractor)
    oracle = np.array([v for s in corpus for v in s.oracle_satisfaction], dtype=np.float64)
    rows = np.flatnonzero(index[:, 0] < expert_sessions)[:expert_rows]
    model = weaklabel.train_weak_labeler(X[rows], oracle[rows])
    return weaklabel.label_corpus(model, extractor, corpus)


def digest(values) -> list[float]:
    """Order-sensitive summary of a float vector, compared with a tolerance
    (a hash of the bytes would flip on last-digit BLAS drift)."""
    x = np.asarray(values, dtype=np.float64).ravel()
    w = np.cos(np.arange(x.size) * 0.7)
    return [float(x.size), float(x.sum()), float((x * x).sum()), float(w @ x)]


def params_digest(params: dict) -> list[float]:
    return digest(np.concatenate([np.asarray(params[k]).ravel() for k in sorted(params)]))


def input_properties(sessions, ds: WindowDataset, max_text_len: int) -> dict:
    """Content properties that decide how much dedup or padding removal can
    save on this input."""
    batch = ds.batch
    turns = sum(len(s.turns) for s in sessions)
    unique = unique_rows(batch)
    truncated = sum(
        len(t.query) + len(t.voice_response) > max_text_len for s in sessions for t in s.turns
    )
    return {
        "turns": turns,
        "windows": len(ds),
        "pool_rows": batch.pool_size,
        "unique_turn_contents": unique,
        "duplication_ratio": batch.pool_size / unique,
        "text_real_share": float(batch.text_mask.mean()),
        "truncated_turn_share": truncated / turns,
        "mean_window_turns": float(batch.turn_mask.sum(axis=1).mean()),
    }


class Measurement:
    """Durations of the measured operations and how much work they did. The
    durations are the latency samples; their sum is the busy time."""

    def __init__(self):
        self.op_s: list[float] = []
        self.items = 0
        self.layer_ops = 0  # denominator of the per-layer metrics
        self.failed = 0  # operations that raised

    @property
    def items_per_s(self) -> float:
        return self.items / sum(self.op_s)


class Checks:
    def __init__(self):
        self.run = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        self.run += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def close(self, name: str, got, want, rtol: float) -> bool:
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        ok = got.shape == want.shape and bool(np.allclose(got, want, rtol=rtol, atol=rtol))
        detail = "" if ok else f"got {got.tolist()!r}, want {want.tolist()!r}"
        return self(name, ok, detail)


# --- train-desk --------------------------------------------------------------


class TrainDesk:
    name = "train-desk"
    item = "training windows"
    op = "training call"
    sizes = {
        "full": dict(sessions=20_000, expert_sessions=300, expert_rows=1000, model=DESK_CONFIG, chunk=512),
        "tiny": dict(sessions=40, expert_sessions=10, expert_rows=30, model=TINY_CONFIG, chunk=64),
        "probe": dict(sessions=240, expert_sessions=40, expert_rows=200, model=DESK_CONFIG, chunk=512),
    }

    def __init__(self, size: str, seed: int, workdir: Path):
        self.size = self.sizes[size]
        self.seed = seed
        self.work = workdir
        self.config = self.size["model"]
        self.tconfig = training.TrainConfig(
            batch_size=TRAIN_BATCH, learning_rate=TRAIN_LR, epochs=1, seed=0
        )

    def make_inputs(self) -> None:
        """The weak-labeled train split, written as a session file."""
        s = self.size
        labeled = weak_labeled_corpus(self.seed, s["sessions"], s["expert_sessions"], s["expert_rows"])
        self.work.mkdir(parents=True, exist_ok=True)
        dialog.write_sessions(labeled[: int(0.8 * len(labeled))], self.work / "train.jsonl")

    def load_inputs(self) -> None:
        self.train_sessions = dialog.read_sessions(self.work / "train.jsonl")

    def setup(self) -> None:
        self.vocab = self.ds = self.params0 = None  # one set-up's objects alive at a time
        self.vocab = Vocabulary.build(self.train_sessions, self.config.vocab_size)
        self.ds = WindowDataset.from_sessions(self.train_sessions, self.vocab, self.config, "weak")
        self.params0 = init_params(self.config, self.vocab, seed=0)

    def _chunks(self) -> list[np.ndarray]:
        """Window indices of consecutive training calls: sessions in seeded
        order, cut into chunks of whole batches."""
        ds = self.ds
        starts = np.flatnonzero(np.diff(ds.session_index, prepend=-1))
        ends = np.append(starts[1:], len(ds))
        perm = np.random.default_rng([self.seed, 0xC4]).permutation(len(starts))
        order = np.concatenate([np.arange(starts[i], ends[i]) for i in perm])
        c = self.size["chunk"]
        return [np.sort(order[i : i + c]) for i in range(0, len(order) - c + 1, c)]

    def _chunk_ds(self, idx: np.ndarray) -> WindowDataset:
        _, sessions = np.unique(self.ds.session_index[idx], return_inverse=True)
        return WindowDataset(self.ds.batch.subset(idx), sessions, self.ds.turn_index[idx])

    def _train(self, params, idx):
        result = training.train(params, self.config, self._chunk_ds(idx), None, self.tconfig)
        return result.final_params, [row.train_loss for row in result.trace]

    def measure(self, seconds: float, tracer=None) -> Measurement:
        chunks = self._chunks()
        # Warm-up: the first call, untimed; its losses are checked later.
        params, self.first_losses = self._train(self.params0, chunks[0])
        if tracer:
            tracer.clear()
            tracer.op = 1  # training step ids; the Adam wrapper advances it
        m = Measurement()
        self.losses = []
        start = time.perf_counter()
        k = 1
        while k == 1 or time.perf_counter() - start < seconds:
            idx = chunks[k % len(chunks)]
            chunk = self._chunk_ds(idx)
            k += 1
            try:
                with tracer.span("training.train") if tracer else nullcontext():
                    t0 = time.perf_counter()
                    result = training.train(params, self.config, chunk, None, self.tconfig)
                    dt = time.perf_counter() - t0
            except (RuntimeError, ValueError, ArithmeticError):  # e.g. a non-finite loss
                m.failed += 1
                continue
            params = result.final_params
            self.losses += [row.train_loss for row in result.trace]
            m.op_s.append(dt)
            m.items += len(chunk)
            m.layer_ops += len(result.trace)
        return m

    def properties(self) -> dict:
        return input_properties(self.train_sessions, self.ds, self.config.max_text_len)

    def check(self, checks: Checks) -> None:
        bad = [x for x in self.losses if not math.isfinite(x)]
        checks("train-desk: finite losses", not bad, f"{len(bad)} non-finite")
        _, again = self._train(self.params0, self._chunks()[0])
        checks.close("train-desk: rerun reproduces the loss trace", again, self.first_losses,
                     REFERENCE_TOL)

    def reference(self) -> dict:
        """Outputs stored in refs.json (probe size, fixed seed)."""
        self.make_inputs()
        self.load_inputs()
        self.setup()
        params, losses = self._train(self.params0, self._chunks()[0])
        return {"loss_trace": losses, "params_digest": params_digest(params)}


# --- offline chain -----------------------------------------------------------


class Offline:
    name = "offline-10k"
    item = "corpus turns"
    op = "chain"
    sizes = {
        "full": dict(sessions=10_000, expert_sessions=300, max_samples=1000,
                     ckpt_sessions=1500, model=DESK_CONFIG),
        "tiny": dict(sessions=40, expert_sessions=10, max_samples=1000,
                     ckpt_sessions=40, model=TINY_CONFIG),
        "probe": dict(sessions=240, expert_sessions=40, max_samples=200,
                      ckpt_sessions=240, model=DESK_CONFIG),
    }

    def __init__(self, size: str, seed: int, workdir: Path):
        self.size = self.sizes[size]
        self.seed = seed
        self.work = workdir
        self.ckpt = workdir / "predictor.ckpt"

    def make_inputs(self) -> None:
        """Corpus config, variants spec, and the predictor checkpoint the chain
        scores with, trained for one epoch on a separate weak-labeled corpus."""
        s, w = self.size, self.work
        w.mkdir(parents=True, exist_ok=True)
        labeled = weak_labeled_corpus(self.seed + 1, s["ckpt_sessions"], s["expert_sessions"], 1000)
        config = s["model"]
        vocab = Vocabulary.build(labeled, config.vocab_size)
        ds = WindowDataset.from_sessions(labeled, vocab, config, "weak")
        tconfig = training.TrainConfig(batch_size=TRAIN_BATCH, learning_rate=TRAIN_LR, epochs=1)
        result = training.train(init_params(config, vocab, seed=0), config, ds, None, tconfig)
        save_checkpoint(self.ckpt, config, vocab, result.final_params)
        (w / "corpus-config.json").write_text(
            json.dumps({"seed": self.seed, "num_sessions": s["sessions"]})
        )
        (w / "variants.json").write_text(json.dumps({
            "threshold": THRESHOLD,
            "variants": [
                {"name": "no-predictor", "kind": "none"},
                {"name": "feature-baseline", "kind": "weak", "model": str(w / "baseline.json")},
                {"name": "transformer", "kind": "transformer", "ckpt": str(self.ckpt)},
            ],
        }))

    def load_inputs(self) -> None:
        """Nothing: the chain reads its inputs itself."""

    def setup(self) -> None:
        self.ckpt_contents = None  # one set-up's objects alive at a time
        self.ckpt_contents = load_checkpoint(self.ckpt)

    def _chain(self, tracer=None) -> int:
        """gen-corpus, expert split, train-weak, label, causal train-weak,
        simulate: the pipeline script without train and eval. Returns the
        corpus turn count."""
        w = self.work

        def run(*args):
            if tracer:
                tracer.op = args[0]
            code = dispatch(list(args))
            if code != 0:
                raise RuntimeError(f"satgate {args[0]} exited with {code}")

        run("gen-corpus", "--config", str(w / "corpus-config.json"), "--out", str(w / "corpus.jsonl"))
        if tracer:
            tracer.op = "split"
        sessions = dialog.read_sessions(w / "corpus.jsonl")
        dialog.write_sessions(sessions[: self.size["expert_sessions"]], w / "expert.jsonl")
        run("train-weak", "--labeled", str(w / "expert.jsonl"), "--out", str(w / "weak.json"),
            "--max-samples", str(self.size["max_samples"]), "--seed", "0")
        run("label", "--model", str(w / "weak.json"), "--in", str(w / "corpus.jsonl"),
            "--out", str(w / "labeled.jsonl"))
        run("train-weak", "--labeled", str(w / "labeled.jsonl"), "--out", str(w / "baseline.json"),
            "--features", "causal", "--labels", "weak")
        run("simulate", "--corpus", str(w / "labeled.jsonl"), "--variants", str(w / "variants.json"),
            "--out", str(w / "simulation.csv"), "--seed", "1")
        return sum(len(s.turns) for s in sessions)

    def measure(self, seconds: float, tracer=None) -> Measurement:
        m = Measurement()
        self.sim_digests = []
        start = time.perf_counter()
        # At least two chains, so that the rerun check can fail.
        while len(m.op_s) < 2 or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            try:
                turns = self._chain(tracer)
            except RuntimeError:  # a stage exited non-zero; later stages lack inputs
                m.failed += 1
                break
            m.op_s.append(time.perf_counter() - t0)
            m.items += turns
            m.layer_ops += 1
            self.sim_digests.append(_sha256(self.work / "simulation.csv"))
        return m

    def _simulation(self) -> dict:
        with open(self.work / "simulation.csv", newline="", encoding="utf-8") as fh:
            return {
                row["variant"]: {
                    "avg_cus": float(row["avg_cus"]),
                    "clarification_rate": float(row["clarification_rate"]),
                    "n_sessions": int(row["n_sessions"]),
                }
                for row in csv.DictReader(fh)
            }

    def properties(self) -> dict:
        config, vocab, _ = self.ckpt_contents
        sessions = dialog.read_sessions(self.work / "corpus.jsonl")
        ds = WindowDataset.from_sessions(sessions, vocab, config, "none")
        return input_properties(sessions, ds, config.max_text_len)

    def check(self, checks: Checks) -> None:
        w = self.work
        for out in ("corpus.jsonl", "weak.json", "labeled.jsonl", "baseline.json", "simulation.csv"):
            manifest = json.loads(Path(str(w / out) + ".manifest.json").read_text())
            recorded = manifest["outputs"].get(str(w / out))
            checks(f"offline: {out} manifest checksum", recorded == _sha256(w / out))
        checks("offline: reruns are byte-identical", len(set(self.sim_digests)) == 1)

        sim = self._simulation()
        corpus = dialog.read_sessions(w / "corpus.jsonl")
        checks("offline: three variants cover the corpus",
               sorted(sim) == ["feature-baseline", "no-predictor", "transformer"]
               and sum(v["n_sessions"] for v in sim.values()) == len(corpus), repr(sim))
        checks("offline: no-predictor never clarifies",
               sim.get("no-predictor", {}).get("clarification_rate") == 0.0)
        checks("offline: CUS and clarification rates are shares",
               all(0.0 <= v[k] <= 1.0 for v in sim.values()
                   for k in ("avg_cus", "clarification_rate")), repr(sim))

        # The label stage against the library path on the same model.
        labeled = dialog.read_sessions(w / "labeled.jsonl")
        model, extractor = weaklabel.load_weak_model(w / "weak.json")
        expect = weaklabel.label_corpus(model, extractor, corpus)
        got = np.concatenate([s.weak_labels for s in labeled])
        want = np.concatenate([s.weak_labels for s in expect])
        checks("offline: weak labels match the library path",
               got.shape == want.shape and float(np.max(np.abs(got - want))) <= REFERENCE_TOL)

    def reference(self) -> dict:
        self.make_inputs()
        self.load_inputs()
        self.setup()
        self._chain()
        labeled = dialog.read_sessions(self.work / "labeled.jsonl")
        config, vocab, params = self.ckpt_contents
        ds = WindowDataset.from_sessions(labeled, vocab, config, "oracle")
        scores = predict_scores(params, config, ds.batch)
        return {
            "weak_label_digest": digest(np.concatenate([s.weak_labels for s in labeled])),
            "score_digest": digest(scores),
            "transformer_auc": metrics.auc(scores, ds.labels.astype(np.int64)),
            "simulation": self._simulation(),
        }


# --- gate-deployed -----------------------------------------------------------


class GateDeployed:
    name = "gate-deployed"
    item = "gate decisions"
    op = "decision"
    sizes = {
        "full": dict(sessions=2000, vocab_sessions=1600, calib_sessions=20,
                     model=DEPLOYED_CONFIG, warmup=5),
        "tiny": dict(sessions=40, vocab_sessions=30, calib_sessions=10, model=TINY_CONFIG, warmup=1),
        "probe": dict(sessions=60, vocab_sessions=40, calib_sessions=4,
                      model=DEPLOYED_CONFIG, warmup=0, decisions=12),
    }

    def __init__(self, size: str, seed: int, workdir: Path):
        self.size = self.sizes[size]
        self.seed = seed
        self.work = workdir
        self.ckpt = workdir / "deployed.ckpt"

    def make_inputs(self) -> None:
        """A deployed-preset checkpoint and the held-out sessions a dialogue
        manager replays turn by turn. The checkpoint has a vocabulary from the
        first sessions and seeded initial weights. Its output bias puts the
        mean logit of the first replayed windows at the threshold, so that both
        decisions occur and, in general, no window sits on the threshold;
        forward costs the same for any weights."""
        s, config = self.size, self.size["model"]
        corpus = synth.generate(synth.CorpusConfig(seed=self.seed, num_sessions=s["sessions"]))
        vocab = Vocabulary.build(corpus[: s["vocab_sessions"]], config.vocab_size)
        heldout = corpus[s["vocab_sessions"] :]
        params = init_params(config, vocab, seed=self.seed)
        calib = WindowDataset.from_sessions(heldout[: s["calib_sessions"]], vocab, config, "none")
        p = predict_scores(params, config, calib.batch, microbatch=128)
        params["out_b"] = np.array(math.log(THRESHOLD / (1 - THRESHOLD))
                                   - float(np.mean(np.log(p / (1 - p)))))
        self.work.mkdir(parents=True, exist_ok=True)
        save_checkpoint(self.ckpt, config, vocab, params)
        dialog.write_sessions(heldout, self.work / "heldout.jsonl")

    def load_inputs(self) -> None:
        self.heldout = dialog.read_sessions(self.work / "heldout.jsonl")

    def setup(self) -> None:
        self.params = None  # one set-up's weights alive at a time
        self.config, self.vocab, self.params = load_checkpoint(self.ckpt)

    def _windows(self):
        """(session, turn) in replay order, cycling the held-out sessions."""
        while True:
            for si, session in enumerate(self.heldout):
                for ti in range(len(session.turns)):
                    yield si, ti

    def _decide(self, si: int, ti: int):
        turns = self.heldout[si].turns
        window = list(turns[max(0, ti - self.config.num_turns + 1) : ti + 1])
        p = forward(self.params, self.config, self.vocab, window)
        return gate_mod.gate(p, THRESHOLD)

    def measure(self, seconds: float, tracer=None) -> Measurement:
        stream = self._windows()
        for _ in range(self.size["warmup"]):
            self._decide(*next(stream))
        if tracer:
            tracer.clear()
        m = Measurement()
        self.decisions = []
        start = time.perf_counter()
        limit = self.size.get("decisions")
        while (len(m.op_s) < limit) if limit else (not m.op_s or time.perf_counter() - start < seconds):
            si, ti = next(stream)
            if tracer:
                tracer.op = len(m.op_s)
            t0 = time.perf_counter()
            try:
                decision = self._decide(si, ti)
            except ValueError:  # a probability outside (0, 1)
                m.failed += 1
                continue
            m.op_s.append(time.perf_counter() - t0)
            self.decisions.append((si, ti, decision))
        m.items = m.layer_ops = len(m.op_s)
        return m

    def _replayed(self):
        """The held-out sessions the loop reached, and their windows."""
        replayed = self.heldout[: max(si for si, _, _ in self.decisions) + 1]
        return replayed, WindowDataset.from_sessions(replayed, self.vocab, self.config, "none")

    def properties(self) -> dict:
        replayed, ds = self._replayed()
        props = input_properties(replayed, ds, self.config.max_text_len)
        props["decisions"] = len(self.decisions)
        props["pool_rows_per_decision"] = float(
            np.mean([min(ti + 1, self.config.num_turns) for _, ti, _ in self.decisions])
        )
        return props

    def check(self, checks: Checks) -> None:
        _, ds = self._replayed()
        scores = predict_scores(self.params, self.config, ds.batch, microbatch=128)
        row = {(int(si), int(ti)): r for r, (si, ti) in enumerate(zip(ds.session_index, ds.turn_index))}
        diffs = [abs(d.probability - scores[row[si, ti]]) for si, ti, d in self.decisions]
        checks("gate: decisions equal predict_scores", max(diffs) <= REFERENCE_TOL,
               f"max difference {max(diffs):.3g}")
        checks("gate: clarify iff p < threshold",
               all((d.decision.value == "clarify") == (d.probability < THRESHOLD)
                   for _, _, d in self.decisions))
        seen = {d.decision.value for _, _, d in self.decisions}
        checks("gate: both decisions occur", seen == {"clarify", "respond"}, repr(seen))

    def reference(self) -> dict:
        self.make_inputs()
        self.load_inputs()
        self.setup()
        self.measure(0.0)
        return {
            "probabilities": [d.probability for _, _, d in self.decisions],
            "decisions": [d.decision.value for _, _, d in self.decisions],
        }


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


WORKLOADS = {cls.name: cls for cls in (TrainDesk, Offline, GateDeployed)}


def reference_outputs(name: str, workdir: Path) -> dict:
    """Run a workload at probe size with the fixed probe seed."""
    try:
        return WORKLOADS[name]("probe", PROBE_SEED, workdir).reference()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_references(name: str, stored: dict, got: dict, checks: Checks) -> None:
    for key, want in stored.items():
        if key == "simulation":
            for variant, row in want.items():
                have = got[key].get(variant, {})
                checks.close(f"{name} reference: {variant} CUS and clarification rate",
                             [have.get("avg_cus", math.nan), have.get("clarification_rate", math.nan),
                              have.get("n_sessions", -1)],
                             [row["avg_cus"], row["clarification_rate"], row["n_sessions"]], REFS_RTOL)
        elif key == "decisions":
            checks(f"{name} reference: {key}", got[key] == want)
        else:
            checks.close(f"{name} reference: {key}", got[key], want, REFS_RTOL)
