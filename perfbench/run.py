#!/usr/bin/env python3
"""satgate benchmark: one workload per run, checked outputs, named metrics.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 15 --trace 0

Run from the repository root. Prints a report, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a separate traced pass with
``--trace 1``. ``--write-refs`` regenerates the stored reference outputs.
The measured work runs in this one process, with BLAS pinned to one thread;
only the untimed input generation runs in a forked child.
"""

import os

# Pinned before numpy loads: one BLAS thread keeps the run single-threaded
# and its floating-point results reproducible.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up runs at least this many times and for at least this long; setup_s
# is the median.
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0

# name: unit; README.md defines each metric.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

# name: (unit, span name or None, "total" | "self" | count kind)
PER_LAYER = {
    "training.step_ms": ("ms", "training.train", "total"),
    "training.adam_s": ("s", "training.adam", "total"),
    "data.subset_s": ("s", "data.subset", "total"),
    "net.forward_s": ("s", "net.forward", "total"),
    "net.backward_s": ("s", "net.backward", "total"),
    "net.text_fwd_s": ("s", "net.text_block_fwd", "total"),
    "net.text_bwd_s": ("s", "net.text_block_bwd", "total"),
    "net.struct_fwd_s": ("s", "net.struct_block_fwd", "total"),
    "net.struct_bwd_s": ("s", "net.struct_block_bwd", "total"),
    "net.scatter_s": ("s", "net.scatter", "total"),
    "net.encode_ms": ("ms", "net.encode", "total"),
    "net.cross_head_ms": ("ms", "net.forward", "self"),
    "net.predict_s": ("s", "net.predict", "total"),
    "data.dataset_s": ("s", "data.dataset", "total"),
    "data.encode_window_ms": ("ms", "data.encode_window", "total"),
    "checkpoint.load_s": ("s", "checkpoint.load", "total"),
    "synth.generate_s": ("s", "synth.generate", "total"),
    "dialog.read_s": ("s", "dialog.read", "total"),
    "dialog.write_s": ("s", "dialog.write", "total"),
    "weaklabel.features_s": ("s", "weaklabel.features", "total"),
    "weaklabel.fit_s": ("s", "weaklabel.fit", "total"),
    "weaklabel.label_s": ("s", "weaklabel.label", "self"),
    "gate.simulate_s": ("s", "gate.simulate", "total"),
    "gate.gate_us": ("us", "gate.gate", "total"),
    "cli.manifest_s": ("s", "cli.manifest", "total"),
    "net.pool_rows": ("count", None, "pool_rows"),
    "net.rows_per_decision": ("count", None, "rows_per_window"),
    "net.encode_dup_ratio": ("ratio", None, "dup_ratio"),
    "net.text_real_share": ("share", None, "real_share"),
}
_UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten samples beyond it, capped at
    99. Below 20 samples that percentile would not reach the median, and the
    maximum is used instead."""
    return 100.0 if n < 20 else min(99.0, 100.0 * (n - 10) / n)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def end_to_end(m, setup_s: float) -> dict:
    ms = [t * 1e3 for t in m.op_s]
    return {
        "setup_s": setup_s,
        "items_per_s": m.items_per_s,
        "op_ms_p50": percentile(ms, 50),
        "op_ms_p99": percentile(ms, tail_percentile(len(ms))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def in_child(fn) -> None:
    """Run ``fn`` in a forked child and wait for it. Its memory never counts
    toward this process's peak RSS."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fn()
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"input generation exited with status {status}")


def per_layer(tracer, ops: int) -> dict:
    totals = tracer.totals()
    c = tracer.counts
    unique = sum(len(seen) for seen in tracer.contents.values())
    counts = {
        "pool_rows": c["pool_rows"] / ops,
        "rows_per_window": c["pool_rows"] / c["windows"] if c["windows"] else 0.0,
        "dup_ratio": c["pool_rows"] / unique if unique else 0.0,
        "real_share": c["text_real"] / c["text_positions"] if c["text_positions"] else 0.0,
    }
    out = {}
    for name, (unit, span, kind) in PER_LAYER.items():
        if name in tracer.absent:
            continue
        if span is None:
            out[name] = counts[kind]
        else:
            row = totals.get(span, {"total_s": 0.0, "self_s": 0.0})
            out[name] = row["self_s" if kind == "self" else "total_s"] / ops * _UNIT_SCALE[unit]
    return out


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted((SRC / "satgate").rglob("*.py"))
        ),
    }


def git_commit(root: Path):
    """HEAD's commit read from .git without starting a process; None outside
    a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few dozen sessions and the tiny model, for the smoke test")
    p.add_argument("--write-refs", action="store_true",
                   help="recompute refs.json for every workload and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "satgate" / "__init__.py").is_file():
        print(f"benchmark: no satgate sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads as wl
    from tracing import Instrumentation, Tracer

    import_s = time.perf_counter() - t_start
    refs_path = HERE / "refs.json"
    OUT.mkdir(exist_ok=True)

    if args.write_refs:
        refs = {name: wl.reference_outputs(name, OUT / f"probe-{name}") for name in wl.WORKLOADS}
        refs_path.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
        print(f"wrote {refs_path}")
        return 0
    if args.workload not in wl.WORKLOADS:  # also catches a missing --workload
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / f"work-{tag}"
    checks = wl.Checks()
    try:
        workload = wl.WORKLOADS[args.workload](args.size, args.seed, workdir)
        in_child(workload.make_inputs)
        workload.load_inputs()
        setups = []
        while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_S:
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(setups)

        m = workload.measure(args.seconds)
        if not m.op_s:
            print(f"benchmark: every {workload.op} raised", file=sys.stderr)
            return 1
        e2e = end_to_end(m, setup_s)
        props = workload.properties()
        workload.check(checks)

        stored = json.loads(refs_path.read_text())[args.workload]
        got = wl.reference_outputs(args.workload, workdir / "probe")
        wl.check_references(args.workload, stored, got, checks)

        if args.trace:
            tracer = Tracer()
            with Instrumentation(tracer):
                mt = workload.measure(args.seconds, tracer)
            if not mt.op_s:
                print(f"benchmark: every traced {workload.op} raised", file=sys.stderr)
                return 1
            layers = per_layer(tracer, mt.layer_ops)
            overhead = m.items_per_s / mt.items_per_s - 1.0
            tracer.write(OUT / f"trace-{tag}.json", {
                "workload": args.workload, "seed": args.seed, "layer_ops": mt.layer_ops,
                "untraced_items_per_s": m.items_per_s, "traced_items_per_s": mt.items_per_s,
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [m, mt] if args.trace else [m]
    attempted = sum(len(p.op_s) + p.failed for p in passes) + checks.run
    failed = sum(p.failed for p in passes) + len(checks.failures)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "operation": workload.op, "item": workload.item,
        "operations": len(m.op_s), "setup_repeats": len(setups), "import_s": import_s,
        "tail_percentile": tail_percentile(len(m.op_s)),
        "env": environment(), "inputs": props,
        "checks_run": checks.run, "check_failures": checks.failures,
        "failed_share": failed / attempted,
        "end_to_end": e2e,
    }
    print(f"workload {args.workload}: seed {args.seed}, {len(m.op_s)} x {workload.op}, "
          f"items are {workload.item}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print("inputs " + json.dumps(props, sort_keys=True))
    print(f"checks: {checks.run} run, {len(checks.failures)} failed")
    for failure in checks.failures:
        print(f"  FAILED {failure}")
    print(f"failed_share = {failed / attempted:.6g} share "
          f"({failed} failed of {attempted} attempted)")
    print(f"tail percentile p{tail_percentile(len(m.op_s)):.4g} of {len(m.op_s)} operations")
    print(f"import {import_s:.4g} s (not in setup_s); setup_s is the median of {len(setups)} set-ups")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    if args.trace:
        report["per_layer"] = layers
        report["tracing_overhead_share"] = overhead
        report["absent"] = tracer.absent
        print(f"tracing overhead: {overhead:+.2%} of untraced {workload.item}/s")
        for name, value in layers.items():
            print(f"{name} = {value:.6g} {PER_LAYER[name][0]}")
        for name, reason in tracer.absent.items():
            print(f"{name} absent: {reason}")
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=2) + "\n")

    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
