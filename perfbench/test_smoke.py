"""Smoke test of the benchmark itself: every workload once at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Asserts that each end-to-end metric listed in BENCHMARK.json prints with its
unit, that the output checks pass, and that a traced run reports every
per-layer metric or marks it absent.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload):
    lines, result = _run(workload, trace=0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_share = 0 share") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    lines, result = _run(workload, trace=1)
    assert result["correct"]
    absent = {line.split()[0] for line in lines if " absent: " in line}
    for metric in BENCHMARK["per_layer"]:
        name = metric["name"]
        assert name in absent or result["metrics"][name]["unit"] == metric["unit"]
    assert any(line.startswith("tracing overhead: ") for line in lines)


def test_removed_internal_is_reported_absent(monkeypatch):
    from satgate.model import net
    from tracing import Instrumentation, Tracer

    forward_before = net.forward_batch
    monkeypatch.delattr(net, "_block_backward")
    tracer = Tracer()
    with Instrumentation(tracer):
        assert net.forward_batch is not forward_before
    assert net.forward_batch is forward_before
    assert set(tracer.absent) == {"net.text_bwd_s", "net.struct_bwd_s"}
    assert "_block_backward" in tracer.absent["net.text_bwd_s"]
    layers = run.per_layer(tracer, ops=1)
    assert "net.text_bwd_s" not in layers and "net.text_fwd_s" in layers
