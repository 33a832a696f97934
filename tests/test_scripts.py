"""The scripts under ``scripts/`` run end to end on small inputs."""

import csv
import os
import subprocess
import sys
from pathlib import Path

from satgate.dialog import read_sessions

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, workdir, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--workdir", str(workdir), *map(str, args)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=600,
    )


def test_run_pipeline(tmp_path):
    done = _run_script("run_pipeline.py", tmp_path,
                       "--sessions", 400, "--expert-sessions", 100, "--epochs", 1)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "simulation.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(row["variant"] for row in rows) == ["feature-baseline", "no-predictor", "transformer"]
    validation = read_sessions(tmp_path / "val.jsonl")
    assert sum(int(row["n_sessions"]) for row in rows) == len(validation)


def test_run_lb_vs_sb(tmp_path):
    done = _run_script("run_lb_vs_sb.py", tmp_path, "--sessions", 200, "--epochs", 1, "--seeds", 0)
    assert done.returncode == 0, done.stderr
    for preset in ("desk-lb", "desk-sb"):
        with open(tmp_path / f"{preset}-seed0.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "val_auc"] and len(rows) == 2
