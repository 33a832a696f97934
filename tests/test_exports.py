import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import satgate

MODULES = sorted(m.name for m in pkgutil.walk_packages(satgate.__path__, "satgate."))


def test_the_walk_finds_every_module():
    assert {"satgate.cli", "satgate.model", "satgate.model.net", "satgate.weaklabel"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A deleted function or class leaves no stale entry in ``__all__``."""
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_only_corpus_generation_loads_scipy():
    """Importing every satgate module loads no scipy module; generating a
    corpus loads ``scipy.special`` then."""
    code = textwrap.dedent(f"""
        import importlib, json, sys
        for name in {MODULES!r}:
            importlib.import_module(name)
        imported = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        from satgate import synth
        sessions = synth.generate(synth.CorpusConfig(num_sessions=3))
        print(json.dumps([imported, len(sessions), "scipy.special" in sys.modules]))
    """)
    env = dict(os.environ)
    src = str(Path(satgate.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert {"satgate.cli", "satgate.training", "satgate.metrics", "satgate.model", "satgate.gate",
            "satgate.weaklabel", "satgate.dialog", "satgate.synth"} <= set(MODULES)
    assert json.loads(done.stdout) == [[], 3, True]
