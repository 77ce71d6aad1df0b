"""The package root imports no submodule, so a walk build stays light."""

import os
import subprocess
import sys

import blockwalk

CODE = """
import sys
from blockwalk import ctqw, subspace
ctqw.build_generator(subspace.enumerate_subspace(subspace.ring_graph(5)))
print(" ".join(m for m in ("scipy.optimize", "jsonschema", "blockwalk.analysis",
                           "blockwalk.cli") if m in sys.modules))
"""


def test_walk_build_loads_no_optimizer_schema_or_cli():
    src = os.path.dirname(os.path.dirname(blockwalk.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", CODE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
