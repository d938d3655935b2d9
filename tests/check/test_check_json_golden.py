"""``repro check --json`` on synthesized designs, pinned byte for byte.

The golden reports in ``golden_check_json/`` were captured once from a
checkout where planar and layered designs were still separate classes
with separate checks; the single design model must reproduce them at
K=1 (L001 certificate) and K=2 (L003 certificate).  The certificate
witnesses are built by walking hash-ordered sets of the string node
labels a reloaded design carries, so each check runs in a fresh
interpreter with a fixed ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.suites import circuit
from repro.core import Compact
from repro.crossbar import design_to_json

GOLDEN = Path(__file__).parent / "golden_check_json"
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("name", ["c17", "voter9", "alu4"])
def test_check_json_matches_golden(name, layers, tmp_path):
    target = f"{name}-K{layers}.json"
    design = Compact(layers=layers).synthesize_netlist(circuit(name)).design
    (tmp_path / target).write_text(design_to_json(design))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", target, "--json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / target).read_text()
