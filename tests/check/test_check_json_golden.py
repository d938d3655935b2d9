"""``repro check --json`` on synthesized designs, pinned byte for byte.

The golden reports in ``golden_check_json/`` pin the K=1 (L001
certificate) and K=2 (L003 certificate) output of the single design
model.  A reloaded design carries string node labels, whose hashes vary
between interpreters; the certificate witnesses walk the graph in a
canonical order, so the report must not depend on ``PYTHONHASHSEED``.
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


def check_json(target: str, cwd: Path, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", target, "--json"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("name", ["c17", "voter9", "alu4"])
def test_check_json_matches_golden(name, layers, tmp_path):
    target = f"{name}-K{layers}.json"
    design = Compact(layers=layers).synthesize_netlist(circuit(name)).design
    (tmp_path / target).write_text(design_to_json(design))
    assert check_json(target, tmp_path, "0") == (GOLDEN / target).read_text()


@pytest.mark.parametrize("layers", [1, 2])
def test_check_json_is_independent_of_the_hash_seed(layers, tmp_path):
    target = f"c17-K{layers}.json"
    design = Compact(layers=layers).synthesize_netlist(circuit("c17")).design
    (tmp_path / target).write_text(design_to_json(design))
    assert check_json(target, tmp_path, "2") == check_json(target, tmp_path, "3")
