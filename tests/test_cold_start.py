"""The package and its CLI start without numpy; only the simulators load it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from shockpgf.measures import _NODES, _WEIGHTS

SRC = Path(__file__).resolve().parents[1] / "src"
HALF_ATOM = '{"atoms": [{"y": "1/2", "p": 1}], "segments": []}'


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def test_import_leaves_numpy_unloaded():
    res = run_python("-c", "import shockpgf, shockpgf.cli, sys; "
                           "assert 'numpy' not in sys.modules")
    assert res.returncode == 0, res.stderr


def test_exact_command_runs_without_numpy():
    """`-X importtime` lists every module the command imports, on stderr."""
    res = run_python("-X", "importtime", "-m", "shockpgf.cli", "tail", "--dist", HALF_ATOM,
                     "--K", "5")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "5,1/32,0.03125"
    imported = [line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()
                if line.startswith("import time:")]
    assert "shockpgf.shock_model" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


def test_gauss_legendre_literals_are_numpys_rule():
    nodes, weights = np.polynomial.legendre.leggauss(15)
    assert _NODES == tuple(map(float, nodes))
    assert _WEIGHTS == tuple(map(float, weights))
