"""The package and its CLI start without numpy; only the simulators load it, and each
subcommand loads only the library modules it calls.

``import shockpgf`` loads no module: each public name is read from the module that
defines it, the first time it is asked for.
"""

import importlib
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shockpgf
from shockpgf.pgf_core import _NODES, _WEIGHTS

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


# Reading one name loads its module and what that module imports, nothing more.
BARE_IMPORT = """
import sys
import shockpgf
loaded = lambda: sorted(m for m in sys.modules if m.startswith(("shockpgf.", "numpy")))
assert loaded() == [], loaded()
shockpgf.tail_sequence
assert loaded() == ["shockpgf.errors", "shockpgf.measures", "shockpgf.pgf_core"], loaded()
"""


def test_bare_import_loads_no_module():
    res = run_python("-c", BARE_IMPORT)
    assert res.returncode == 0, res.stderr


def test_submodules_resolve_after_a_bare_import():
    res = run_python("-c", "import shockpgf\n"
                           "for name in ('errors', 'measures', 'pgf_core', 'sdfr_analysis', "
                           "'shock_model'):\n"
                           "    assert getattr(shockpgf, name).__name__ == 'shockpgf.' + name\n"
                           "assert shockpgf.pgf_core.tail_sequence is shockpgf.tail_sequence")
    assert res.returncode == 0, res.stderr


def test_a_module_read_off_the_package_loads_without_numpy():
    """``shockpgf.shock_model`` in a fresh interpreter is read by the package's
    ``__getattr__``, which imports the module; only the simulators load numpy."""
    res = run_python("-c", "import shockpgf, sys\n"
                           "assert shockpgf.shock_model.survival is shockpgf.survival\n"
                           "assert 'numpy' not in sys.modules, 'numpy loaded'")
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("name", shockpgf.__all__)
def test_every_export_is_its_modules_object(name):
    home = importlib.import_module(f"shockpgf.{shockpgf._HOME[name]}")
    obj = getattr(shockpgf, name)
    assert obj is getattr(home, name)
    if isinstance(obj, type) or inspect.isfunction(obj):  # defined there, not imported
        assert obj.__module__ == home.__name__
    assert name in dir(shockpgf)


def test_exports_are_listed_once():
    listed = [name for names in shockpgf._EXPORTS.values() for name in names]
    assert sorted(listed) == sorted(set(listed)) == sorted(shockpgf.__all__)


def test_unknown_names_raise_attribute_error():
    for name in ("tail_violation", "SimulatedSurvival", "SimulatedPgf", "sample_locations",
                 "no_such_name"):
        assert not hasattr(shockpgf, name)
        with pytest.raises(AttributeError, match=name):
            getattr(shockpgf, name)
    with pytest.raises(ImportError):
        exec("from shockpgf import tail_violation", {})


def test_exact_command_runs_without_numpy():
    """`-X importtime` lists every module the command imports, on stderr."""
    res = run_python("-X", "importtime", "-m", "shockpgf.cli", "tail", "--dist", HALF_ATOM,
                     "--K", "5")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "5,1/32,0.03125"
    imported = [line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()
                if line.startswith("import time:")]
    assert "shockpgf.shock_model" not in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]


# Runs the CLI in a fresh interpreter, then lists on stderr's last line the library modules
# it loaded (``shockpgf.*`` but the CLI itself), and numpy, click, dataclasses, inspect,
# typing and threading when they were loaded.
LOADED_BY = """
import json, sys
from shockpgf.cli import main
try:
    code = main(sys.argv[1:])
finally:
    names = {m.removeprefix("shockpgf.") for m in sys.modules if m.startswith("shockpgf.")}
    names = (names - {"cli"}) | ({"numpy", "click", "dataclasses", "inspect", "typing",
                                  "threading"} & set(sys.modules))
    print(json.dumps(sorted(names)), file=sys.stderr)
sys.exit(code)
"""
CORE = ["errors", "measures", "pgf_core"]
ANALYSIS = [*CORE, "sdfr_analysis"]
SHOCKS = [*ANALYSIS, "shock_model"]
LOADS = {
    "version": (["--version"], 0, ["errors"]),
    "bad-json": (["pgf", "--dist", "{nope"], 2, ["errors"]),
    "pgf": (["pgf", "--dist", HALF_ATOM], 0, CORE),
    "tail": (["tail", "--dist", HALF_ATOM, "--K", "5"], 0, CORE),
    "cm-check": (["cm-check", "--dist", HALF_ATOM, "--K", "5", "--J", "2"], 0, ANALYSIS),
    "classify": (["classify", "--dist", HALF_ATOM], 0, ANALYSIS),
    "counterexample": (["counterexample", "--alpha", "1/7", "--beta", "2/3", "--K", "5"], 0,
                       ANALYSIS),
    "bounds": (["bounds", "--dist", HALF_ATOM, "--z", "1/2"], 0, ANALYSIS),
    "laplace": (["laplace", "--dist", HALF_ATOM], 0, SHOCKS),
    "survival": (["survival", "--dist", HALF_ATOM], 0, SHOCKS),
    "skeleton": (["skeleton", "--dist", HALF_ATOM, "--n-points", "12"], 0, SHOCKS),
    "simulate": (["simulate", "--dist", HALF_ATOM, "--n", "10"], 0, [*SHOCKS, "numpy"]),
}


@pytest.mark.parametrize("case", sorted(LOADS))
def test_each_command_loads_only_what_it_calls(case):
    """The CLI reads the library through the package, so only simulate loads numpy, and
    --version or an unreadable --dist loads no library module but ``errors``. No command
    loads click or dataclasses, and none but simulate, whose numpy imports it, loads
    inspect. ``site`` may load typing and threading (a ``.pth`` file may import them), so
    this run does not count them."""
    args, code, modules = LOADS[case]
    res = run_python("-c", LOADED_BY, *args)
    assert res.returncode == code, res.stderr
    loaded = set(json.loads(res.stderr.splitlines()[-1])) - {"typing", "threading"}
    assert not {"click", "dataclasses"} & loaded
    assert "inspect" not in loaded or "numpy" in loaded
    assert sorted(loaded - {"inspect"}) == sorted(modules)


@pytest.mark.parametrize("case", sorted(set(LOADS) - {"simulate"}))
def test_without_site_no_command_loads_typing(case):
    """Under ``python -S`` no ``.pth`` file runs first, so a command that loaded typing,
    threading, dataclasses or inspect would list it here. simulate needs numpy from
    site-packages."""
    args, code, modules = LOADS[case]
    res = run_python("-S", "-c", LOADED_BY, *args)
    assert res.returncode == code, res.stderr
    assert json.loads(res.stderr.splitlines()[-1]) == sorted(modules)


# Blocks numpy and click, then checks the exact core: every tail entry is a Fraction in the
# lowest terms of n_k / (M*(k+1)*B**(k+1)), and the CM verdicts of a stress law and a unit
# law. An exact ``tail`` command then runs through the CLI and prints its table. Any
# interpreter the package supports can run it with PYTHONPATH pointing at src.
STDLIB_ONLY = """
import sys

class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("numpy", "click"):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, Blocked())
from fractions import Fraction
from shockpgf import counterexample_Q, counterexample_params, is_completely_monotone
from shockpgf import point_mass, tail_sequence

ce = tail_sequence(counterexample_Q(counterexample_params("1/7", "2/3")), 60)
for t in (ce, tail_sequence(point_mass("1/3"), 60)):
    n, M, B = t._scaled
    for k, v in enumerate(t.values):
        ref = Fraction(n[k], M * (k + 1) * B ** (k + 1))
        assert type(v) is Fraction and (v.numerator, v.denominator) == (
            ref.numerator, ref.denominator), k
assert is_completely_monotone(ce, 12) == (False, (2, 1))
assert is_completely_monotone(tail_sequence(point_mass("1/3"), 60), 12) == (True, None)

from shockpgf.cli import main
assert main(["tail", "--dist", '{"atoms": [{"y": "1/2", "p": 1}]}', "--K", "3"]) == 0
assert "numpy" not in sys.modules and "click" not in sys.modules
print("ok", sys.version_info[:2])
"""


def test_exact_core_runs_on_the_standard_library_alone():
    res = run_python("-c", STDLIB_ONLY)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[:-1] == ["k,value,decimal", "0,1,1.0", "1,1/2,0.5",
                                            "2,1/4,0.25", "3,1/8,0.125"]
    assert res.stdout.splitlines()[-1].startswith("ok")


# Blocks numpy, then loads the pickle given in hex and prints its repr.
UNPICKLE = """
import pickle, sys

class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, Blocked())
print(repr(pickle.loads(bytes.fromhex(sys.argv[1]))))
"""


def test_a_failure_time_curve_unpickles_without_numpy():
    """Its empirical column held numpy.float64, so its pickle needed numpy to load."""
    curve = shockpgf.simulate_failure_times(
        shockpgf.point_mass("1/2"), shockpgf.ShockModelParams(1, time_grid=(0.5, 1, 2)), 2000, 3)
    assert {type(v) for v in (*curve.empirical, *curve.std_err, *curve.analytic)} == {float}
    res = run_python("-c", UNPICKLE, pickle.dumps(curve).hex())
    assert res.returncode == 0, res.stderr
    assert res.stdout == repr(curve) + "\n"


def test_gauss_legendre_literals_are_numpys_rule():
    nodes, weights = np.polynomial.legendre.leggauss(15)
    assert _NODES == tuple(map(float, nodes))
    assert _WEIGHTS == tuple(map(float, weights))


# Runs simulate through the CLI, or the simulator through the library, in a fresh
# interpreter, and prints OPENBLAS_NUM_THREADS as it stands afterwards.
BLAS_THREADS_AFTER = """
import os, sys
import shockpgf
if sys.argv[1] == "cli":
    from shockpgf.cli import main
    assert main(["simulate", "--dist", sys.argv[2], "--n", "10"]) == 0
else:
    shockpgf.simulate_failure_times(shockpgf.point_mass("1/2"),
                                    shockpgf.ShockModelParams(1, time_grid=(1.0,)), 10, 1)
assert "numpy" in sys.modules
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("how, preset, after", [
    ("cli", "3", "3"),  # the caller's own count wins
    ("cli", None, "1"),  # no simulator calls BLAS, so its pool is one thread
    ("library", None, "None"),  # a program that imports the library keeps its setting
])
def test_simulate_holds_openblas_to_one_thread_unless_told(how, preset, after):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    res = subprocess.run([sys.executable, "-c", BLAS_THREADS_AFTER, how, HALF_ATOM], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == after
