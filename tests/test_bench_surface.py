"""The package surface that ``bench/`` reads must keep resolving, and its calls binding.

The benchmark scripts are fixed, so removing or renaming a name or a
parameter they use would only show when the benchmark runs. These tests
read ``bench/*.py`` with ``ast`` and fail here first.
"""

import ast
import importlib
import inspect
from dataclasses import fields
from functools import reduce
from pathlib import Path

import pytest

from shockpgf import DifferenceTable, MixingDistribution, SimulatedCurve, TailSequence

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bound(tree: ast.AST) -> dict[str, str]:
    """Local names bound to shockpgf modules or names, e.g. {"sp": "shockpgf"}."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "shockpgf":
                    bound[a.asname or "shockpgf"] = a.name if a.asname else "shockpgf"
        elif isinstance(node, ast.ImportFrom) and node.module == "shockpgf":
            for a in node.names:
                bound[a.asname or a.name] = f"shockpgf.{a.name}"
    return bound


def _chain(node: ast.AST, bound: dict[str, str]) -> tuple[str, ...] | None:
    """The dotted chain an expression reads off a bound name, e.g.
    ("shockpgf", "MixingDistribution", "from_json_dict") for ``sp.MixingDistribution...``."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if attrs and isinstance(node, ast.Name) and node.id in bound:
        return (bound[node.id], *reversed(attrs))
    return None


def _package_reads(path: Path) -> set[tuple[str, ...]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = _bound(tree)
    return {c for node in ast.walk(tree) if (c := _chain(node, bound))}


def _package_calls(path: Path) -> list[tuple[str, tuple[str, ...], int, tuple[str, ...]]]:
    """(where, chain, positional count, keyword names) of each call of a package chain:
    direct, as ``sp.ShockModelParams(lam=1)``, or through the tracer, as
    ``tr.call(label, fn, *args, **kw)`` and its alias ``c(label, fn, ...)``, whose own
    ``counts=`` is dropped. Calls that unpack ``*`` or ``**`` are skipped."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = _bound(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args, keywords = node.args, node.keywords
        chain = _chain(node.func, bound)
        traced = (isinstance(node.func, ast.Attribute) and node.func.attr == "call"
                  or isinstance(node.func, ast.Name) and node.func.id == "c")
        if chain is None and traced and len(args) >= 2:
            chain, args = _chain(args[1], bound), args[2:]
            keywords = [k for k in keywords if k.arg != "counts"]
        if chain is None or any(isinstance(a, ast.Starred) for a in args) or any(
                k.arg is None for k in keywords):
            continue
        calls.append((f"{path.name}:{node.lineno}:{chain[-1]}", chain, len(args),
                      tuple(k.arg for k in keywords)))
    return calls


READS = sorted({c for path in sorted(BENCH.glob("*.py")) for c in _package_reads(path)})


def test_bench_reads_the_package():
    modules = {c[0] for c in READS}
    assert {"shockpgf", "shockpgf.families", "shockpgf.measures", "shockpgf.pgf_core",
            "shockpgf.sdfr_analysis", "shockpgf.shock_model"} <= modules
    assert ("shockpgf", "MixingDistribution", "from_json_dict") in READS


@pytest.mark.parametrize("chain", READS, ids=".".join)
def test_bench_attribute_resolves(chain):
    obj = importlib.import_module(chain[0])
    for attr in chain[1:]:
        assert hasattr(obj, attr), f"{'.'.join(chain)}: bench reads it and it is gone"
        obj = getattr(obj, attr)


CALLS = sorted(c for path in sorted(BENCH.glob("*.py")) for c in _package_calls(path))


def test_bench_calls_are_found():
    chains = {chain for _, chain, _, _ in CALLS}
    assert ("shockpgf", "ShockModelParams") in chains
    assert ("shockpgf.pgf_core", "pgf_eval") in chains  # through ``c = tr.call``
    assert ("shockpgf.shock_model", "simulate_failure_times") in chains


@pytest.mark.parametrize("where, chain, n_args, keywords", CALLS, ids=[c[0] for c in CALLS])
def test_bench_call_binds(where, chain, n_args, keywords):
    fn = reduce(getattr, chain[1:], importlib.import_module(chain[0]))  # resolves, as tested above
    try:
        inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"{where}: {'.'.join(chain)} no longer takes this call: {exc}")


@pytest.mark.parametrize("cls", [MixingDistribution, TailSequence, DifferenceTable])
def test_bench_report_serialisers(cls):
    assert callable(getattr(cls, "to_json_dict", None))


def test_bench_simulated_survival_surface():
    assert callable(SimulatedCurve.to_csv)
    assert {"empirical", "analytic", "n"} <= {f.name for f in fields(SimulatedCurve)}
