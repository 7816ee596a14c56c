"""The package surface that ``bench/`` reads must keep resolving.

The benchmark scripts are fixed, so removing or renaming a name they use
would only show when the benchmark runs. These tests read ``bench/*.py``
with ``ast`` and fail here first.
"""

import ast
import importlib
from dataclasses import fields
from pathlib import Path

import pytest

from shockpgf import DifferenceTable, MixingDistribution, SimulatedSurvival, TailSequence

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_reads(path: Path) -> set[tuple[str, ...]]:
    """Dotted chains read off names bound to shockpgf modules, e.g.
    ("shockpgf", "MixingDistribution", "from_json_dict") for ``sp.MixingDistribution...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "shockpgf":
                    bound[a.asname or "shockpgf"] = a.name if a.asname else "shockpgf"
        elif isinstance(node, ast.ImportFrom) and node.module == "shockpgf":
            for a in node.names:
                bound[a.asname or a.name] = f"shockpgf.{a.name}"
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            chains.add((bound[node.id], *reversed(attrs)))
    return chains


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


@pytest.mark.parametrize("cls", [MixingDistribution, TailSequence, DifferenceTable])
def test_bench_report_serialisers(cls):
    assert callable(getattr(cls, "to_json_dict", None))


def test_bench_simulated_survival_surface():
    assert callable(SimulatedSurvival.to_csv)
    assert {"empirical", "analytic", "n"} <= {f.name for f in fields(SimulatedSurvival)}
