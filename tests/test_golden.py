"""Byte-exact replay of a recorded corpus of CLI runs.

``tests/golden/cli.json`` maps each command id to its exit code and the
sha256 of its stdout. Every subcommand runs in both formats on five laws:
an exact law, its float copy, a unit atom, the two-segment counterexample
and a law with mass beyond 2; a few larger or rarer requests follow.
Regenerate the file only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest
from cli_run import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

EXACT = {"atoms": [{"y": "1/2", "p": "1/4"}],
         "segments": [{"lo": 0, "hi": "3/4", "density": "1"}]}
LAWS = {
    "exact": EXACT,
    "float": {"atoms": [{"y": 0.5, "p": 0.25}],
              "segments": [{"lo": 0.0, "hi": 0.75, "density": 1.0}]},
    "unit": {"atoms": [{"y": 1, "p": 1}], "segments": []},
    "counterexample": {"atoms": [],
                       "segments": [{"lo": 0, "hi": 1, "density": "1/3"},
                                    {"lo": 1, "hi": "8/7", "density": "14/3"}]},
    "beyond2": {"atoms": [{"y": "5/2", "p": "1/2"}],
                "segments": [{"lo": "1/4", "hi": "3/4", "density": "1"}]},
}

PER_LAW = {
    "pgf": ["pgf", "--z", "0.1,1/3,0.9"],
    "tail": ["tail", "--K", "30"],
    "cm-check": ["cm-check", "--K", "30", "--J", "8"],
    "classify": ["classify"],
    "survival": ["survival", "--lam", "2", "--t", "0,0.5,1,2"],
    "laplace": ["laplace", "--lam", "1", "--s", "0.5,1,2"],
    "bounds": ["bounds", "--z", "0.1,0.5,0.9"],
    "skeleton": ["skeleton", "--delta", "0.5", "--J", "10"],
    "simulate": ["simulate", "--n", "20000", "--seed", "1", "--tail-model", "geometric"],
}

EXTRA = {
    "bounds-s/exact": ["bounds", "--dist", json.dumps(EXACT), "--s", "0.5,1,2", "--lam", "2"],
    "bounds-s/unit": ["bounds", "--dist", json.dumps(LAWS["unit"]), "--s", "1/2,1"],
    "definetti/exact": ["simulate", "--dist", json.dumps(EXACT), "--mode", "definetti",
                        "--n", "20000", "--seed", "3"],
    "definetti/float": ["simulate", "--dist", json.dumps(LAWS["float"]), "--mode",
                        "definetti", "--z", "0.2,0.6", "--n", "5000", "--seed", "4"],
    "simulate-harmonic/counterexample": ["simulate", "--dist", json.dumps(LAWS["counterexample"]),
                                         "--tail-model", "harmonic", "--n", "40000",
                                         "--seed", "5"],
    "simulate-none/unit": ["simulate", "--dist", json.dumps(LAWS["unit"]), "--tail-model",
                           "none", "--n", "40000", "--seed", "6"],
    "cm-values/exact": ["cm-check", "--values", "1,1/2,1/4,1/8"],
    "cm-values/decimal": ["cm-check", "--values", "1,0.6,0.35,0.25,0.2", "--J", "3"],
    "counterexample-K1": ["counterexample", "--alpha", "1/7", "--beta", "2/3", "--K", "1"],
    "counterexample-K50": ["counterexample", "--alpha", "1/7", "--beta", "2/3", "--K", "50"],
    "counterexample-wide": ["counterexample", "--alpha", "1/2", "--beta", "1/5", "--K", "40"],
    "tail-2000": ["tail", "--dist", "q.json", "--K", "2000"],
    "cm-dist-200-40": ["cm-check", "--dist", "q.json", "--K", "200", "--J", "40"],
    "bad-K": ["tail", "--dist", "q.json", "--K", "-1"],
    "bad-alpha": ["counterexample", "--alpha", "3/2", "--beta", "2/3"],
    "short-tails": ["survival", "--dist", "q.json", "--t", "1", "--K", "5"],
}


def corpus() -> dict[str, list[str]]:
    """Command id -> argv; every command runs once per output format."""
    base = {}
    for cmd, argv in PER_LAW.items():
        for law, doc in LAWS.items():
            base[f"{cmd}/{law}"] = [argv[0], "--dist", json.dumps(doc), *argv[1:]]
    base.update(EXTRA)
    return {f"{cid}/{fmt}": [*argv, "--format", fmt]
            for cid, argv in base.items() for fmt in ("csv", "json")}


def run(argv: list[str]) -> dict:
    res = run_cli(argv)
    return {"code": res.exit_code, "sha256": hashlib.sha256(res.stdout_bytes).hexdigest()}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_matches_recording():
    assert sorted(_golden()) == sorted(corpus())


@pytest.mark.parametrize("cid", sorted(corpus()))
def test_golden_output(cid, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text(json.dumps(EXACT), encoding="utf-8")
    assert run(corpus()[cid]) == _golden()[cid]


def _not_json(constant: str):
    raise ValueError(f"{constant} is not a JSON number")


@pytest.mark.parametrize("cid", sorted(c for c in corpus() if c.endswith("/json")))
def test_json_output_is_strict_json(cid, tmp_path, monkeypatch):
    """RFC 8259 has no Infinity or NaN: bounds wrote "mean_shocks": Infinity for a law
    with density at 0, where JSON reports now write "inf"."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text(json.dumps(EXACT), encoding="utf-8")
    res = run_cli(corpus()[cid])
    if res.exit_code == 0:
        json.loads(res.output, parse_constant=_not_json)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("q.json").write_text(json.dumps(EXACT), encoding="utf-8")
        doc = {cid: run(argv) for cid, argv in sorted(corpus().items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(doc)} commands in {GOLDEN}")
