"""End-to-end runs of every subcommand, in process through ``shockpgf.cli.main``."""

import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from cli_run import run_cli

import shockpgf
from shockpgf import (
    DifferenceTable,
    MixingDistribution,
    SimulatedCurve,
    TailSequence,
    counterexample_Q,
    counterexample_params,
    counterexample_tail,
    measures,
    pgf_core,
    point_mass,
    sdfr_analysis,
    shock_model,
    tail_sequence,
)

CE = counterexample_Q(counterexample_params("1/7", "2/3"))
CE_JSON = json.dumps(CE.to_json_dict())
UNIT_ATOM = json.dumps(point_mass(1).to_json_dict())
HALF_ATOM = json.dumps(point_mass("1/2").to_json_dict())


def run(*args):
    return run_cli(args)


def test_pgf_csv_unit_atom():
    res = run("pgf", "--dist", UNIT_ATOM, "--z", "0.25,0.5")
    assert res.exit_code == 0
    assert res.output == "z,phi\n0.25,0.25\n0.5,0.5\n"


def test_pgf_json_keeps_exact_values():
    res = run("pgf", "--dist", HALF_ATOM, "--z", "1/2", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["rows"] == [{"z": "1/2", "phi": "1/3", "decimal": 1 / 3}]


def test_tail_csv_counterexample():
    res = run("tail", "--dist", CE_JSON, "--K", "4")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "k,value,decimal"
    assert lines[1].startswith("0,1,")
    assert lines[2].startswith("1,5/42,")
    assert len(lines) == 6


def test_tail_json_flags_invalid_sequences():
    bad = json.dumps(point_mass("5/2").to_json_dict())
    res = run("tail", "--dist", bad, "--K", "6", "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["valid"] is False
    assert "negative" in doc["invalid_reason"]


def test_cm_check_values_geometric():
    res = run("cm-check", "--values", "1,1/2,1/4,1/8,1/16", "--J", "3")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["completely_monotone"] is True
    assert doc["first_violation"] is None
    assert doc["tol"] == 0.0  # exact input gets the strict check


def test_cm_check_dist_counterexample():
    res = run("cm-check", "--dist", CE_JSON, "--K", "12", "--J", "4")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["completely_monotone"] is False
    assert doc["first_violation"] == {"j": 2, "k": 1}


def test_classify_json_and_csv():
    res = run("classify", "--dist", json.dumps(point_mass(2).to_json_dict()))
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["verdict"] == "not_pgf_mass_at_or_beyond_2"
    res = run("classify", "--dist", HALF_ATOM, "--format", "csv")
    assert res.output.splitlines()[1] == "sdfr_support_in_unit,1,0,0,2"
    res = run("classify", "--dist", CE_JSON, "--format", "csv")
    assert res.output.splitlines()[1].endswith(",inf")


def test_counterexample_report():
    res = run("counterexample", "--alpha", "1/7", "--beta", "2/3", "--K", "12",
              "--format", "json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["admissible"] is True
    assert doc["tail_valid"] is True
    assert doc["monotonicity_condition_first_failure"] is None
    assert doc["completely_monotone"] is False
    assert doc["first_violation"] == {"j": 2, "k": 1}
    assert doc["second_differences"][1]["value"] == "-121/4116"
    assert doc["tail"]["entries"][0]["value"] == 1
    assert doc["classification"]["verdict"] == "candidate_mass_in_1_2"


def test_survival_csv():
    res = run("survival", "--dist", UNIT_ATOM, "--lam", "1", "--t", "0,1", "--K", "40")
    assert res.exit_code == 0
    assert res.output == f"t,survival\n0.0,1.0\n1.0,{math.exp(-1.0)!r}\n"


def test_laplace_csv():
    res = run("laplace", "--dist", UNIT_ATOM, "--lam", "1", "--s", "1")
    assert res.exit_code == 0
    assert res.output == "s,value\n1.0,0.5\n"


def test_bounds_requires_one_scale():
    res = run("bounds", "--dist", CE_JSON, "--z", "1/2", "--s", "1")
    assert res.exit_code == 2
    res = run("bounds", "--dist", CE_JSON)
    assert res.exit_code == 2


def test_bounds_pgf_scale():
    res = run("bounds", "--dist", CE_JSON, "--z", "1/2")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "z,lower,phi,upper"
    z, lo, phi, up = (float(tok) for tok in lines[1].split(","))
    assert z == 0.5 and lo <= phi <= up
    assert up == pytest.approx(37 / 79)


def test_bounds_laplace_scale():
    res = run("bounds", "--dist", UNIT_ATOM, "--s", "1", "--lam", "1")
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == "1.0,0.5,0.5,0.5"


def test_skeleton_json():
    res = run("skeleton", "--dist", HALF_ATOM, "--J", "6", "--n-points", "12",
              "--K", "80")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["completely_monotone"] is True
    assert doc["first_violation"] is None


def test_simulate_definetti_csv():
    res = run("simulate", "--dist", UNIT_ATOM, "--mode", "definetti",
              "--z", "0.25,0.5", "--n", "400", "--seed", "1")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "z,empirical,std_err,analytic"
    assert lines[1] == "0.25,0.25,0.0,0.25"


def test_simulate_failure_smoke_and_determinism():
    args = ("simulate", "--dist", HALF_ATOM, "--t", "0.5,1", "--n", "2000",
            "--seed", "3", "--K", "120")
    first = run(*args)
    second = run(*args)
    assert first.exit_code == 0
    assert first.output == second.output
    assert first.output.splitlines()[0] == "t,empirical,std_err,analytic"


def test_simulate_truncation_failure_is_exit_3():
    res = run("simulate", "--dist", CE_JSON, "--t", "1", "--n", "10")
    assert res.exit_code == 3
    assert "tail_model" in res.stderr


@pytest.mark.parametrize("mode", ["failure", "definetti"])
def test_simulate_refuses_an_unallocatable_replicate_count(mode):
    n = str(2**45)
    res = run("simulate", "--dist", UNIT_ATOM, "--mode", mode, "--n", n)
    assert res.exit_code == 2
    assert f"replicate count n={n} is too large" in res.stderr


def test_usage_errors_are_exit_2():
    res = run("pgf", "--dist", "{not json")
    assert res.exit_code == 2
    res = run("pgf", "--dist", "/no/such/file.json")
    assert res.exit_code == 2
    res = run("pgf")  # no distribution at all
    assert res.exit_code == 2
    heavy = json.dumps({"atoms": [{"y": "1/2", "p": 2}], "segments": []})
    res = run("classify", "--dist", heavy)
    assert res.exit_code == 2
    assert "invalid distribution" in res.stderr
    res = run("classify", "--dist", '{"atoms": [{"y": 1, "p": 1}], "segments": 5}')
    assert res.exit_code == 2
    assert "'segments' must be a list" in res.stderr
    res = run("counterexample", "--alpha", "7/7", "--beta", "2/3")
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ("survival", "--t", "nan"),
    ("survival", "--t", "inf"),
    ("skeleton", "--delta", "nan"),
    ("skeleton", "--delta", "inf"),
    ("simulate", "--t", "nan", "--tail-model", "geometric"),
    ("simulate", "--t", "1,inf", "--tail-model", "geometric"),
    # an exact rate past the float range
    ("survival", "--lam", "1e400"),
    ("laplace", "--lam", "1e400"),
    ("bounds", "--s", "1", "--lam", "1e400"),
    ("skeleton", "--lam", "1e400"),
    ("simulate", "--lam", "1e400"),
    # an exact time past the float range
    ("survival", "--t", "1" + "0" * 400 + "/1"),
    ("simulate", "--t", "1" + "0" * 400 + "/1", "--tail-model", "geometric"),
])
def test_non_finite_times_are_exit_2(args):
    res = run(args[0], "--dist", HALF_ATOM, *args[1:])
    assert res.exit_code == 2
    assert "finite" in res.stderr


BEYOND_FLOATS = json.dumps({"atoms": [{"y": "1e400", "p": 1}]})
TINY_DENSITY = json.dumps({"atoms": [{"y": "1/2", "p": f"{10**400 - 1}/{10**400}"}],
                           "segments": [{"lo": 0, "hi": 1, "density": f"1/{10**400}"}]})


@pytest.mark.parametrize("command", ["survival", "skeleton", "simulate"])
def test_tails_past_the_float_range_are_exit_2(command):
    """u_1 = 1 - 10**400: the reason names the negative entry without a float of it."""
    res = run(command, "--dist", BEYOND_FLOATS)
    assert res.exit_code == 2, res.output
    assert "entry k=1 is negative (below -1.7976931348623157e+308)" in res.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tail_past_the_float_range_has_no_decimal_column(fmt):
    res = run("tail", "--dist", BEYOND_FLOATS, "--K", "3", "--format", fmt)
    assert res.exit_code == 2, res.output
    assert "entry k=1 lies past the float range" in res.stderr


FLOAT_BEYOND = {  # a float law and the first tail entry past the float range
    "atom": ({"atoms": [{"y": 1e10, "p": 1.0}], "segments": []}, 31),
    "segment": ({"atoms": [{"y": 0.5, "p": 0.5}],
                 "segments": [{"lo": 2.0, "hi": 1e200, "density": 5e-201}]}, 1),
}


@pytest.mark.parametrize("law", sorted(FLOAT_BEYOND))
def test_float_tails_past_the_float_range_are_exit_2(law):
    """(1 - y)**k in float arithmetic raised OverflowError, exit 1 with a traceback."""
    doc, k = FLOAT_BEYOND[law]
    res = run("tail", "--dist", json.dumps(doc), "--K", "40")
    assert res.exit_code == 2, res.output
    assert f"entry k={k} lies past the float range" in res.stderr


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_cm_check_refuses_a_tolerance_that_is_not_finite_and_non_negative(tol):
    """--tol inf called the increasing 1, 2, 1/4 CM and wrote "tol": Infinity."""
    res = run("cm-check", "--values", "1,2,1/4", "--tol", tol, "--format", "json")
    assert res.exit_code == 2, res.output
    assert f"option --tol={float(tol)} must be non-negative and finite" in res.stderr


HUGE_K = str(10**20)


@pytest.mark.parametrize("args", [
    ("tail", "--dist", HALF_ATOM),
    ("cm-check", "--dist", HALF_ATOM),
    ("counterexample", "--alpha", "1/7", "--beta", "2/3"),
    ("survival", "--dist", HALF_ATOM),
    ("skeleton", "--dist", HALF_ATOM),
    ("simulate", "--dist", HALF_ATOM),
], ids=lambda a: a[0])
def test_a_truncation_order_past_a_c_index_is_exit_2(args):
    """K = 10**20 raised OverflowError from repeat(a, K), exit 1 with a traceback."""
    res = run(*args, "--K", HUGE_K)
    assert res.exit_code == 2, res.output
    assert f"truncation order K={HUGE_K} must be below {sys.maxsize}" in res.stderr


@pytest.mark.parametrize("command", ["laplace", "bounds"])
def test_a_transform_point_that_rounds_to_1_names_lam_and_s(command):
    """lam/(lam+s) rounds to 1.0 at s = 1e-320; the refusal named a z never given."""
    res = run(command, "--dist", HALF_ATOM, "--s", "1e-320")
    assert res.exit_code == 2, res.output
    assert res.output == ""
    assert "lam/(lam+s) at lam=1 and s=1e-320 rounds to 1.0, outside (0, 1)" in res.stderr
    assert "z=" not in res.stderr


@pytest.mark.parametrize("args", [("survival", "--t", "1e308"), ("skeleton", "--delta", "1e308"),
                                  ("simulate", "--mode", "failure", "--t", "1e308")],
                         ids=lambda a: a[0])
def test_a_mean_shock_count_past_the_float_range_names_lam_and_t(args):
    """lam*t overflows at lam = 10, t = 1e308; the refusal named a mean mu never given."""
    res = run(args[0], "--dist", HALF_ATOM, "--lam", "10", *args[1:])
    assert res.exit_code == 2, res.output
    assert res.output == ""
    assert "lam*t at lam=10 and t=1e+308 overflows to inf" in res.stderr
    assert "mu=" not in res.stderr


def test_cm_check_past_the_float_range_gives_its_verdict():
    res = run("cm-check", "--dist", BEYOND_FLOATS, "--K", "5", "--J", "2")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["completely_monotone"] is False
    assert doc["first_violation"] == {"j": 0, "k": 1}


@pytest.mark.parametrize("args", [
    ("pgf", "--dist", BEYOND_FLOATS, "--z", "0.5"),
    ("laplace", "--dist", BEYOND_FLOATS),
    ("bounds", "--dist", BEYOND_FLOATS, "--z", "0.5"),
    ("bounds", "--dist", '{"atoms": [{"y": "1e-400", "p": 1}]}', "--z", "0.5"),
    ("bounds", "--dist", '{"atoms": [{"y": "1e-400", "p": 1}]}', "--s", "1"),
    ("pgf", "--dist", TINY_DENSITY),
    ("laplace", "--dist", TINY_DENSITY),
    ("bounds", "--dist", TINY_DENSITY, "--z", "0.5"),
    ("simulate", "--dist", TINY_DENSITY, "--mode", "definetti", "--n", "10"),
], ids=["pgf-huge-atom", "laplace-huge-atom", "bounds-z-huge-atom", "bounds-z-tiny-atom",
        "bounds-s-tiny-atom", "pgf-tiny-density", "laplace-tiny-density",
        "bounds-z-tiny-density", "definetti-tiny-density"])
def test_float_reports_on_exact_scalars_past_the_float_range(args):
    res = run(*args)
    assert res.exit_code == 0, res.output


HUGE_SEGMENT = json.dumps({"atoms": [{"y": "1/2", "p": "1/2"}],
                           "segments": [{"lo": str(10**400), "hi": str(10**400 + 1),
                                         "density": "1/2"}]})


@pytest.mark.parametrize("args", [("pgf", "--z", "0.5"), ("laplace",), ("bounds", "--z", "0.5")])
def test_segment_past_the_float_range_is_exit_2(args):
    """float(10**400) raised OverflowError, exit 1; the law is refused and the segment named."""
    res = run(args[0], "--dist", HUGE_SEGMENT, *args[1:])
    assert res.exit_code == 2, res.output
    assert f"segment [{10**400}, {10**400 + 1})" in res.stderr
    assert "past the float range" in res.stderr


@pytest.mark.parametrize("args, reason", [
    (("pgf", "--dist", HALF_ATOM, "--z", "abc"), "cannot parse number 'abc'"),
    (("pgf", "--dist", HALF_ATOM, "--z", ","), "option --z lists no points"),
    (("cm-check", "--values", ","), "option --values lists no entries"),
    # a refusal of such a rate could not print it, so the number is refused as given
    *((("laplace", "--dist", HALF_ATOM, "--lam", lam), f"cannot parse number '{lam}'")
      for lam in ("1e4300", "1e-4300", "1e1000000")),
], ids=["z-abc", "z-comma", "values-comma", "lam-1e4300", "lam-1e-4300", "lam-1e1000000"])
def test_unreadable_grids_are_exit_2(args, reason):
    res = run(*args)
    assert res.exit_code == 2
    assert reason in res.stderr


def test_distribution_file_that_is_not_json_is_exit_2(tmp_path):
    path = tmp_path / "law.json"
    path.write_text("atoms: 1/2\n", encoding="utf-8")
    res = run("pgf", "--dist", str(path))
    assert res.exit_code == 2
    assert "distribution file is not valid JSON" in res.stderr


def test_distribution_file_that_is_not_utf8_is_exit_2(tmp_path):
    path = tmp_path / "law.json"
    path.write_bytes(b'\xff\xfe{"atoms": [{"y": 1, "p": 1}]}')
    res = run("pgf", "--dist", str(path))
    assert (res.exit_code, res.stdout_bytes) == (2, b"")
    assert "distribution file is not valid JSON: 'utf-8' codec" in res.stderr


@pytest.mark.parametrize("where", ["inline", "file"])
def test_integer_literal_past_the_digit_limit_is_exit_2(tmp_path, where):
    """json reads a 4401-digit literal through int(), which the digit limit refuses."""
    text = '{"atoms": [{"y": 1, "p": 1' + "0" * 4400 + "}]}"
    path = tmp_path / "law.json"
    path.write_text(text, encoding="utf-8")
    res = run("pgf", "--dist", text if where == "inline" else str(path))
    assert (res.exit_code, res.stdout_bytes) == (2, b"")
    assert "not valid JSON: Exceeds the limit" in res.stderr


RENDER_COMMANDS = {
    "pgf": ("pgf", "--dist", HALF_ATOM),
    "tail": ("tail", "--dist", CE_JSON, "--K", "5"),
    "cm-check-dist": ("cm-check", "--dist", CE_JSON, "--K", "5", "--J", "2"),
    "cm-check-values": ("cm-check", "--values", "1,1/2,1/4"),
    "classify": ("classify", "--dist", CE_JSON),
    "counterexample": ("counterexample", "--alpha", "1/7", "--beta", "2/3", "--K", "5"),
    "survival": ("survival", "--dist", HALF_ATOM),
    "laplace": ("laplace", "--dist", HALF_ATOM),
    "bounds-z": ("bounds", "--dist", HALF_ATOM, "--z", "1/2"),
    "bounds-s": ("bounds", "--dist", HALF_ATOM, "--s", "1"),
    "skeleton": ("skeleton", "--dist", HALF_ATOM, "--n-points", "12"),
    "simulate-failure": ("simulate", "--dist", HALF_ATOM, "--n", "50"),
    "simulate-definetti": ("simulate", "--dist", HALF_ATOM, "--mode", "definetti", "--n", "50"),
}


def _refuse(*args, **kwargs):
    raise AssertionError("the renderer of the other format ran")


@pytest.mark.parametrize("case", sorted(RENDER_COMMANDS))
def test_json_request_never_builds_csv(case, monkeypatch):
    for mod in (measures, pgf_core, sdfr_analysis, shock_model):
        monkeypatch.setattr(mod, "csv_text", _refuse)
    args = RENDER_COMMANDS[case]
    res = run(*args, "--format", "json")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["command"] == args[0]


@pytest.mark.parametrize("case", sorted(RENDER_COMMANDS))
def test_csv_request_never_builds_json(case, monkeypatch):
    for cls in (MixingDistribution, TailSequence, DifferenceTable, SimulatedCurve):
        monkeypatch.setattr(cls, "to_json_dict", _refuse)
    monkeypatch.setattr(shockpgf, "jsonable", _refuse)  # CSV cells read measures.jsonable
    res = run(*RENDER_COMMANDS[case], "--format", "csv")
    assert res.exit_code == 0, res.output
    assert res.output.count("\n") >= 2


def test_out_writes_file(tmp_path):
    target = tmp_path / "phi.csv"
    res = run("pgf", "--dist", UNIT_ATOM, "--z", "0.5", "--out", str(target))
    assert res.exit_code == 0
    assert res.output == ""
    assert target.read_text() == "z,phi\n0.5,0.5\n"


@pytest.mark.parametrize("where", ["missing/phi.csv", "."])
def test_unwritable_out_is_exit_2(tmp_path, where):
    target = str(tmp_path / where)
    res = run("pgf", "--dist", UNIT_ATOM, "--out", target)
    assert res.exit_code == 2
    assert target in res.stderr


def test_json_output_round_trips_distribution():
    res = run("tail", "--dist", CE_JSON, "--K", "2", "--format", "json")
    doc = json.loads(res.output)
    assert MixingDistribution.from_json_dict(doc["distribution"]) == CE


def test_version_flag():
    res = run("--version")
    assert res.exit_code == 0
    assert "0.1.0" in res.output


def test_script_entry_is_the_cli(capsys):
    """``[project.scripts]`` names a callable of ``shockpgf.cli`` that runs a command line."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    module, name = re.search(r'^\[project\.scripts\]\nshockpgf = "([\w.]+):(\w+)"$', pyproject,
                             re.M).groups()
    entry = getattr(importlib.import_module(module), name)
    assert module == "shockpgf.cli" and callable(entry)
    assert entry(["--version"]) == 0
    assert capsys.readouterr().out == "shockpgf, version 0.1.0\n"


COMMANDS = ["bounds", "classify", "cm-check", "counterexample", "laplace", "pgf", "simulate",
            "skeleton", "survival", "tail"]
FIVE_ROWS = "k,value,decimal\n0,1,1.0\n" + "".join(f"{k},0,0.0\n" for k in range(1, 5))

# How the command line is read, whatever parses it: (argv, exit code, check, expected).
# "sha256" is the digest of stdout, "stdout" and "stderr" name text that stream holds,
# and None checks the exit code alone. An option takes the next word as its value even
# when that word starts with '-'; a prefix of an option name is refused.
PARSE_CONTRACT = {
    "values-start-negative": (["cm-check", "--values", "-1,1/2,1/4"], 0, "sha256",
                              "10635f31a069db9f28c74ae733110d6a68314e824bc08327640005921ab2e091"),
    "grid-starts-negative": (["pgf", "--dist", UNIT_ATOM, "--z", "-0.5,0.5"], 2, "stderr",
                             "Error: evaluation point z=-0.5 outside (0, 1)"),
    "prefix-of-format": (["tail", "--dist", UNIT_ATOM, "--for", "json"], 2, "stderr", "--for"),
    "prefix-of-K": (["tail", "--dist", UNIT_ATOM, "--k", "3"], 2, "stderr", "--k"),
    "extra-argument": (["tail", "--dist", UNIT_ATOM, "extra"], 2, "stderr", "extra"),
    "unknown-command": (["tails", "--dist", UNIT_ATOM], 2, "stderr", "tails"),
    "no-command": ([], 2, None, None),
    "last-value-wins": (["tail", "--dist", UNIT_ATOM, "--K", "3", "--K", "4"], 0, "sha256",
                        hashlib.sha256(FIVE_ROWS.encode()).hexdigest()),
    "help": (["--help"], 0, "stdout", "--version"),
    "pgf-without-dist": (["pgf", "--z", "0.5"], 2, "stderr", "--dist"),
    "bounds-without-scale": (["bounds", "--dist", UNIT_ATOM], 2, "stderr", "--z"),
    "bounds-with-both-scales": (["bounds", "--dist", UNIT_ATOM, "--z", "0.5", "--s", "1"], 2,
                                "stderr", "--s"),
    "cm-check-without-source": (["cm-check", "--J", "3"], 2, "stderr", "--values"),
    "cm-check-with-both-sources": (["cm-check", "--values", "1,1/2", "--dist", UNIT_ATOM], 2,
                                   "stderr", "--dist"),
    **{f"help-{cmd}": ([cmd, "--help"], 0, "stdout", "--format") for cmd in COMMANDS},
}


@pytest.mark.parametrize("case", sorted(PARSE_CONTRACT))
def test_parse_contract(case):
    argv, code, check, want = PARSE_CONTRACT[case]
    res = run(*argv)
    assert res.exit_code == code, res.stderr
    if code:
        assert res.stdout_bytes == b""
    if check == "sha256":
        assert hashlib.sha256(res.stdout_bytes).hexdigest() == want
    elif check == "stdout":
        assert want in res.stdout_bytes.decode()
    elif check == "stderr":
        assert want in res.stderr


@pytest.mark.parametrize("args", [
    ("pgf", "--tol", "1e-12"),
    ("laplace", "--tol", "1e-12"),
    ("bounds", "--z", "0.5", "--tol", "1e-12"),
    ("survival", "--series-tol", "1e-13"),
    ("skeleton", "--series-tol", "1e-12"),
    ("simulate", "--n", "10", "--series-tol", "1e-13"),
])
def test_numeric_budgets_are_not_options(args):
    """Each budget is fixed where it is used; the options that set them are gone."""
    res = run(args[0], "--dist", HALF_ATOM, *args[1:])
    assert res.exit_code == 2
    assert args[-2] in res.stderr


@pytest.mark.parametrize("args", [
    ("cm-check", "--tol", "0"),
    ("skeleton", "--n-points", "12"),
    ("survival", "--K", "300"),
])
def test_options_that_choose_the_question_stay(args):
    res = run(args[0], "--dist", HALF_ATOM, *args[1:])
    assert res.exit_code == 0, res.stderr


# Exact outputs past CPython's 4300-digit limit on int-to-text conversion (3.10.7+).
# These run as fresh processes, so the limit is the interpreter's default.
SRC = Path(__file__).resolve().parents[1] / "src"
B6_LAW = MixingDistribution.from_json_dict(
    {"atoms": [{"y": "1/3", "p": "1/2"}, {"y": "1/2", "p": "1/2"}], "segments": []})


def run_process(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "shockpgf.cli", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


@contextmanager
def unlimited_digits():
    """Parse the expected huge integers here without touching the limit elsewhere."""
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def test_tails_past_the_digit_limit_print():
    """At K = 5600 the B = 6 law's denominators pass 4300 digits; every entry reads back,
    from CSV and from JSON."""
    law = json.dumps(B6_LAW.to_json_dict())
    csv_res, json_res = (run_process("tail", "--dist", law, "--K", "5600", "--format", fmt)
                         for fmt in ("csv", "json"))
    for res in (csv_res, json_res):
        assert res.returncode == 0, res.stderr[-2000:]
    want = tail_sequence(B6_LAW, 5600).values
    assert want[-1].denominator > 10**4300
    cells = [line.split(",")[1] for line in csv_res.stdout.splitlines()[1:]]
    assert [str(e["value"]) for e in json.loads(json_res.stdout)["tail"]["entries"]] == cells
    with unlimited_digits():
        assert tuple(map(Fraction, cells)) == want


def test_counterexample_past_the_digit_limit_prints():
    res = run_process("counterexample", "--alpha", "1/7", "--beta", "2/3", "--K", "6000",
                      "--format", "csv")
    assert res.returncode == 0, res.stderr[-2000:]
    k, value, _ = res.stdout.rsplit("\n", 2)[-2].split(",")
    with unlimited_digits():
        assert (int(k), Fraction(value)) == (6000, counterexample_tail(counterexample_params(
            "1/7", "2/3"), 6000))


def test_inputs_past_the_digit_limit_are_still_refused():
    res = run_process("counterexample", "--alpha", "1/" + "7" * 5000, "--beta", "2/3",
                      "--K", "6")
    assert res.returncode == 2
    assert "cannot parse number" in res.stderr


@pytest.mark.parametrize("args", [
    ("laplace", "--dist", HALF_ATOM, "--lam", "1e100000000"),
    ("pgf", "--dist", json.dumps({"atoms": [{"y": "1e100000000", "p": 1}]})),
], ids=["option", "json-scalar"])
def test_huge_exponents_are_refused_at_once(args):
    """Fraction would build 10**100000000 in full, which takes minutes."""
    res = run_process(*args, timeout=20)
    assert res.returncode == 2
    assert "cannot parse number '1e100000000'" in res.stderr
