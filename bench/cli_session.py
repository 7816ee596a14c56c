"""The cli-session workload: one ``python -m shockpgf.cli`` process per operation.

The corpus is fixed: every README example, three large-output variants,
``--version`` and four invalid inputs. The seed only shuffles the order in
which one session runs through it. Each command's exit code must be the
documented one, its stdout must hash to the digest recorded in
``cli_golden.json``, and the values parsed from stdout must equal the
package's own results for the same request.

``python3 bench/cli_session.py --record`` rewrites ``cli_golden.json`` from
the current checkout; run it only when the corpus itself changes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

GOLDEN = Path(__file__).with_name("cli_golden.json")
Q_DOC = {"atoms": [{"y": "1/2", "p": "1/4"}],
         "segments": [{"lo": 0, "hi": "3/4", "density": "1"}]}
POINT = '{"atoms": [{"y": 1, "p": 1}], "segments": []}'

#: (id, argv after ``-m shockpgf.cli``, documented exit code)
CORPUS = (
    ("pgf", ["pgf", "--dist", POINT, "--z", "0.25,0.5,0.75"], 0),
    ("tail", ["tail", "--dist", "q.json", "--K", "100", "--format", "json"], 0),
    ("cm-values", ["cm-check", "--values", "1,1/2,1/4,1/8"], 0),
    ("classify", ["classify", "--dist", "q.json"], 0),
    ("counterexample", ["counterexample", "--alpha", "1/7", "--beta", "2/3", "--K", "50"], 0),
    ("survival", ["survival", "--dist", "q.json", "--lam", "2", "--t", "0,0.5,1,2"], 0),
    ("laplace", ["laplace", "--dist", "q.json", "--lam", "1", "--s", "0.5,1,2"], 0),
    ("bounds", ["bounds", "--dist", "q.json", "--z", "0.1,0.5,0.9"], 0),
    ("skeleton", ["skeleton", "--dist", "q.json", "--delta", "0.5", "--J", "10"], 0),
    ("simulate", ["simulate", "--dist", "q.json", "--mode", "failure", "--n", "100000",
                  "--seed", "1", "--tail-model", "geometric"], 0),
    ("tail-2000", ["tail", "--dist", "q.json", "--K", "2000", "--format", "json"], 0),
    ("counterexample-1000", ["counterexample", "--alpha", "1/7", "--beta", "2/3",
                             "--K", "1000"], 0),
    ("cm-dist-200-40", ["cm-check", "--dist", "q.json", "--K", "200", "--J", "40"], 0),
    ("version", ["--version"], 0),
    ("bad-json", ["pgf", "--dist", '{"atoms": ['], 2),
    ("bad-K", ["tail", "--dist", "q.json", "--K", "-1"], 2),
    ("bad-alpha", ["counterexample", "--alpha", "3/2", "--beta", "2/3"], 2),
    ("short-tails", ["survival", "--dist", "q.json", "--t", "1", "--K", "5"], 2),
)


class CliSession:
    name = "cli-session"
    period = len(CORPUS)

    def __init__(self):
        self.root = Path.cwd()
        self.workdir: Path | None = None
        #: largest resident set of any command run so far, in KiB
        self.peak_rss_kb = 0
        self._values_ok: dict[tuple[str, str], bool] = {}

    def build(self, seed: int, workdir: Path):
        """Write the distribution file and return the seed's command order."""
        self.workdir = workdir
        (workdir / "q.json").write_text(json.dumps(Q_DOC), encoding="utf-8")
        order = list(CORPUS)
        random.Random(seed).shuffle(order)
        return order

    def op(self, tr, item):
        """Run one command; returns (exit code, stdout bytes)."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with tr.span("cli.subprocess"):
            code, out, usage = run_child([sys.executable, "-m", "shockpgf.cli", *item[1]],
                                         self.workdir, env)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return code, out

    def record(self, item, raw):
        code, out = raw
        return {"code": code, "sha": hashlib.sha256(out).hexdigest(),
                "out": out.decode() if len(out) < (1 << 22) else ""}

    def reference(self, item):
        return {"golden": json.loads(GOLDEN.read_text(encoding="utf-8")).get(item[0])}

    def check(self, item, rec, ref):
        cid, _, want_code = item
        if cid == "version" and rec["code"] == 1:
            return [("cli.version_metadata", "--version exited 1")]
        bad = []
        if rec["code"] != want_code:
            bad.append(("cli.exit_code", f"{cid}: exit {rec['code']}, documented {want_code}"))
        if ref["golden"] is not None and rec["sha"] != ref["golden"]:
            bad.append(("cli.golden", f"{cid}: stdout differs from the recorded digest"))
        key = (cid, rec["sha"])
        if key not in self._values_ok and rec["code"] == want_code:
            try:
                self._values_ok[key] = VALUE_CHECKS[cid](rec["out"])
            except (ValueError, KeyError, IndexError, TypeError):
                self._values_ok[key] = False
        if not self._values_ok.get(key, True):
            bad.append(("cli.values", f"{cid}: parsed values differ from the package's"))
        return bad


def _timed_out(signum, frame):
    raise TimeoutError("command still running after 120 s")


def run_child(argv, cwd, env, timeout: int = 120):
    """Run one command to its end; returns (exit code, stdout, its own rusage).

    The child is reaped with ``os.wait4``, so the resource usage is that
    command's alone. Standard error is discarded; no check reads it.
    """
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(timeout)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out, usage


# ------------------------------------------------------------ library values
# Each check parses one command's stdout and compares it with the package's
# result for the same request, computed in this process.

def _lib():
    import shockpgf as sp

    q = sp.MixingDistribution.from_json_dict(Q_DOC)
    return sp, q


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _fractions(entries) -> list[Fraction]:
    return [Fraction(str(e["value"])) for e in entries]


def _violation(doc):
    fv = doc["first_violation"]
    return doc["completely_monotone"], None if fv is None else (fv["j"], fv["k"])


def _pgf(out):
    sp, _ = _lib()
    q = sp.point_mass(1)
    return all(float(r["phi"]) == float(sp.pgf_eval(q, Fraction(r["z"])))
               for r in _csv_rows(out))


def _tail(K):
    def check(out):
        sp, q = _lib()
        doc = json.loads(out)
        t = sp.tail_sequence(q, K)
        return _fractions(doc["tail"]["entries"]) == list(t.values) and doc["valid"] is True
    return check


def _cm_values(out):
    sp, _ = _lib()
    vals = [Fraction(v) for v in ("1", "1/2", "1/4", "1/8")]
    return _violation(json.loads(out)) == sp.is_completely_monotone(vals, 3)


def _classify(out):
    sp, q = _lib()
    doc = json.loads(out)
    c = sp.classify_support(q)
    return (doc["verdict"] == c.verdict and Fraction(doc["masses"]["m01"]) == c.m01
            and doc["expected_shocks"] == "inf")


def _counterexample(K):
    def check(out):
        sp, _ = _lib()
        doc = json.loads(out)
        t = sp.counterexample_tail_sequence(sp.counterexample_params("1/7", "2/3"), K)
        return (_fractions(doc["tail"]["entries"]) == list(t.values)
                and _violation(doc) == sp.is_completely_monotone(t, 12))
    return check


def _survival(out):
    sp, q = _lib()
    params = sp.ShockModelParams(lam=2)
    t_seq = sp.tail_sequence(q, 200)
    return all(float(r["survival"]) == sp.survival(t_seq, params, float(r["t"]))
               for r in _csv_rows(out))


def _laplace(out):
    sp, q = _lib()
    return all(float(r["value"]) == float(sp.laplace(q, 1, float(r["s"]))) for r in _csv_rows(out))


def _bounds(out):
    sp, q = _lib()
    for r in _csv_rows(out):
        b = sp.pgf_bounds(q, float(r["z"]))
        if (float(r["lower"]), float(r["phi"]), float(r["upper"])) != (
                float(b.lower), float(b.phi), float(b.upper)):
            return False
    return True


def _skeleton(out):
    sp, q = _lib()
    params = sp.ShockModelParams(lam=1, series_tol=1e-13)
    want = sp.sdfr_skeleton_check(sp.tail_sequence(q, 200), params, 0.5, 10, 40)
    return _violation(json.loads(out)) == want


def _simulate(out):
    sp, q = _lib()
    params = sp.ShockModelParams(lam=1, time_grid=(0.5, 1, 2, 4))
    sim = sp.simulate_failure_times(q, params, 100000, 1, tail_model="geometric", K=200)
    rows = _csv_rows(out)
    return [float(r["empirical"]) for r in rows] == list(sim.empirical) and [
        float(r["analytic"]) for r in rows] == list(sim.analytic)


def _cm_dist(out):
    sp, q = _lib()
    doc = json.loads(out)
    t = sp.tail_sequence(q, 200)
    return (_violation(doc) == sp.is_completely_monotone(t, 40)
            and [Fraction(str(v)) for v in doc["table"]["rows"][40]]
            == list(sp.difference_table(t, 40).entries[40]))


def _version(out):
    import shockpgf

    return out.strip().endswith(shockpgf.__version__)


def _empty(out):
    return out == ""


VALUE_CHECKS = {
    "pgf": _pgf, "tail": _tail(100), "cm-values": _cm_values, "classify": _classify,
    "counterexample": _counterexample(50), "survival": _survival, "laplace": _laplace,
    "bounds": _bounds, "skeleton": _skeleton, "simulate": _simulate,
    "tail-2000": _tail(2000), "counterexample-1000": _counterexample(1000),
    "cm-dist-200-40": _cm_dist, "version": _version,
    "bad-json": _empty, "bad-K": _empty, "bad-alpha": _empty, "short-tails": _empty,
}


# ------------------------------------------------------------- traced extras

def render_reports(tr) -> None:
    """Build the large reports in process and time their rendering.

    Mirrors what the ``tail``, ``counterexample``, ``cm-check`` and
    ``simulate`` commands print: the ``to_json_dict`` + ``json.dumps`` or
    ``to_csv`` step is the ``cli.render`` span, its output size
    ``cli.render.bytes``.
    """
    from shockpgf import measures, pgf_core, sdfr_analysis, shock_model
    from workloads import tail_counts

    def render(fn):
        text = tr.call("cli.render", fn)
        tr.add("cli.render.bytes", len(text.encode()))

    with tr.span("setup"):
        q = tr.call("measures.from_json_dict", measures.MixingDistribution.from_json_dict, Q_DOC)
    for K in (100, 2000):
        with tr.span("report"):
            t = tr.call("pgf_core.tail_sequence", pgf_core.tail_sequence, q, K, counts=tail_counts)
            render(lambda: json.dumps({"tail": t.to_json_dict()}, indent=2) + "\n")
    for K in (50, 1000):
        with tr.span("report"):
            p = tr.call("pgf_core.counterexample_params", pgf_core.counterexample_params,
                        "1/7", "2/3")
            t = tr.call("pgf_core.counterexample_tail_sequence",
                        pgf_core.counterexample_tail_sequence, p, K, counts=tail_counts)
            render(lambda: json.dumps({"tail": t.to_json_dict()}, indent=2) + "\n")
    with tr.span("report"):
        t = tr.call("pgf_core.tail_sequence", pgf_core.tail_sequence, q, 200, counts=tail_counts)
        table = tr.call("sdfr_analysis.difference_table", sdfr_analysis.difference_table, t, 40)
        render(lambda: json.dumps({"table": table.to_json_dict()}, indent=2) + "\n")
    with tr.span("report"):
        params = shock_model.ShockModelParams(lam=1, time_grid=(0.5, 1, 2, 4))
        sim = tr.call("shock_model.simulate_failure_times", shock_model.simulate_failure_times,
                      q, params, 100000, 1, tail_model="geometric",
                      counts=lambda r: {"replicates": r.n})
        render(sim.to_csv)


def import_cost(root: Path, env: dict, repeats: int = 5) -> float:
    """Median fresh ``import shockpgf.cli`` time minus a bare interpreter start."""
    env = dict(env, PYTHONPATH=str(root / "src"))

    def wall(code):
        samples = []
        for _ in range(repeats):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
            samples.append(perf_counter() - start)
        return sorted(samples)[repeats // 2]

    return wall("import shockpgf.cli") - wall("pass")


def record_golden() -> None:
    import tempfile

    from tracing import NullTracer

    session = CliSession()
    with tempfile.TemporaryDirectory(dir=session.root, prefix=".bench-cli-") as tmp:
        session.build(0, Path(tmp))
        golden = {}
        for item in CORPUS:
            code, out = session.op(NullTracer(), item)
            golden[item[0]] = None if item[0] == "version" else hashlib.sha256(out).hexdigest()
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record_golden()
    else:
        sys.exit("usage: python3 bench/cli_session.py --record")
