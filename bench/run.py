"""Benchmark of the shockpgf package, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-verdict --seed 1 --seconds 22 --trace 0

``--workload all`` runs the four workloads one after another. Each run
prints a readable report and, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. ``bench/SCHEMA.md`` describes every field.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import yardstick

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
LIBRARY = ("exact-verdict", "float-analytics", "monte-carlo")
WORKLOADS = LIBRARY + ("cli-session",)
SETUP_REPEATS = 11

#: end-to-end metric -> (unit, name shown per workload)
END_TO_END = {
    "ops_per_s": ("1/s", {"exact-verdict": "verdicts_per_s", "float-analytics": "reports_per_s",
                          "monte-carlo": "replicates_per_s", "cli-session": "commands_per_s"}),
    "op_ms_p50": ("ms", {"exact-verdict": "verdict_ms_p50", "float-analytics": "report_ms_p50",
                         "monte-carlo": "sim_ms_p50", "cli-session": "cli_ms_p50"}),
    "op_ms_p90": ("ms", {"exact-verdict": "verdict_ms_p90", "float-analytics": "report_ms_p90",
                         "monte-carlo": "sim_ms_p90", "cli-session": "cli_ms_p90"}),
    "setup_s": ("s", {}),
    "peak_rss_mb": ("MB", {}),
}

PER_LAYER = {
    "pgf_core.tail_sequence.calls": "count",
    "pgf_core.tail_sequence.self_s": "s",
    "pgf_core.tail_sequence.entries": "count",
    "pgf_core.tail_sequence.denominator_bits_max": "bits",
    "pgf_core.counterexample_tail_sequence.self_s": "s",
    "sdfr_analysis.is_completely_monotone.calls": "count",
    "sdfr_analysis.is_completely_monotone.self_s": "s",
    "sdfr_analysis.is_completely_monotone.cells": "count",
    "sdfr_analysis.is_completely_monotone.cells_needed_ratio": "ratio",
    "sdfr_analysis.classify_support.self_s": "s",
    "sdfr_analysis.tail_validity.self_s": "s",
    "pgf_core.pgf_eval.calls": "count",
    "pgf_core.pgf_eval.self_s": "s",
    "pgf_core.resistance_gf.self_s": "s",
    "sdfr_analysis.pgf_bounds.calls": "count",
    "sdfr_analysis.pgf_bounds.self_s": "s",
    "sdfr_analysis.laplace_order_bounds.self_s": "s",
    "sdfr_analysis.expected_shocks.self_s": "s",
    "shock_model.laplace.self_s": "s",
    "shock_model.exp_mixture_survival.self_s": "s",
    "shock_model.survival.exact.calls": "count",
    "shock_model.survival.exact.self_s": "s",
    "shock_model.survival.float.calls": "count",
    "shock_model.survival.float.self_s": "s",
    "shock_model.sdfr_skeleton_check.exact.self_s": "s",
    "shock_model.sdfr_skeleton_check.float.self_s": "s",
    "shock_model.simulate_failure_times.calls": "count",
    "shock_model.simulate_failure_times.self_s": "s",
    "shock_model.simulate_failure_times.replicates": "count",
    "shock_model.simulate_de_finetti.calls": "count",
    "shock_model.simulate_de_finetti.self_s": "s",
    "shock_model.simulate_de_finetti.replicates": "count",
    "measures.from_json_dict.self_s": "s",
    "families.generate.self_s": "s",
    "cli.import.self_s": "s",
    "cli.render.self_s": "s",
    "cli.render.bytes": "bytes",
    "bench.glue.self_s": "s",
    "trace.accounted_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "shockpgf" / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup_only(args)
        return 0
    result = run_cli(args) if args.workload == "cli-session" else run_library(args)
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ set-up

def setup_only(args) -> None:
    """Body of a set-up child: import, build the inputs, report ready."""
    if args.workload == "cli-session":
        import shockpgf.cli  # noqa: F401  (the import every command pays)

        from cli_session import CliSession

        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-cli-") as tmp:
            CliSession().build(args.seed, Path(tmp))
    else:
        from tracing import NullTracer
        from workloads import WORKLOADS as LIB

        LIB[args.workload].build(args.seed, NullTracer())
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(f"ready {usage.ru_utime + usage.ru_stime!r}", flush=True)


class Sampler:
    """Set-up children and yardsticks, run one at a time between operations.

    The set-up children and ``fresh`` yardsticks are spread evenly over the
    timed run and the ``inner`` yardstick runs every ``yardstick.EVERY``
    seconds, so that their medians see the same machine as the operations
    do rather than the few seconds before them. None of it is timed as an
    operation.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-only"]
        self.every = args.seconds / SETUP_REPEATS
        self.setup: list[float] = []
        self.fresh: list[float] = []
        self.inner: list[float] = []
        self.parts: dict[str, list[float]] = {}
        self.next_inner = 0.0

    def __call__(self, elapsed: float) -> None:
        """Take the samples that are due after ``elapsed`` seconds of the run."""
        if len(self.setup) < SETUP_REPEATS and elapsed >= len(self.setup) * self.every:
            self.take_setup()
        if elapsed >= self.next_inner:
            parts = yardstick.inner()
            self.inner.append(sum(parts.values()))
            for name, seconds in parts.items():
                self.parts.setdefault(name, []).append(seconds)
            self.next_inner = elapsed + yardstick.EVERY

    def finish(self) -> "Sampler":
        while len(self.setup) < SETUP_REPEATS:
            self.take_setup()
        return self

    def take_setup(self) -> None:
        out = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        word, _, value = out.stdout.strip().partition(" ")
        if out.returncode != 0 or word != "ready":
            raise RuntimeError(f"set-up child failed with exit code {out.returncode}: "
                               f"{out.stderr.strip()[-500:]}")
        self.setup.append(float(value))
        self.fresh.append(yardstick.fresh(ROOT))


# ------------------------------------------------------------------ loops

def settle() -> None:
    """Move the benchmark's inputs out of the collector's view before timing.

    A full collection would otherwise traverse the whole input pool, a cost
    a program holding one input does not pay.
    """
    gc.collect()
    gc.freeze()


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def loop(wl, items, tr, seconds=None, periods=None, clock=process_time, between=None):
    """Closed loop over the inputs in whole periods; returns (op seconds, records).

    Operations are timed in CPU seconds of ``clock`` (this process, or the
    children for CLI commands), which leaves out time the machine gives to
    other processes; the stopping rule uses wall time. ``between`` is
    called with the elapsed wall time before each operation, untimed.
    """
    times, records = [], []
    start = perf_counter()
    i = 0
    while True:
        if i % wl.period == 0 and i and (
                (periods is not None and i // wl.period >= periods)
                or (seconds is not None and perf_counter() - start >= seconds)):
            break
        if between is not None:
            between(perf_counter() - start)
        idx = i % len(items)
        it = items[idx]
        if hasattr(wl, "prepare"):
            wl.prepare(it)
        error = None
        with tr.span("op", op=i):
            t0 = clock()
            try:
                raw = wl.op(tr, it)
            except Exception as exc:  # a failing operation is counted, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            t1 = clock()
        times.append(t1 - t0)
        records.append((idx, error if error else wl.record(it, raw), error is not None))
        i += 1
    return times, records


def check(wl, items, records):
    """Compare every record with its reference; returns (failed, failures)."""
    refs = {}
    failures: dict[str, list] = {}
    failed = 0
    for idx, rec, errored in records:
        if errored:
            bad = [("op.error", rec)]
        else:
            if idx not in refs:
                refs[idx] = wl.reference(items[idx])
            bad = wl.check(items[idx], rec, refs[idx])
        if bad:
            failed += 1
            for code, detail in bad:
                entry = failures.setdefault(code, [0, detail])
                entry[0] += 1
    return failed, failures


def end_to_end(times, sampler, rss_kb, kind) -> tuple[dict, list[str]]:
    """Metrics at the reference speed, and report lines with the raw values.

    Operation times are scaled by the ``kind`` yardstick (``inner`` for
    in-process operations, ``fresh`` for CLI commands), set-up times by
    the ``fresh`` one.
    """
    op_scale = yardstick.scale(kind, getattr(sampler, kind))
    setup_scale = yardstick.scale("fresh", sampler.fresh)
    ms = sorted(t * 1e3 for t in times)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    raw = {"ops_per_s": len(ms) / (sum(ms) / 1e3), "op_ms_p50": statistics.median(ms),
           "op_ms_p90": p90, "setup_s": statistics.median(sampler.setup)}
    metrics = {"ops_per_s": raw["ops_per_s"] / op_scale, "op_ms_p50": raw["op_ms_p50"] * op_scale,
               "op_ms_p90": raw["op_ms_p90"] * op_scale, "setup_s": raw["setup_s"] * setup_scale,
               "peak_rss_mb": rss_kb / 1024}
    notes = [f"yardstick {name}: median {statistics.median(samples) * 1e3:.3f} ms CPU over "
             f"{len(samples)} samples, scale {yardstick.scale(name, samples):.4f}"
             for name, samples in (("inner", sampler.inner), ("fresh", sampler.fresh)) if samples]
    notes.append("yardstick inner parts, median ms CPU: " + ", ".join(
        f"{name}={statistics.median(v) * 1e3:.4f}" for name, v in sampler.parts.items()))
    notes.append("raw CPU times: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    return metrics, notes


def run_library(args) -> dict:
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS as LIB

    wl = LIB[args.workload]
    env = environment()
    if not args.trace:
        sampler = Sampler(args)
        items = wl.build(args.seed, NullTracer())
        settle()
        times, records = loop(wl, items, NullTracer(), seconds=args.seconds, between=sampler)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failed, failures = check(wl, items, records)
        metrics, notes = end_to_end(times, sampler.finish(), rss, "inner")
        return report(args, env, len(times), failed, failures, metrics, notes)
    tr = Tracer()
    items = wl.build(args.seed, tr)
    settle()
    loop(wl, items, NullTracer(), periods=wl.trace_periods)  # warm-up
    traced, records = loop(wl, items, tr, periods=wl.trace_periods)
    plain, _ = loop(wl, items, NullTracer(), periods=wl.trace_periods)
    failed, failures = check(wl, items, records)
    metrics = per_layer(tr, sum(traced) / sum(plain))
    return report(args, env, len(traced), failed, failures, metrics)


def run_cli(args) -> dict:
    from cli_session import CliSession, import_cost, render_reports
    from tracing import NullTracer, Tracer

    session = CliSession()
    env = environment()
    workdir = Path(tempfile.mkdtemp(dir=ROOT, prefix=".bench-cli-"))
    try:
        items = session.build(args.seed, workdir)
        if not args.trace:
            sampler = Sampler(args)
            times, records = loop(session, items, NullTracer(), seconds=args.seconds,
                                  clock=children_cpu, between=sampler)
            metrics, notes = end_to_end(times, sampler.finish(), session.peak_rss_kb, "fresh")
        else:
            tr = Tracer()
            plain, _ = loop(session, items, NullTracer(), periods=1, clock=children_cpu)
            times, records = loop(session, items, tr, periods=1, clock=children_cpu)
            render_reports(tr)
            tr.spans.append(("cli.import", 0.0, import_cost(ROOT, os.environ), None, None))
            metrics, notes = per_layer(tr, sum(times) / sum(plain)), []
        failed, failures = check(session, items, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, env, len(times), failed, failures, metrics, notes)


# ------------------------------------------------------------------ reports

def per_layer(tr, overhead: float) -> dict:
    summary = tr.summary()
    self_s, counts = summary["self_s"], tr.counts
    out = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if name == "trace.overhead_ratio":
            out[name] = overhead
        elif name == "trace.accounted_ratio":
            out[name] = ((summary["layers_s"] + summary["glue_s"]) / summary["op_s"]
                         if summary["op_s"] else 1.0)
        elif stat == "self_s":
            out[name] = self_s.get(base, 0.0)
        elif stat == "cells_needed_ratio":
            cells = counts.get(base + ".cells", 0)
            out[name] = counts.get(base + ".cells_needed", 0) / cells if cells else 0.0
        else:
            out[name] = counts.get(name, 0)
    return out


def report(args, env, attempted, failed, failures, metrics, notes=()) -> dict:
    from workloads import KNOWN_DEFECTS

    unknown = sorted(code for code in failures if code not in KNOWN_DEFECTS)
    print(f"== {args.workload}  seed={args.seed}  trace={args.trace}  "
          f"ops={attempted}  failed={failed}  fail_ratio={failed / max(attempted, 1):.4f}")
    print("env " + json.dumps(env, sort_keys=True))
    units = PER_LAYER if args.trace else {k: v[0] for k, v in END_TO_END.items()}
    samples = {"setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    for name, value in metrics.items():
        shown = END_TO_END.get(name, (None, {}))[1].get(args.workload, name)
        n = attempted if args.trace else samples.get(name, attempted)
        print(f"  {shown:<56} {value:>16.6g} {units[name]:<6} n={n}")
    for line in notes:
        print("  " + line)
    for code, (count, detail) in sorted(failures.items()):
        why = KNOWN_DEFECTS.get(code, "UNEXPECTED wrong result")
        print(f"  failure {code} x{count}: {why}; e.g. {detail}")
    return {"correct": not unknown, "attempted": attempted, "failed": failed, "metrics": {
        name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}


def environment() -> dict:
    import importlib.metadata

    import numpy

    def git(*cmd):
        try:
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or None
        except OSError:
            return None

    commit = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
               platform.processor()) if Path("/proc/cpuinfo").exists() else platform.processor()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "click": importlib.metadata.version("click"), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "dirty": bool(git("status", "--porcelain")) if commit else None,
            "threads": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS")}}


def run_all(args) -> int:
    """Each workload in its own process; a combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return out.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
