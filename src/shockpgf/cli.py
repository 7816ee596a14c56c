"""Command line front end.

Every subcommand reads a mixing distribution (inline JSON or a path),
computes one report, and writes it as CSV or JSON to stdout or a file.
Output is deterministic for fixed inputs: floats are rendered with repr
and simulations are seeded. Exit codes: 0 on success, 2 for invalid
input or arguments, 3 when a numeric routine cannot deliver the request.

Library names are read through the package (``sp.name``), so each subcommand
imports only the modules it calls.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import click

import shockpgf as sp
from .errors import NumericError, ValidationError


class NumericFailure(click.ClickException):
    exit_code = 3


class Command(click.Command):
    """A subcommand that maps library errors onto the documented exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValidationError as exc:
            raise click.UsageError(str(exc), ctx)
        except NumericError as exc:
            raise NumericFailure(str(exc))


def _load_distribution(text: str | None) -> sp.MixingDistribution:
    if text is None:
        raise click.UsageError("missing required option '--dist'")
    t = text.strip()
    if t.startswith("{"):
        try:
            doc = json.loads(t)
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"inline distribution is not valid JSON: {exc}")
    else:
        try:
            with open(t, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise click.UsageError(f"cannot read distribution file: {exc}")
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"distribution file is not valid JSON: {exc}")
    try:
        return sp.MixingDistribution.from_json_dict(doc)
    except ValidationError as exc:
        raise click.UsageError(f"invalid distribution: {exc}")


def _parse_point(token: str):
    """Grid scalar: fractions stay exact, everything else becomes float."""
    token = token.strip()
    try:
        return Fraction(token) if "/" in token else float(token)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"cannot parse number {token!r}")


def _parse_grid(text: str, name: str) -> list:
    points = [_parse_point(tok) for tok in text.split(",") if tok.strip()]
    if not points:
        raise click.UsageError(f"option --{name} lists no points")
    return points


def _write(out: str, text: str) -> None:
    if out == "-":
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write --out {out!r}: {exc.strerror}")


def _emit(out: str, fmt: str, doc, csv) -> None:
    """Write the requested format; ``doc`` and ``csv`` are thunks and only that one runs.
    ``jsonable`` renders the laws, Fractions and reports that ``json`` cannot encode. Exact
    results pass the 4300-digit limit on int-to-text of Python 3.10.7+, so the limit is
    lifted for this render only: it still guards the parsing of every input."""
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)  # absent before 3.10.7
    limit = getattr(sys, "get_int_max_str_digits", int)()
    set_limit(0)
    try:
        text = json.dumps(doc(), indent=2, default=sp.jsonable) + "\n" if fmt == "json" else csv()
    finally:
        set_limit(limit)
    _write(out, text)


def _cell(first) -> dict | None:
    """JSON form of a (j, k) difference cell, or None when there is none."""
    return None if first is None else {"j": first[0], "k": first[1]}


def io_options(default_format: str):
    def deco(fn):
        fn = click.option("--out", default="-", show_default=True,
                          help="Output path, '-' for stdout.")(fn)
        fn = click.option("--format", type=click.Choice(["csv", "json"]),
                          default=default_format, show_default=True)(fn)
        return fn

    return deco


dist_option = click.option("--dist", metavar="JSON_OR_PATH",
                           help="Mixing distribution: inline JSON or a path to a JSON file.")


@click.group()
@click.version_option(sp.__version__, prog_name="shockpgf")
def cli():
    """Mixture p.g.f. and shock-model survival toolkit."""


cli.command_class = Command


@cli.command()
@dist_option
@click.option("--z", default="1/4,1/2,3/4", show_default=True,
              help="Comma-separated evaluation points in (0, 1).")
@io_options("csv")
def pgf(dist, z, format, out):
    """Evaluate the candidate p.g.f. on a grid."""
    q = _load_distribution(dist)
    rows = [(pt, sp.pgf_eval(q, pt)) for pt in _parse_grid(z, "z")]
    _emit(out, format, lambda: {
        "command": "pgf",
        "distribution": q,
        "rows": [{"z": pt, "phi": v, "decimal": float(v)} for pt, v in rows],
    }, lambda: sp.measures.csv_text(("z", "phi"), ((float(pt), float(v)) for pt, v in rows)))


@cli.command()
@dist_option
@click.option("--K", "k", type=int, default=200, show_default=True,
              help="Largest tail index to tabulate.")
@io_options("csv")
def tail(dist, k, format, out):
    """Tabulate the shock-resistance tail sequence."""
    q = _load_distribution(dist)
    t = sp.tail_sequence(q, k)
    _emit(out, format, lambda: {
        "command": "tail",
        "distribution": q,
        "valid": t.violation is None,
        "invalid_reason": t.violation,
        "tail": t.to_json_dict(),
    }, t.to_csv)


@cli.command("cm-check")
@dist_option
@click.option("--values", default=None,
              help="Check these comma-separated values instead of tails of --dist.")
@click.option("--K", "k", type=int, default=60, show_default=True,
              help="Tail truncation order when deriving values from --dist.")
@click.option("--J", "j", type=int, default=12, show_default=True,
              help="Highest difference order to inspect.")
@click.option("--tol", type=float, default=None,
              help="Negativity tolerance; defaults to 0 for exact input.")
@io_options("json")
def cm_check(dist, values, k, j, tol, format, out):
    """Test a sequence for complete monotonicity."""
    if values is not None:
        # parse_number keeps decimal strings exact, so hand-typed sequences
        # get the zero-tolerance check by default
        entries = [sp.parse_number(tok.strip()) for tok in values.split(",") if tok.strip()]
        if not entries:
            raise click.UsageError("option --values lists no entries")
        seq, q = sp.TailSequence.from_values(entries), None
    else:
        q = _load_distribution(dist)
        seq = sp.tail_sequence(q, k)
    table = sp.difference_table(seq, min(j, seq.K))
    if tol is None:
        tol = 0.0 if table.exact else 1e-9 * max(map(abs, seq.floats))
    verdict, first = sp.is_completely_monotone(seq, table.J, tol)
    _emit(out, format, lambda: {
        "command": "cm-check",
        **({"source": "values"} if q is None
           else {"source": "dist", "distribution": q}),
        "J": table.J,
        "tol": tol,
        "completely_monotone": verdict,
        "first_violation": _cell(first),
        "table": table.to_json_dict(),
    }, table.to_csv)


@cli.command()
@dist_option
@io_options("json")
def classify(dist, format, out):
    """Classify the support of a mixing distribution."""
    q = _load_distribution(dist)
    c = sp.classify_support(q)
    ej = sp.expected_shocks(q)
    _emit(out, format, lambda: {
        "command": "classify",
        "distribution": q,
        **c.to_json_dict(),
        "expected_shocks": "inf" if ej == math.inf else ej,
    }, lambda: sp.measures.csv_text(("verdict", "m01", "m12", "m2", "expected_shocks"),
                                    [(c.verdict, c.m01, c.m12, c.m2, ej)]))


@cli.command()
@click.option("--alpha", required=True, help="Overshoot width, a rational like 1/7.")
@click.option("--beta", required=True, help="Overshoot mass, a rational like 2/3.")
@click.option("--K", "k", type=int, default=200, show_default=True,
              help="Largest tail index to tabulate.")
@click.option("--J", "j", type=int, default=12, show_default=True,
              help="Highest difference order to inspect.")
@io_options("json")
def counterexample(alpha, beta, k, j, format, out):
    """Reproduce the two-segment stress case end to end."""
    p = sp.counterexample_params(alpha, beta)
    q = sp.counterexample_Q(p)
    t = sp.counterexample_tail_sequence(p, k)
    verdict, first = sp.is_completely_monotone(t, min(j, k), 0)
    mono_fail = next((n for n in range(k // 2 + 1) if not sp.monotonicity_condition(p, n)), None)
    # row 2 at i reads u_i..u_{i+2}: the first 11 entries give the 9 that are printed
    second = sp.difference_table(t.values[:11], 2).entries[2] if k >= 2 else ()
    _emit(out, format, lambda: {
        "command": "counterexample",
        "alpha": p.alpha,
        "beta": p.beta,
        "admissible": p.admissible,
        "distribution": q,
        "classification": sp.classify_support(q).to_json_dict(),
        "tail_valid": t.violation is None,
        "invalid_reason": t.violation,
        "monotonicity_condition_first_failure": mono_fail,
        "completely_monotone": verdict,
        "first_violation": _cell(first),
        "second_differences": [
            {"k": i, "value": v, "decimal": float(v)}
            for i, v in enumerate(second)
        ],
        "tail": t.to_json_dict(),
    }, t.to_csv)


@cli.command("survival")
@dist_option
@click.option("--lam", default="1", show_default=True, help="Poisson arrival rate.")
@click.option("--t", default="0,0.5,1,2,4", show_default=True,
              help="Comma-separated evaluation times.")
@click.option("--K", "k", type=int, default=200, show_default=True,
              help="Tail truncation order feeding the series.")
@io_options("csv")
def survival_cmd(dist, lam, t, k, format, out):
    """Shock-model survival on a time grid."""
    q = _load_distribution(dist)
    params = sp.ShockModelParams(lam=sp.parse_number(lam), time_grid=tuple(_parse_grid(t, "t")))
    t_seq = sp.tail_sequence(q, k)
    rows = [(v, sp.survival(t_seq, params, v)) for v in params.time_grid]
    _emit(out, format, lambda: {
        "command": "survival",
        "distribution": q,
        "lam": params.lam,
        "rows": [{"t": v, "survival": s} for v, s in rows],
    }, lambda: sp.measures.csv_text(("t", "survival"), rows))


@cli.command("laplace")
@dist_option
@click.option("--lam", default="1", show_default=True, help="Poisson arrival rate.")
@click.option("--s", default="0.5,1,2", show_default=True,
              help="Comma-separated transform frequencies.")
@io_options("csv")
def laplace_cmd(dist, lam, s, format, out):
    """Failure-time transform on a frequency grid."""
    q = _load_distribution(dist)
    lam_v = sp.parse_number(lam)
    rows = [(pt, sp.laplace(q, lam_v, pt)) for pt in _parse_grid(s, "s")]
    _emit(out, format, lambda: {
        "command": "laplace",
        "distribution": q,
        "lam": lam_v,
        "rows": [{"s": pt, "value": v, "decimal": float(v)} for pt, v in rows],
    }, lambda: sp.measures.csv_text(("s", "value"), ((float(pt), float(v)) for pt, v in rows)))


@cli.command()
@dist_option
@click.option("--z", default=None,
              help="Comma-separated points in (0, 1); bounds on the p.g.f. scale.")
@click.option("--s", default=None,
              help="Comma-separated frequencies; bounds on the transform scale.")
@click.option("--lam", default="1", show_default=True,
              help="Arrival rate, used with --s.")
@io_options("csv")
def bounds(dist, z, s, lam, format, out):
    """Two-sided bounds around the mixture value."""
    q = _load_distribution(dist)
    if (z is None) == (s is None):
        raise click.UsageError("pass exactly one of --z or --s")
    if z is not None:
        results = [sp.pgf_bounds(q, pt) for pt in _parse_grid(z, "z")]
        scale, header = "pgf", ("z", "lower", "phi", "upper")
    else:
        lam_v = sp.parse_number(lam)
        results = [sp.laplace_order_bounds(q, lam_v, pt) for pt in _parse_grid(s, "s")]
        scale, header = "laplace", ("s", "lower", "value", "upper")
    _emit(out, format, lambda: {
        "command": "bounds",
        "scale": scale,
        "distribution": q,
        "rows": results,
    }, lambda: sp.measures.csv_text(header, ([float(getattr(b, col)) for col in header]
                                             for b in results)))


@cli.command("skeleton")
@dist_option
@click.option("--lam", default="1", show_default=True, help="Poisson arrival rate.")
@click.option("--delta", type=float, default=0.5, show_default=True, help="Grid step.")
@click.option("--J", "j", type=int, default=10, show_default=True,
              help="Highest difference order to inspect.")
@click.option("--n-points", type=int, default=40, show_default=True,
              help="Skeleton length.")
@click.option("--K", "k", type=int, default=200, show_default=True,
              help="Tail truncation order feeding the series.")
@io_options("json")
def skeleton(dist, lam, delta, j, n_points, k, format, out):
    """Complete-monotonicity check of the survival skeleton."""
    q = _load_distribution(dist)
    params = sp.ShockModelParams(lam=sp.parse_number(lam), series_tol=1e-13)
    t_seq = sp.tail_sequence(q, k)
    verdict, first = sp.sdfr_skeleton_check(t_seq, params, delta, j, n_points)
    _emit(out, format, lambda: {
        "command": "skeleton",
        "distribution": q,
        "lam": params.lam,
        "delta": delta,
        "J": j,
        "n_points": n_points,
        "completely_monotone": verdict,
        "first_violation": _cell(first),
    }, lambda: sp.measures.csv_text(
        ("delta", "J", "n_points", "completely_monotone", "first_j", "first_k"),
        [(delta, j, n_points, verdict, *(first or (None, None)))]))


@cli.command()
@dist_option
@click.option("--mode", type=click.Choice(["failure", "definetti"]), default="failure",
              show_default=True, help="failure: shock-model times; definetti: count p.g.f.")
@click.option("--lam", default="1", show_default=True, help="Poisson arrival rate (failure mode).")
@click.option("--t", default="0.5,1,2,4", show_default=True,
              help="Time grid (failure mode).")
@click.option("--z", default="1/4,1/2,3/4", show_default=True,
              help="Evaluation grid (definetti mode).")
@click.option("--n", type=int, default=100000, show_default=True, help="Replicates.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--K", "k", type=int, default=200, show_default=True,
              help="Tail truncation order (failure mode).")
@click.option("--tail-model", type=click.Choice(["none", "geometric", "harmonic"]),
              default="none", show_default=True,
              help="Continuation of the tails beyond K (failure mode).")
@io_options("csv")
def simulate(dist, mode, lam, t, z, n, seed, k, tail_model, format, out):
    """Seeded Monte Carlo against the analytic curves."""
    q = _load_distribution(dist)
    if mode == "failure":
        params = sp.ShockModelParams(lam=sp.parse_number(lam),
                                     time_grid=tuple(_parse_grid(t, "t")))
        result = sp.simulate_failure_times(q, params, n, seed, tail_model=tail_model, K=k)
    else:
        result = sp.simulate_de_finetti(q, _parse_grid(z, "z"), n, seed)
    _emit(out, format, lambda: {"command": "simulate", "mode": mode,
                                "distribution": q, **result.to_json_dict()},
          result.to_csv)


if __name__ == "__main__":
    cli()
