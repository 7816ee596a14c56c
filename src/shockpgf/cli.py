"""Command line front end.

The parser states every argument rule. ``main`` loads the mixing distribution that
--dist names (inline JSON or a path), the subcommand turns it into one report, and
``_emit`` writes that as CSV or JSON to stdout or a file. Output is deterministic for
fixed inputs: floats are rendered with repr and simulations are seeded. Exit codes: 0 on
success, 2 for invalid input or arguments, 3 when a numeric routine cannot deliver the
request.

Library names are read through the package (``sp.name``), so each subcommand
imports only the modules it calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import shockpgf as sp
from .errors import NumericError, ValidationError


def _load_distribution(text: str) -> sp.MixingDistribution:
    t = text.strip()
    inline = t.startswith("{")
    try:
        if inline:
            doc = json.loads(t)
        else:
            with open(t, encoding="utf-8") as fh:
                doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read distribution file: {exc}")
    except ValueError as exc:  # not JSON, not UTF-8, or an integer past the digit limit
        where = "inline distribution" if inline else "distribution file"
        raise ValidationError(f"{where} is not valid JSON: {exc}")
    try:
        return sp.MixingDistribution.from_json_dict(doc)
    except ValidationError as exc:
        raise ValidationError(f"invalid distribution: {exc}")


def _parse_point(token: str):
    """Grid scalar: fractions stay exact, everything else becomes float."""
    token = token.strip()
    try:
        return Fraction(token) if "/" in token else float(token)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse number {token!r}")


def _parse_grid(text: str, name: str) -> list:
    points = [_parse_point(tok) for tok in text.split(",") if tok.strip()]
    if not points:
        raise ValidationError(f"option --{name} lists no points")
    return points


def _emit(a: argparse.Namespace, doc, csv) -> None:
    """Write the requested format, the JSON document under its ``command``; ``doc`` and
    ``csv`` are thunks and only that one runs. ``jsonable`` renders the document first,
    so it holds nothing that strict (RFC 8259) JSON cannot. Exact results pass the
    4300-digit limit on int-to-text of Python 3.10.7+, so the limit is lifted for this
    render only: it still guards the parsing of every input."""
    set_limit = getattr(sys, "set_int_max_str_digits", lambda n: None)  # absent before 3.10.7
    limit = getattr(sys, "get_int_max_str_digits", int)()
    set_limit(0)
    try:
        text = (json.dumps(sp.jsonable({"command": a.command, **doc()}), indent=2,
                           allow_nan=False) + "\n" if a.format == "json" else csv())
    finally:
        set_limit(limit)
    if a.out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(a.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {a.out!r}: {exc.strerror}")


def _cell(first) -> dict | None:
    """JSON form of a (j, k) difference cell, or None when there is none."""
    return None if first is None else {"j": first[0], "k": first[1]}


def pgf(a, q):
    """Evaluate the candidate p.g.f. on a grid."""
    rows = [(pt, sp.pgf_eval(q, pt)) for pt in _parse_grid(a.z, "z")]
    return (lambda: {
        "distribution": q,
        "rows": [{"z": pt, "phi": v, "decimal": float(v)} for pt, v in rows],
    }, lambda: sp.measures.csv_text(("z", "phi"), ((float(pt), float(v)) for pt, v in rows)))


def tail(a, q):
    """Tabulate the shock-resistance tail sequence."""
    t = sp.tail_sequence(q, a.K)
    return (lambda: {
        "distribution": q,
        "valid": t.violation is None,
        "invalid_reason": t.violation,
        "tail": t.to_json_dict(),
    }, t.to_csv)


def cm_check(a, q):
    """Test a sequence for complete monotonicity."""
    tol = None if a.tol is None else sp.measures.require_nonnegative(a.tol, "option --tol={}")
    if q is None:
        # parse_number keeps decimal strings exact, so hand-typed sequences
        # get the zero-tolerance check by default
        entries = [sp.parse_number(tok.strip()) for tok in a.values.split(",") if tok.strip()]
        if not entries:
            raise ValidationError("option --values lists no entries")
        seq = sp.TailSequence.from_values(entries)
    else:
        seq = sp.tail_sequence(q, a.K)
    table = sp.difference_table(seq, min(a.J, seq.K))
    if tol is None:
        tol = 0.0 if table.exact else 1e-9 * max(map(abs, seq.floats))
    verdict, first = sp.is_completely_monotone(seq, table.J, tol)
    return (lambda: {
        **({"source": "values"} if q is None else {"source": "dist", "distribution": q}),
        "J": table.J,
        "tol": tol,
        "completely_monotone": verdict,
        "first_violation": _cell(first),
        "table": table.to_json_dict(),
    }, table.to_csv)


def classify(a, q):
    """Classify the support of a mixing distribution."""
    c = sp.classify_support(q)
    ej = sp.expected_shocks(q)
    return (lambda: {
        "distribution": q,
        **c.to_json_dict(),
        "expected_shocks": ej,
    }, lambda: sp.measures.csv_text(("verdict", "m01", "m12", "m2", "expected_shocks"),
                                    [(c.verdict, c.m01, c.m12, c.m2, ej)]))


def counterexample(a, _):
    """Reproduce the two-segment stress case end to end."""
    k = a.K
    p = sp.counterexample_params(a.alpha, a.beta)
    q = sp.counterexample_Q(p)
    t = sp.counterexample_tail_sequence(p, k)
    verdict, first = sp.is_completely_monotone(t, min(a.J, k), 0)
    mono_fail = next((n for n in range(k // 2 + 1) if not sp.monotonicity_condition(p, n)), None)
    # row 2 at i reads u_i..u_{i+2}: the first 11 entries give the 9 that are printed
    second = sp.difference_table(t.values[:11], 2).entries[2] if k >= 2 else ()
    return (lambda: {
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
        "second_differences": [{"k": i, "value": v, "decimal": float(v)}
                               for i, v in enumerate(second)],
        "tail": t.to_json_dict(),
    }, t.to_csv)


def survival(a, q):
    """Shock-model survival on a time grid."""
    params = sp.ShockModelParams(lam=sp.parse_number(a.lam),
                                 time_grid=tuple(_parse_grid(a.t, "t")))
    t_seq = sp.tail_sequence(q, a.K)
    rows = [(v, sp.survival(t_seq, params, v)) for v in params.time_grid]
    return (lambda: {
        "distribution": q,
        "lam": params.lam,
        "rows": [{"t": v, "survival": s} for v, s in rows],
    }, lambda: sp.measures.csv_text(("t", "survival"), rows))


def laplace(a, q):
    """Failure-time transform on a frequency grid."""
    lam_v = sp.parse_number(a.lam)
    rows = [(pt, sp.laplace(q, lam_v, pt)) for pt in _parse_grid(a.s, "s")]
    return (lambda: {
        "distribution": q,
        "lam": lam_v,
        "rows": [{"s": pt, "value": v, "decimal": float(v)} for pt, v in rows],
    }, lambda: sp.measures.csv_text(("s", "value"), ((float(pt), float(v)) for pt, v in rows)))


def bounds(a, q):
    """Two-sided bounds around the mixture value."""
    if a.z is not None:
        results = [sp.pgf_bounds(q, pt) for pt in _parse_grid(a.z, "z")]
        scale, header = "pgf", ("z", "lower", "phi", "upper")
    else:
        lam_v = sp.parse_number(a.lam)
        results = [sp.laplace_order_bounds(q, lam_v, pt) for pt in _parse_grid(a.s, "s")]
        scale, header = "laplace", ("s", "lower", "value", "upper")
    return (lambda: {"scale": scale, "distribution": q, "rows": results},
            lambda: sp.measures.csv_text(header, ([float(getattr(b, col)) for col in header]
                                                  for b in results)))


def skeleton(a, q):
    """Complete-monotonicity check of the survival skeleton."""
    params = sp.ShockModelParams(lam=sp.parse_number(a.lam), series_tol=1e-13)
    t_seq = sp.tail_sequence(q, a.K)
    verdict, first = sp.sdfr_skeleton_check(t_seq, params, a.delta, a.J, a.n_points)
    return (lambda: {
        "distribution": q,
        "lam": params.lam,
        "delta": a.delta,
        "J": a.J,
        "n_points": a.n_points,
        "completely_monotone": verdict,
        "first_violation": _cell(first),
    }, lambda: sp.measures.csv_text(
        ("delta", "J", "n_points", "completely_monotone", "first_j", "first_k"),
        [(a.delta, a.J, a.n_points, verdict, *(first or (None, None)))]))


def simulate(a, q):
    """Seeded Monte Carlo against the analytic curves. No simulator calls BLAS, so the
    OpenBLAS that numpy loads starts one thread, not one per core, unless the caller's
    environment names a count; a program that imports the library keeps its own."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if a.mode == "failure":
        params = sp.ShockModelParams(lam=sp.parse_number(a.lam),
                                     time_grid=tuple(_parse_grid(a.t, "t")))
        result = sp.simulate_failure_times(q, params, a.n, a.seed, tail_model=a.tail_model,
                                           K=a.K)
    else:
        result = sp.simulate_de_finetti(q, _parse_grid(a.z, "z"), a.n, a.seed)
    return lambda: {"mode": a.mode, "distribution": q, **result.to_json_dict()}, result.to_csv


def _parser() -> argparse.ArgumentParser:
    """The root parser and one subparser per command. None of them reads a prefix of an
    option name as the option, and there is no ``-h``: every option is spelled in full."""
    kw = dict(allow_abbrev=False, add_help=False,
              formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    root = argparse.ArgumentParser(prog="shockpgf", **kw,
                                   description="Mixture p.g.f. and shock-model survival toolkit.")
    root.add_argument("--version", action="version", help="Show the version and exit.",
                      version=f"shockpgf, version {sp.__version__}")
    root.add_argument("--help", action="help", help="Show this message and exit.")
    commands = root.add_subparsers(title="commands", metavar="COMMAND", dest="command",
                                   required=True)
    dist = dict(metavar="JSON_OR_PATH",
                help="Mixing distribution: inline JSON or a path to a JSON file.")

    def command(run, fmt: str, needs_dist: bool = True) -> argparse.ArgumentParser:
        """Add the subcommand that ``run`` computes, named after it, with its shared options.
        A command that needs a law requires --dist; ``main`` passes the loaded law to ``run``."""
        name = run.__name__.replace("_", "-")
        p = commands.add_parser(name, help=run.__doc__, description=run.__doc__, **kw)
        p.set_defaults(run=run, dist=None)
        if needs_dist:
            p.add_argument("--dist", required=True, **dist)
        p.add_argument("--format", choices=("csv", "json"), default=fmt, help="Output format.")
        p.add_argument("--out", default="-", help="Output path, '-' for stdout.")
        p.add_argument("--help", action="help", help="Show this message and exit.")
        return p

    opt = command(pgf, "csv").add_argument
    opt("--z", default="1/4,1/2,3/4", help="Comma-separated evaluation points in (0, 1).")
    opt = command(tail, "csv").add_argument
    opt("--K", type=int, default=200, help="Largest tail index to tabulate.")
    p = command(cm_check, "json", needs_dist=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--dist", **dist)
    source.add_argument("--values",
                        help="Check these comma-separated values instead of tails of --dist.")
    opt = p.add_argument
    opt("--K", type=int, default=60,
        help="Tail truncation order when deriving values from --dist.")
    opt("--J", type=int, default=12, help="Highest difference order to inspect.")
    opt("--tol", type=float, help="Negativity tolerance; defaults to 0 for exact input.")
    command(classify, "json")
    opt = command(counterexample, "json", needs_dist=False).add_argument
    opt("--alpha", required=True, help="Overshoot width, a rational like 1/7.")
    opt("--beta", required=True, help="Overshoot mass, a rational like 2/3.")
    opt("--K", type=int, default=200, help="Largest tail index to tabulate.")
    opt("--J", type=int, default=12, help="Highest difference order to inspect.")
    opt = command(survival, "csv").add_argument
    opt("--lam", default="1", help="Poisson arrival rate.")
    opt("--t", default="0,0.5,1,2,4", help="Comma-separated evaluation times.")
    opt("--K", type=int, default=200, help="Tail truncation order feeding the series.")
    opt = command(laplace, "csv").add_argument
    opt("--lam", default="1", help="Poisson arrival rate.")
    opt("--s", default="0.5,1,2", help="Comma-separated transform frequencies.")
    p = command(bounds, "csv")
    scale = p.add_mutually_exclusive_group(required=True)
    scale.add_argument("--z", help="Comma-separated points in (0, 1); bounds on the p.g.f. scale.")
    scale.add_argument("--s", help="Comma-separated frequencies; bounds on the transform scale.")
    p.add_argument("--lam", default="1", help="Arrival rate, used with --s.")
    opt = command(skeleton, "json").add_argument
    opt("--lam", default="1", help="Poisson arrival rate.")
    opt("--delta", type=float, default=0.5, help="Grid step.")
    opt("--J", type=int, default=10, help="Highest difference order to inspect.")
    opt("--n-points", type=int, default=40, help="Skeleton length.")
    opt("--K", type=int, default=200, help="Tail truncation order feeding the series.")
    opt = command(simulate, "csv").add_argument
    opt("--mode", choices=("failure", "definetti"), default="failure",
        help="failure: shock-model times; definetti: count p.g.f.")
    opt("--lam", default="1", help="Poisson arrival rate (failure mode).")
    opt("--t", default="0.5,1,2,4", help="Time grid (failure mode).")
    opt("--z", default="1/4,1/2,3/4", help="Evaluation grid (definetti mode).")
    opt("--n", type=int, default=100000, help="Replicates.")
    opt("--seed", type=int, default=0, help="Random seed.")
    opt("--K", type=int, default=200, help="Tail truncation order (failure mode).")
    opt("--tail-model", choices=("none", "geometric", "harmonic"), default="none",
        help="Continuation of the tails beyond K (failure mode).")
    return root


def _attach_values(argv: list[str]) -> list[str]:
    """``--opt word`` -> ``--opt=word``. Every option but --help and --version takes one
    value, and it is the next word even when that starts with '-' (``--values -1,1/2``),
    where argparse would read the word as an option. A closing ``--`` ends no arguments
    and is dropped; argparse would refuse it."""
    out, words = [], iter(argv)
    for word in words:
        if word[:2] == "--" and "=" not in word and word not in ("--", "--help", "--version"):
            value = next(words, None)
            word = word if value is None else f"{word}={value}"
        out.append(word)
    return out[:-1] if out[-1:] == ["--"] else out


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default) and return its exit code.
    Invalid input and arguments exit 2 and numeric failures exit 3, each with an
    ``Error:`` line on stderr; argparse reports its own usage errors, also with 2."""
    try:
        a = _parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # --help and --version exit 0, usage errors exit 2
        return exc.code
    try:
        q = None if a.dist is None else _load_distribution(a.dist)
        _emit(a, *a.run(a, q))
    except (ValidationError, NumericError) as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
