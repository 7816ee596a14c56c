"""Mixing distributions on the half line and integration against them.

A mixing distribution is a probability measure built from point masses plus
a piecewise-constant density. Scalars are kept as ``fractions.Fraction``
whenever the caller supplies rational data, so measure arithmetic, moments,
and polynomial integrals stay exact; floats enter only when the caller uses
them or when an integral has no rational value (logarithms, exponentials,
and the p.g.f. kernel, which alone needs the adaptive quadrature below).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from .errors import QuadratureError, ValidationError

Num = int | Fraction | float

#: absolute slack allowed when float-valued masses must sum to one
MASS_TOL = 1e-12


def parse_number(x: int | float | str | Fraction) -> Num:
    """Coerce a scalar to Fraction (exact inputs) or float.

    Strings accept both "num/den" and decimal forms and always parse
    exactly. Plain ints are promoted to Fraction so later arithmetic does
    not silently fall into float division.
    """
    if isinstance(x, bool):
        raise ValidationError(f"expected a number, got {x!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse number {x!r}") from exc
    raise ValidationError(f"expected a number, got {type(x).__name__}")


def is_exact(x: Num) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def jsonable(x):
    """JSON form of a value: int or "num/den" when exact, float for other numbers; str,
    bool and None as they are; containers element by element; a dataclass as a dict of
    its public fields in declaration order. Scalars, nearly every call, are tested first."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return float(x)
    if isinstance(x, (int, str)) or x is None:  # bool is an int
        return x
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if is_dataclass(x):
        return {f.name: jsonable(getattr(x, f.name))
                for f in fields(x) if not f.name.startswith("_")}
    return float(x)


def csv_text(header: Sequence[str], rows) -> str:
    """CSV text of a header and rows, one line each; a cell is empty for None, else
    ``jsonable`` of it as text."""
    return "".join(",".join("" if x is None else str(jsonable(x)) for x in row) + "\n"
                   for row in (header, *rows))


def require_int(x, what: str, least: int = 0) -> int:
    """Refuse anything but an int (bool excluded) of at least ``least`` (0 or 1)."""
    if not isinstance(x, int) or isinstance(x, bool) or x < least:
        kind = "positive" if least else "non-negative"
        raise ValidationError(f"{what} {x!r} must be a {kind} integer")
    return x


def require_positive(x, what: str, hi: Num = math.inf, closed: bool = False) -> Num:
    """parse_number(x), refused unless 0 < x < hi (x <= hi when closed) and float(x) is
    finite; nan, inf and exact values past the float range fail."""
    v = parse_number(x)
    try:
        ok = (0 < v <= hi if closed else 0 < v < hi) and math.isfinite(v)
    except OverflowError:  # float(v) of an exact v past the float range
        ok = False
    if not ok:
        raise ValidationError(f"{what}={v} must be positive and finite" if hi == math.inf
                              else f"{what}={v} outside (0, {hi}{']' if closed else ')'}")
    return v


def require_nonnegative(x, what: str) -> float:
    """float(x), refused unless 0 <= float(x) < inf; nan, inf and exact values past the
    float range fail. ``what`` opens the message, and a ``{}`` in it shows x as given."""
    try:
        v = float(x)
    except OverflowError:  # an exact x past the float range
        v = math.inf
    if not 0 <= v < math.inf:
        raise ValidationError(f"{what.format(x)} must be non-negative and finite")
    return v


@dataclass(frozen=True)
class Atom:
    """Point mass p at location y."""

    y: Num
    p: Num


@dataclass(frozen=True)
class Segment:
    """Constant density on the half-open interval [lo, hi)."""

    lo: Num
    hi: Num
    density: Num

    @property
    def mass(self) -> Num:
        return self.density * (self.hi - self.lo)


@dataclass(frozen=True)
class MixingDistribution:
    """Point masses plus a piecewise-constant density on [0, inf).

    Constructor invariants: every scalar is finite, every atom has positive
    mass at a strictly positive location, segments are disjoint with
    non-negative density, and the total mass is one (exactly for rational
    data, within MASS_TOL otherwise). Atoms and segments are stored sorted
    by location. ``_live_segments`` and ``_means`` are worked out once and kept
    (the law is frozen and holds immutable numbers); they are not fields, so
    they stay out of equality, hashing, repr, JSON and pickles.
    """

    atoms: tuple[Atom, ...] = ()
    segments: tuple[Segment, ...] = ()

    def __post_init__(self) -> None:
        exact = self.exact
        if not exact:
            for part in (*self.atoms, *self.segments):
                for f in fields(part):
                    x = getattr(part, f.name)
                    if not is_exact(x) and not math.isfinite(x):
                        kind = type(part).__name__.lower()
                        raise ValidationError(f"{kind} {f.name}={x!r} is not finite")
        atoms = tuple(sorted(self.atoms, key=lambda a: a.y))
        segments = tuple(sorted(self.segments, key=lambda s: s.lo))
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "segments", segments)
        seen = set()
        for a in atoms:
            if a.y < 0:
                raise ValidationError(f"atom location {a.y} is negative")
            if a.y == 0:
                raise ValidationError("atom at the origin: mass at 0 must be zero")
            if not 0 < a.p <= 1:
                raise ValidationError(f"atom mass {a.p} outside (0, 1]")
            if a.y in seen:
                raise ValidationError(f"duplicate atom location {a.y}")
            seen.add(a.y)
        for s in segments:
            if s.lo < 0:
                raise ValidationError(f"segment lower endpoint {s.lo} is negative")
            if not s.lo < s.hi:
                raise ValidationError(f"segment [{s.lo}, {s.hi}) is empty or reversed")
            if s.density < 0:
                raise ValidationError(f"segment density {s.density} is negative")
        for left, right in zip(segments, segments[1:]):
            if right.lo < left.hi:
                raise ValidationError(
                    f"segments [{left.lo}, {left.hi}) and [{right.lo}, {right.hi}) overlap"
                )
        total = self.total_mass
        if exact:
            if total != 1:
                raise ValidationError(f"total mass is {total}, must be exactly 1")
        elif abs(total - 1) > MASS_TOL:
            raise ValidationError(f"total mass is {total!r}, must be 1 within {MASS_TOL}")

    @property
    def exact(self) -> bool:
        return all(is_exact(a.y) and is_exact(a.p) for a in self.atoms) and all(
            is_exact(s.lo) and is_exact(s.hi) and is_exact(s.density) for s in self.segments
        )

    @property
    def total_mass(self) -> Num:
        return sum(a.p for a in self.atoms) + sum(s.mass for s in self.segments)

    @cached_property
    def _live_segments(self) -> tuple[tuple[float, float, float], ...]:
        """Segments as float (lo, hi, density) triples, leaving out those whose density
        rounds to 0.0: under 2**-1074 on a width a float can hold, such a segment carries
        less than 1e-15 of mass, far below the 1e-10 budget of ``pgf_eval``."""
        dens = ((s, float(s.density)) for s in self.segments)
        return tuple((float(s.lo), float(s.hi), d) for s, d in dens if d > 0)

    @cached_property
    def _means(self) -> tuple[Num, Num]:
        """(E[Y], E[1/Y]), exact for exact data; E[1/Y] is math.inf when a segment with
        positive density starts at 0, and a segment [lo, hi) with lo > 0 gives it
        density * log1p((hi-lo)/lo), which keeps a narrow segment's relative accuracy."""
        mean_y = integrate(self, lambda y: y, lambda lo, hi, d: d * ((hi * hi - lo * lo) / 2))
        if any(s.lo == 0 and s.density > 0 for s in self.segments):
            return mean_y, math.inf
        return mean_y, integrate(self, lambda y: 1 / y,
                                 lambda lo, hi, d: d * math.log1p((hi - lo) / lo))

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json_dict(self) -> dict:
        return jsonable(self)

    @classmethod
    def from_json_dict(cls, doc) -> "MixingDistribution":
        if not isinstance(doc, dict):
            raise ValidationError("distribution document must be a JSON object")

        def grab(entry, field: str, where: str) -> Num:
            if not isinstance(entry, dict) or field not in entry:
                raise ValidationError(f"{where} is missing field {field!r}")
            return parse_number(entry[field])

        def parts(key: str, kind) -> tuple:  # the JSON keys are the fields ``jsonable`` writes
            entries = [] if doc.get(key) is None else doc[key]
            if not isinstance(entries, list):
                raise ValidationError(f"{key!r} must be a list, got {type(entries).__name__}")
            return tuple(kind(*(grab(entry, f.name, f"{key}[{i}]") for f in fields(kind)))
                         for i, entry in enumerate(entries))

        return cls(parts("atoms", Atom), parts("segments", Segment))


def point_mass(y) -> MixingDistribution:
    """Unit mass at a single location."""
    return MixingDistribution(atoms=(Atom(parse_number(y), Fraction(1)),))


def uniform_density(lo, hi) -> MixingDistribution:
    """Uniform density on [lo, hi)."""
    lo = parse_number(lo)
    hi = parse_number(hi)
    if not lo < hi:
        raise ValidationError(f"uniform endpoints reversed: [{lo}, {hi})")
    return MixingDistribution(segments=(Segment(lo, hi, 1 / (hi - lo)),))


def mix(components: Sequence[tuple[Num, MixingDistribution]]) -> MixingDistribution:
    """Weighted mixture of mixing distributions.

    Coinciding atoms are merged and overlapping density pieces are split at
    the union of their endpoints, so the result satisfies the constructor
    invariants whenever the weights are non-negative and sum to one.
    """
    atom_mass: dict = {}
    pieces = []
    for w, q in components:
        if w < 0:
            raise ValidationError(f"mixture weight {w} is negative")
        if w == 0:
            continue
        for a in q.atoms:
            atom_mass[a.y] = atom_mass.get(a.y, 0) + w * a.p
        for s in q.segments:
            if s.density > 0:
                pieces.append((s.lo, s.hi, w * s.density))
    cuts = sorted({x for lo, hi, _ in pieces for x in (lo, hi)})
    segments: list[Segment] = []
    for a, b in zip(cuts, cuts[1:]):
        d = sum(dens for lo, hi, dens in pieces if lo <= a and b <= hi)
        if d > 0:
            if segments and segments[-1].hi == a and segments[-1].density == d:
                segments[-1] = Segment(segments[-1].lo, b, d)
            else:
                segments.append(Segment(a, b, d))
    atoms = tuple(Atom(y, p) for y, p in sorted(atom_mass.items()))
    return MixingDistribution(atoms, tuple(segments))


#: 15-point Gauss-Legendre rule on [-1, 1], the repr of numpy's leggauss(15)
_NODES = (-0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
          -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
          0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
          0.8482065834104272, 0.9372733924007058, 0.9879925180204854)
_WEIGHTS = (0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
            0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
            0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
            0.10715922046717141, 0.0703660474881084, 0.030753241996117203)
_MAX_DEPTH = 48


def _panel(g: Callable[[list[float]], Sequence[float]], a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * math.fsum(map(mul, _WEIGHTS, g([mid + half * x for x in _NODES])))


def _refine(g, a: float, b: float, whole: float, tol: float, depth: int) -> float:
    mid = 0.5 * (a + b)
    left = _panel(g, a, mid)
    right = _panel(g, mid, b)
    if abs(whole - (left + right)) <= tol:
        return left + right
    if depth >= _MAX_DEPTH:
        raise QuadratureError(f"quadrature did not converge on [{a}, {b}]")
    return _refine(g, a, mid, left, 0.5 * tol, depth + 1) + _refine(
        g, mid, b, right, 0.5 * tol, depth + 1
    )


def quadrature(g: Callable[[list[float]], Sequence[float]], lo, hi, tol: float) -> float:
    """Adaptive bisection built on a fixed 15-point Gauss-Legendre rule.

    ``g`` is vectorised: it takes the list of a panel's 15 nodes and returns
    their values in order. The weighted values are summed with ``math.fsum``,
    and one panel integrates polynomials of degree up to 29 exactly. Panels
    are split until the whole-panel and split-panel estimates agree within
    the (bisected) tolerance budget, so the absolute error of the returned
    value is at most tol for integrands this rule resolves.
    """
    if not tol > 0:
        raise ValidationError(f"quadrature tolerance {tol} must be positive")
    a, b = float(lo), float(hi)
    if b <= a:
        return 0.0
    return _refine(g, a, b, _panel(g, a, b), tol, 0)


def integrate(q: MixingDistribution, at_atom: Callable[[Num], Num],
              over_segment: Callable[[Num, Num, Num], Num]) -> Num:
    """Sum an integral against q: atoms first, then live segments in order.

    Atom y contributes ``p * at_atom(y)``; a segment with positive density
    contributes ``over_segment(lo, hi, density)`` as a whole. Int scalars
    arrive as Fraction, so integer data integrates exactly, and the fixed
    summation order keeps float results reproducible bit for bit.
    """
    total: Num = 0
    for a in q.atoms:
        total += a.p * at_atom(parse_number(a.y))
    for s in q.segments:
        if s.density > 0:
            total += over_segment(parse_number(s.lo), parse_number(s.hi), s.density)
    return total


def mass_on(q: MixingDistribution, lo, hi, include_lo: bool = False,
            include_hi: bool = False) -> Num:
    """Measure of an interval, with explicit endpoint inclusion flags.

    Exact for exact distributions. ``hi`` may be math.inf.
    """
    if lo > hi:
        raise ValidationError(f"interval endpoints reversed: lo={lo} > hi={hi}")
    total: Num = 0
    for a in q.atoms:
        if lo < a.y < hi or (a.y == lo and include_lo) or (a.y == hi and include_hi):
            total += a.p
    for s in q.segments:
        a = max(lo, s.lo)
        b = min(hi, s.hi)
        if b > a:
            total += s.density * (b - a)
    return total

