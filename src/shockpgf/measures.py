"""Mixing distributions on the half line and integration against them.

A mixing distribution is a probability measure built from point masses plus
a piecewise-constant density. Scalars are kept as ``fractions.Fraction``
whenever the caller supplies rational data, so measure arithmetic, moments,
and polynomial integrals stay exact; floats enter only when the caller uses
them or when an integral has no rational value (logarithms, exponentials).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cached_property
from operator import attrgetter

from .errors import ValidationError

Num = int | Fraction | float

#: absolute slack allowed when float-valued masses must sum to one
MASS_TOL = 1e-12
_set = object.__setattr__  # sets an attribute of a ``Record``, whose ``setattr`` refuses


def parse_number(x: int | float | str | Fraction) -> Num:
    """Coerce a scalar to Fraction (exact inputs) or float.

    Strings accept both "num/den" and decimal forms and always parse
    exactly. Plain ints are promoted to Fraction so later arithmetic does
    not silently fall into float division. A decimal is refused when its
    mantissa digits plus |exponent| pass the int-to-text digit limit (4300
    when the interpreter sets none): its numerator or denominator might not
    print, and ``Fraction`` would spend minutes on ``1e100000000``.
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
        mantissa, e, exponent = x.lower().partition("e")
        try:
            if e and (sum(map(str.isdigit, mantissa)) + abs(int(exponent))
                      > (getattr(sys, "get_int_max_str_digits", int)() or 4300)):
                raise ValueError("exponent past the digit limit")
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse number {x!r}") from exc
    raise ValidationError(f"expected a number, got {type(x).__name__}")


def is_exact(x: Num) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def jsonable(x):
    """JSON form of a value: int or "num/den" when exact, float for other numbers, with
    "inf", "-inf" and "nan" for the non-finite ones, which RFC 8259 JSON cannot hold; str,
    bool and None as they are; containers element by element; a ``Record`` as a dict of the
    fields its class names in ``_fields``, in that order. Scalars, nearly every call, are
    tested first."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return float(x) if math.isfinite(x) else str(float(x))
    if isinstance(x, (int, str)) or x is None:  # bool is an int
        return x
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, Record):
        return dict(zip(x._fields, map(jsonable, x._values)))
    return jsonable(float(x))


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
    if type(x) is float and 0 < x < hi:  # a float inside the open range is finite
        return x
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
    """float(parse_number(x)), refused unless 0 <= x and float(x) < inf (an exact -1/10**400
    fails). ``what`` opens the message, and a ``{}`` in it shows x as given."""
    p = x if type(x) is float else parse_number(x)
    try:
        v = float(p)
    except OverflowError:  # an exact x past the float range
        v = math.inf
    if not (0 <= p and v < math.inf):
        raise ValidationError(f"{what.format(x)} must be non-negative and finite")
    return v


class Record:
    """Base of the immutable value types. Its ``__init__`` is their constructor: it sets each
    field that ``_fields`` names once, by position and then by keyword; a class that checks
    its values calls it from its own ``__init__``. Equality, hash, repr, pickle and ``jsonable``
    read the fields in that order."""

    __slots__ = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if len(values) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} values, "
                            f"got {len(values)}")
        for name, value in zip(fields, values):
            _set(self, name, value)
        for name in fields[len(values):]:
            if name not in named:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            _set(self, name, named.pop(name))
        if named:
            name = next(iter(named))
            raise TypeError(f"{type(self).__name__} got field {name!r} twice" if name in fields
                            else f"{type(self).__name__} has no field {name!r}")

    def __init_subclass__(cls):  # ``_values``: the tuple of the field values, read in C
        get = attrgetter(*cls._fields)  # the value itself when there is one field
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        shown = ", ".join(map("{}={!r}".format, self._fields, self._values))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Atom(Record):
    """Point mass p at location y."""

    __slots__ = _fields = ("y", "p")


class Segment(Record):
    """Constant density on the half-open interval [lo, hi)."""

    __slots__ = _fields = ("lo", "hi", "density")

    @property
    def mass(self) -> Num:
        return self.density * (self.hi - self.lo)


class MixingDistribution(Record):
    """Point masses plus a piecewise-constant density on [0, inf).

    Every scalar is read by ``parse_number`` (a string such as "1/7" is exact, an int
    becomes a Fraction, a bool is refused). Invariants: every scalar is finite, every atom
    has positive mass at a strictly positive location, segments are disjoint with
    non-negative density, and the total mass is one (exactly for rational
    data, within MASS_TOL otherwise). Atoms and segments are stored sorted
    by location. ``_live_segments``, ``_float_atoms`` and ``_means`` are worked out once
    and kept (the law is frozen and holds immutable numbers); they are not fields, so
    they stay out of equality, hashing, repr, JSON and pickles.
    """

    _fields = ("atoms", "segments")

    def __init__(self, atoms: tuple[Atom, ...] = (), segments: tuple[Segment, ...] = ()):
        def parsed(part):  # the part itself when each scalar is a Fraction or a finite float
            given = part._values
            if not all(isinstance(x, (Fraction, float)) for x in given):
                return parsed(type(part)(*map(parse_number, given)))
            for k, x in zip(part._fields, given):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ValidationError(f"{type(part).__name__.lower()} {k}={x!r} is not finite")
            return part

        atoms = tuple(sorted(map(parsed, atoms), key=lambda a: a.y))
        segments = tuple(sorted(map(parsed, segments), key=lambda s: s.lo))
        super().__init__(atoms, segments)
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
        if self.exact:
            if total != 1:
                raise ValidationError(f"total mass is {total}, must be exactly 1")
        elif abs(total - 1) > MASS_TOL:
            raise ValidationError(f"total mass is {total!r}, must be 1 within {MASS_TOL}")

    @property
    def exact(self) -> bool:  # the constructor leaves each scalar a Fraction or a float
        return not any(isinstance(x, float) for part in (*self.atoms, *self.segments)
                       for x in part._values)

    @property
    def total_mass(self) -> Num:
        return sum(a.p for a in self.atoms) + sum(s.mass for s in self.segments)

    @cached_property
    def _live_segments(self) -> tuple[tuple[float, float, float], ...]:
        """Segments as float (lo, hi, density) triples, less those of density 0.0 as a float.
        The law is refused when a segment lies past the float range, or when the triples
        misstate the segment mass by more than 1e-11, a tenth of ``pgf_eval``'s budget, as
        summed exactly: |(float(hi) - float(lo)) - (hi - lo)| * density, or a left-out mass."""
        live, missed = [], 0
        for s in (s for s in self.segments if s.density):
            try:
                lo, hi, d = float(s.lo), float(s.hi), float(s.density)
            except OverflowError:
                raise ValidationError(f"segment [{s.lo}, {s.hi}) of density {s.density} lies "
                                      "past the float range") from None
            if d:
                live.append((lo, hi, d))
            kept = Fraction(hi) - Fraction(lo) if d else 0  # the width that the triple holds
            missed += abs(kept - Fraction(s.hi) + Fraction(s.lo)) * Fraction(s.density)
            if missed > 1e-11:
                raise ValidationError(f"float endpoints misstate the segment mass by "
                                      f"{float(missed):.2g} > 1e-11 at segment [{s.lo}, {s.hi})")
        return tuple(live)

    @cached_property
    def _float_atoms(self) -> tuple[tuple[float, float], ...] | None:
        """Atoms as float (y, p) pairs, in order, or None when a location lies past the
        float range (there ``pgf_core._kernel`` rounds the exact value)."""
        try:
            return tuple((float(a.y), float(a.p)) for a in self.atoms)
        except OverflowError:
            return None

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

    to_json_dict = jsonable

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
            return tuple(kind(*(grab(entry, f, f"{key}[{i}]") for f in kind._fields))
                         for i, entry in enumerate(entries))

        return cls(parts("atoms", Atom), parts("segments", Segment))


def point_mass(y) -> MixingDistribution:
    """Unit mass at a single location."""
    return MixingDistribution(atoms=(Atom(y, 1),))


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


def integrate(q: MixingDistribution, at_atom: Callable[[Num], Num],
              over_segment: Callable[[Num, Num, Num], Num]) -> Num:
    """Sum an integral against q: atoms first, then live segments in order.

    Atom y contributes ``p * at_atom(y)``; a segment with positive density
    contributes ``over_segment(lo, hi, density)`` as a whole. The law holds int
    scalars as Fraction, so integer data integrates exactly, and the fixed
    summation order keeps float results reproducible bit for bit.
    """
    total: Num = 0
    for a in q.atoms:
        total += a.p * at_atom(a.y)
    for s in q.segments:
        if s.density > 0:
            total += over_segment(s.lo, s.hi, s.density)
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

