"""Complete-monotonicity tests, support classification, and p.g.f. bounds.

A sequence is completely monotone when every iterated forward decrement
stays non-negative; for tails of a count variable this is exactly the
decreasing-failure-rate property, and for a mixing distribution it is
equivalent to the support sitting inside (0, 1]. The helpers here make
those statements checkable: difference tables (exact for rational input),
interval masses, and the two-sided geometric bounds on the mixture p.g.f.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import accumulate, compress, count, pairwise, repeat, starmap, takewhile, tee
from operator import eq, floordiv, gt, le, mul, sub

from .errors import ValidationError
from .measures import (MixingDistribution, Num, Record, csv_text, is_exact, jsonable,
                       mass_on, parse_number, require_int, require_positive)
from .pgf_core import TailSequence, _kernel, pgf_eval

VERDICT_NOT_PGF = "not_pgf_mass_at_or_beyond_2"
VERDICT_UNIT_SUPPORT = "sdfr_support_in_unit"
VERDICT_CANDIDATE = "candidate_mass_in_1_2"


class DifferenceTable(Record):
    """Iterated forward decrements: row j applies u_k - u_{k+1} j times.

    Row j has len(u) - j entries; entry (j, k) is non-negative for every j
    and k exactly when u is completely monotone up to order J.
    """

    __slots__ = _fields = ("entries",)

    @property
    def J(self) -> int:
        return len(self.entries) - 1

    @property
    def exact(self) -> bool:  # every entry is rational: row 0 is, as the rest are its differences
        return all(map(is_exact, self.entries[0]))

    def to_csv(self) -> str:
        width = len(self.entries[0])
        return csv_text(["j", *(f"k={k}" for k in range(width))],
                        ([j, *row, *[None] * (width - len(row))]
                         for j, row in enumerate(self.entries)))

    def to_json_dict(self) -> dict:
        return {"J": self.J, "exact": self.exact, "rows": jsonable(self.entries)}


def _table(u, J) -> TailSequence:
    """u as a table; refuse an order J that is not a non-negative int or needs more entries."""
    vals = u.values if isinstance(u, TailSequence) else tuple(u)
    require_int(J, "order")
    if len(vals) < J + 1:
        raise ValidationError(
            f"need at least J+1 = {J + 1} entries to difference {J} times, have {len(vals)}"
        )
    t = u if isinstance(u, TailSequence) else TailSequence.from_values(vals)
    if not (t.exact or all(map(eq, vals, vals))):  # v == v fails only for NaN
        raise ValidationError(f"entry k={[v == v for v in vals].index(False)} is NaN")
    return t


def difference_table(u, J: int) -> DifferenceTable:
    """Build rows 0..J of iterated decrements of u."""
    t = _table(u, J)
    rows = [t.values]
    for _ in range(J):
        rows.append(tuple(starmap(sub, pairwise(rows[-1]))))
    return DifferenceTable(tuple(rows))


def _decrements(row, B: int):
    """The next row, B*a - b over each adjacent pair (a, b) of row, made lazily."""
    a, b = tee(row)
    next(b, None)
    return map(sub, map(mul, a, repeat(B)) if B > 1 else a, b)


def is_completely_monotone(u, J: int, tol: float = 0) -> tuple[bool, tuple[int, int] | None]:
    """Check all iterated decrements up to order J against -tol.

    Returns (verdict, first_violation) where the violation is the
    lexicographically first (j, k) with a decrement below -tol, or None.
    Rows are made one at a time and each is read in k order only up to its
    first violation. Rows 0 and 1 of a valid exact tail (``violation`` is
    None) are non-negative: the scan starts at row 2 and reads the entries
    only as far as row 2 needs them.

    All-exact input (ints and Fractions) is differenced in the integers R of
    ``TailSequence.integers``: row j+1 is B*R_j[k] - R_j[k+1], and cell (j, k)
    is R_j[k] * B**(K-k-j) / D, so at tol = 0 it fails when R_j[k] < 0. Below
    768 bits of D, where one subtraction a cell beats two operations on smaller
    integers, and at 0 < tol < inf, R is first put over D (B = 1) and a cell v
    fails when v < ceil(-tol*D), which is v/D < -tol in exact arithmetic. Any
    other input is differenced in its own arithmetic, as ``difference_table``
    does: a NaN entry is refused, and a NaN cell (inf - inf) is not below -tol.
    Use tol=0 for exact input; for float input a small tolerance absorbs
    cancellation noise. tol is an int, float or Fraction, not a bool.
    """
    if isinstance(tol, bool) or not isinstance(tol, (int, float, Fraction)):
        raise ValidationError(f"tolerance {tol!r} must be an int, float or Fraction")
    if not tol >= 0:
        raise ValidationError(f"tolerance {tol} must be non-negative")
    t = _table(u, J)
    if t.exact:
        row, D, B = t.integers
        limit = -tol if tol == math.inf else math.ceil(-Fraction(tol) * D)
        if B > 1 and (0 < tol < math.inf or D.bit_length() < 768):
            row, B = map(mul, row, accumulate(repeat(B, t.K), floordiv, initial=B**t.K)), 1
    else:
        row, B, limit = t.values, 1, -tol
    start = min(2, J) if t.exact and t.violation is None else 0
    for _ in range(start):
        row = _decrements(row, B)
    row = list(takewhile(partial(le, limit), row))  # read up to the first cell below limit
    if len(row) < len(t.values) - start:  # the start row holds no NaN: ``_table`` refuses it
        return False, (start, len(row))
    for j in range(start + 1, J + 1):
        row = list(_decrements(row, B))
        if not limit <= min(row):  # min is NaN when the row starts with NaN (inf - inf)
            if (k := next(compress(count(), map(partial(gt, limit), row)), -1)) >= 0:
                return False, (j, k)  # the first cell below limit: no NaN is below it
    return True, None


def tail_validity(u) -> tuple[bool, str | None]:
    """Whether u is a genuine tail sequence of a positive count, and the reason when it
    is not: ``TailSequence.violation``, with a plain sequence wrapped first."""
    if not isinstance(u, TailSequence):
        u = TailSequence(tuple(u))  # not ``from_values``: the empty table's violation names it
    return u.violation is None, u.violation


class SupportClassification(Record):
    """Where the mass of a mixing distribution sits, and what that implies."""

    __slots__ = _fields = ("verdict", "m01", "m12", "m2")

    def to_json_dict(self) -> dict:
        doc = jsonable(self)
        return {"verdict": doc.pop("verdict"), "masses": doc}


def classify_support(q: MixingDistribution) -> SupportClassification:
    """Split the mass of q at 1 and 2 with ``mass_on``, and name the resulting regime.

    Mass at or beyond 2 rules the mixture out as a p.g.f. outright; support
    inside (0, 1] makes the tails completely monotone; mass strictly
    between 1 and 2 is the undecided middle ground where the mixture may or
    may not be a p.g.f.
    """
    m = (mass_on(q, 0, 1, include_hi=True), mass_on(q, 1, 2),
         mass_on(q, 2, math.inf, include_lo=True))
    verdict = (VERDICT_NOT_PGF if m[2] > 0 else VERDICT_UNIT_SUPPORT if m[1] == 0
               else VERDICT_CANDIDATE)
    return SupportClassification(verdict, *m)


def expected_shocks(q: MixingDistribution) -> Num:
    """Mean count E[1/Y] under q, math.inf when the integral diverges.

    Atoms give 1/y, exact for exact y. A segment on [lo, hi) with lo > 0
    gives density * log1p((hi-lo)/lo), so that a narrow segment keeps its
    relative accuracy; a segment with positive density starting at 0 makes
    the integral diverge. Worked out once per law (``q._means``).
    """
    return q._means[1]


class PgfBounds(Record):
    """Two-sided geometric bounds around the mixture value at one point.

    ``upper_is_geometric`` records whether the upper curve is itself a
    first-success p.g.f., which requires the mean resistance to stay at or
    below one.
    """

    __slots__ = _fields = ("z", "lower", "phi", "upper", "upper_is_geometric", "mean_y",
                           "mean_shocks")


def pgf_bounds(q: MixingDistribution, z) -> PgfBounds:
    """Pinch phi(z) between the two geometric-type curves it always respects.

    The kernel is concave in y, so the mean resistance gives an upper
    bound; it is convex in 1/y, so the mean shock count gives a lower
    bound (zero when that mean diverges). Both are tight together exactly
    for a point mass at 1. The two means are worked out once per law, and the upper curve
    is ``kernel`` at E[Y] (positive, or 0.0 in floats) from the z that ``pgf_eval`` checked.
    """
    z = parse_number(z)
    phi = pgf_eval(q, z)  # refuses z outside (0, 1)
    mean_y, mean_shocks = q._means
    if not (is_exact(mean_y) or math.isfinite(mean_y)):  # a float segment's hi*hi may overflow
        raise ValidationError(f"kernel argument y={mean_y} is not finite")
    upper = _kernel(mean_y, z)
    try:
        lower = 0.0 if mean_shocks == math.inf else z / (z + (1 - z) * mean_shocks)
    except OverflowError:  # a float z against an exact mean past the float range
        zq = Fraction(z)
        lower = float(zq / (zq + (1 - zq) * mean_shocks))
    return PgfBounds(z, lower, phi, upper, bool(mean_y <= 1), mean_y, mean_shocks)


class LaplaceOrderBounds(Record):
    """Transform-order bounds at a single frequency s."""

    __slots__ = _fields = ("s", "lam", "lower", "value", "upper", "upper_is_exponential")


def _transform_point(lam, s) -> tuple[Num, Num, Num]:
    """(lam, s, z) with z = lam/(lam+s); refused, naming lam and s, unless both are positive
    and finite and z, which floats far apart in scale round to 0 or 1, lies in (0, 1)."""
    lam, s = require_positive(lam, "arrival rate lam"), require_positive(s, "frequency s")
    if not 0 < (z := lam / (lam + s)) < 1:
        raise ValidationError(f"lam/(lam+s) at lam={lam} and s={s} rounds to {z}, outside (0, 1)")
    return lam, s, z


def laplace_order_bounds(q: MixingDistribution, lam, s) -> LaplaceOrderBounds:
    """Bounds on the failure-time transform via the substitution z = lam/(lam+s).

    The same two-sided pinch as ``pgf_bounds``, read on the transform
    scale; the upper curve is the transform of an exponential time exactly
    when the mean resistance is at most one.
    """
    lam, s, z = _transform_point(lam, s)
    b = pgf_bounds(q, z)
    return LaplaceOrderBounds(s, lam, b.lower, b.phi, b.upper, b.upper_is_geometric)
