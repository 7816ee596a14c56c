"""The integer form of a law: ``parse_number``'s plain-text path against ``Fraction``, and
the constructor, ``classify_support`` and ``tail_sequence`` against the Fraction checks
they replaced."""

import math
import sys
from itertools import count
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockpgf import (Atom, MixingDistribution, Segment, ValidationError, classify_support,
                      mass_on, parse_number, tail_sequence)
from shockpgf.measures import MASS_TOL

_LIMIT = getattr(sys, "get_int_max_str_digits", int)() or 4300

# Forms that ``Fraction(text)`` reads differently from one interpreter to the next:
# "1_0/3" fails on 3.10 and is 10/3 from 3.11, "1 /3" fails up to 3.11 and is 1/3 from 3.12.
PARSE_FORMS = [
    "7", "0", "10", "123456789012345678901234567890", "12/18", "0/5", "7/1",  # plain
    "007", "0/007", "007/014", "000",  # leading zeros
    "+1", "-1", "-0", "+1/2", "-1/2", "1/-2", "1/+2", "--1",  # signs
    " 1", "1 ", " 1/2 ", "\t3\n", "1/2\n", " 1/2",  # whitespace
    "1_0", "1_0/3", "1/3_0", "_1", "1_", "1__0",  # underscores
    "1 /3", "1/ 3", "1 / 3",  # spaces around "/"
    "١/٢", "٣", "²", "1/²", "１/２",  # non-ASCII digits
    "1/0", "0/0", "007/000",  # zero denominators
    "", "/", "/3", "1/", "1//2", "1/2/3", "0x10", "1.5/2", "abc",  # not numbers
    "1" * _LIMIT, "1" * (_LIMIT + 1), "1/" + "3" * (_LIMIT + 1),  # the int-to-text digit limit
    "3" * (_LIMIT + 1) + "/1", "6" + "0" * (_LIMIT - 1) + "/" + "4" + "0" * (_LIMIT - 1),
]


def _parse_agrees(text):
    """parse_number(text) is Fraction(text), in lowest terms, or the ValidationError that
    names text when Fraction refuses it."""
    try:
        want = F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValidationError) as refused:
            parse_number(text)
        assert str(refused.value) == f"cannot parse number {text!r}"
    else:
        got = parse_number(text)
        assert type(got) is F and (got.numerator, got.denominator) == (want.numerator,
                                                                       want.denominator)


@pytest.mark.parametrize("text", PARSE_FORMS)
def test_plain_text_path_agrees_with_fraction(text):
    _parse_agrees(text)


# ------------------------------------------------------ the checks as they were written


def _reference(atoms, segments):
    """The constructor as it was written on Fractions and floats: (first message, None)
    for a refused law, else (None, (atoms, segments, total mass, exact))."""
    def parsed(part):
        given = part._values
        if not all(isinstance(x, (F, float)) for x in given):
            return parsed(type(part)(*map(parse_number, given)))
        for k, x in zip(part._fields, given):
            if isinstance(x, float) and not math.isfinite(x):
                raise ValidationError(f"{type(part).__name__.lower()} {k}={x!r} is not finite")
        return part

    try:
        atoms = tuple(sorted(map(parsed, atoms), key=lambda a: a.y))
        segments = tuple(sorted(map(parsed, segments), key=lambda s: s.lo))
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
                    f"segments [{left.lo}, {left.hi}) and [{right.lo}, {right.hi}) overlap")
        total = sum(a.p for a in atoms) + sum(s.mass for s in segments)
        exact = not any(isinstance(x, float) for part in (*atoms, *segments)
                        for x in part._values)
        if exact:
            if total != 1:
                raise ValidationError(f"total mass is {total}, must be exactly 1")
        elif abs(total - 1) > MASS_TOL:
            raise ValidationError(f"total mass is {total!r}, must be 1 within {MASS_TOL}")
    except ValidationError as exc:
        return str(exc), None
    return None, (atoms, segments, total, exact)


def _reference_scaled(q, K):
    """``tail_sequence``'s (n_k, M, B) as it was built: B and M over the atoms and the
    segments of positive density, u_k = n_k / (M*(k+1)*B**(k+1)) the exact moment."""
    live = [s for s in q.segments if s.density > 0]
    B = math.lcm(*(a.y.denominator for a in q.atoms),
                 *(x.denominator for s in live for x in (s.lo, s.hi)))
    M = math.lcm(*(a.p.denominator for a in q.atoms), *(s.density.denominator for s in live))
    nums = []
    for k in range(K + 1):
        u = sum(a.p * (1 - a.y) ** k for a in q.atoms) + sum(
            s.density * ((1 - s.lo) ** (k + 1) - (1 - s.hi) ** (k + 1)) / (k + 1) for s in live)
        n = u * M * (k + 1) * B ** (k + 1)
        assert n.denominator == 1
        nums.append(n.numerator)
    return tuple(nums), M, B


def _bits(xs):
    return [(type(x), repr(x)) for x in xs]


BREAKS = (None, "negative-atom", "negative-segment", "origin", "mass-zero", "mass-negative",
          "mass-above-one", "duplicate", "empty", "reversed", "negative-density", "overlap",
          "total")


@st.composite
def _laws(draw):
    """(atoms, segments, break) of a law of total mass one with up to three atoms and three
    disjoint segments (some of density 0) on a grid of sixths in [0, 3], in a drawn order,
    and then at most one break of the kind named."""
    n_atoms, n_segments = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    grid = st.fractions(0, 3, max_denominator=6)
    ys = draw(st.lists(grid.filter(bool), min_size=n_atoms, max_size=n_atoms, unique=True))
    cuts = sorted(draw(st.lists(grid, min_size=2 * n_segments, max_size=2 * n_segments,
                                unique=True)))
    weights = draw(st.lists(st.integers(0, 6), min_size=n_atoms + n_segments,
                            max_size=n_atoms + n_segments))
    weights = [w if w or i >= n_atoms else 1 for i, w in enumerate(weights)]  # atoms hold mass
    total = sum(weights) or 1
    atoms = [Atom(y, F(w, total)) for y, w in zip(ys, weights)]
    segments = [Segment(lo, hi, F(w, total) / (hi - lo))
                for lo, hi, w in zip(cuts[::2], cuts[1::2], weights[n_atoms:])]
    kind = draw(st.sampled_from(BREAKS))
    i = draw(st.integers(0, 2))
    if atoms and kind in ("negative-atom", "origin", "mass-zero", "mass-negative",
                          "mass-above-one", "duplicate"):
        y, p = atoms[i % len(atoms)]._values
        atoms[i % len(atoms)] = {
            "negative-atom": Atom(-y, p), "origin": Atom(F(0), p), "mass-zero": Atom(y, F(0)),
            "mass-negative": Atom(y, -p), "mass-above-one": Atom(y, p + 1),
            "duplicate": Atom(y, p)}[kind]
        if kind == "duplicate":  # with a third atom there, refused on its mass if it is first
            atoms += [Atom(y, p), Atom(y, -p)]
    elif segments and kind in ("negative-segment", "empty", "reversed", "negative-density",
                               "overlap"):
        lo, hi, d = segments[i % len(segments)]._values
        segments[i % len(segments)] = {
            "negative-segment": Segment(-hi, hi, d), "empty": Segment(lo, lo, d),
            "reversed": Segment(hi, lo, d), "negative-density": Segment(lo, hi, -d - 1),
            "overlap": Segment(lo, hi, d)}[kind]
        if kind == "overlap":
            segments.append(Segment((lo + hi) / 2, hi + 1, F(0)))
    elif kind == "total" and (atoms or segments):
        if atoms:
            atoms[0] = Atom(atoms[0].y, atoms[0].p / 2)
        else:
            segments[0] = Segment(segments[0].lo, segments[0].hi, segments[0].density + 1)
    atoms = draw(st.permutations(atoms))
    segments = draw(st.permutations(segments))
    return atoms, segments, kind


def _copies(atoms, segments, bits):
    """The law as drawn, as text ("1/3") and ints, as floats, and with the scalars whose
    bit is set in ``bits``, in order, as floats."""
    def text(x):
        return str(x) if x.denominator > 1 else int(x)

    flags = (bits >> k & 1 for k in count())

    def mixed(part):
        return type(part)(*(float(x) if next(flags) else x for x in part._values))

    yield "exact", atoms, segments
    yield "text", [Atom(*map(text, a._values)) for a in atoms], [
        Segment(*map(text, s._values)) for s in segments]
    yield "float", [Atom(*map(float, a._values)) for a in atoms], [
        Segment(*map(float, s._values)) for s in segments]
    yield "mixed", list(map(mixed, atoms)), list(map(mixed, segments))


def test_construction_decides_as_the_fraction_checks_did():
    """Over drawn laws, their text, float and mixed copies: the same refusal and first
    message; for an accepted law the same atom and segment order, total mass and
    ``exact``, the masses of ``mass_on``, and the tails and, without segments of density 0,
    the ``_scaled`` that ``tail_sequence`` built before. Every break is met as a refusal."""
    refused = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(law=_laws(), bits=st.integers(0, 2**20 - 1))
    def check(law, bits):
        atoms, segments, kind = law
        for mode, a, s in _copies(atoms, segments, bits):
            message, accepted = _reference(a, s)
            try:
                q = MixingDistribution(a, s)
            except ValidationError as exc:
                assert (str(exc), mode) == (message, mode)
                refused.add(kind if mode == "exact" else None)
                continue
            assert message is None, (mode, kind, message)
            ref_atoms, ref_segments, total, exact = accepted
            assert (q.atoms, q.segments, q.exact) == (ref_atoms, ref_segments, exact)
            assert _bits(x for part in (*q.atoms, *q.segments) for x in part._values) == _bits(
                x for part in (*ref_atoms, *ref_segments) for x in part._values)
            assert _bits([q.total_mass]) == _bits([total])
            c = classify_support(q)
            assert _bits([c.m01, c.m12, c.m2]) == _bits([
                mass_on(q, 0, 1, include_hi=True), mass_on(q, 1, 2),
                mass_on(q, 2, math.inf, include_lo=True)])
            if q.exact:
                t = tail_sequence(q, 5)
                nums, M, B = _reference_scaled(q, 5)
                assert t.values == tuple(F(n, M * (k + 1) * B ** (k + 1))
                                         for k, n in enumerate(nums))
                if all(s.density for s in q.segments):
                    assert t._scaled == (nums, M, B)

    check()
    assert refused >= set(BREAKS[1:])
