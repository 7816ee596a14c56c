"""Float paths against an independent high-precision reference (mpmath), and the
kernel quadrature bit for bit against the per-node version it replaced."""

import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shockpgf import (
    Atom,
    LaplaceOrderBounds,
    MixingDistribution,
    PgfBounds,
    Segment,
    exp_mixture_survival,
    expected_shocks,
    laplace,
    laplace_order_bounds,
    pgf_bounds,
    pgf_eval,
    rate_mixture,
    resistance_gf,
)
from shockpgf.errors import NumericError
from shockpgf.families import random_mid_mass, random_unit_support, random_with_mass_beyond_two
from shockpgf.measures import integrate, is_exact, parse_number
from shockpgf.pgf_core import _MAX_DEPTH, _NODES, _WEIGHTS, _recent

mp.mp.dps = 40


def _mp(x):
    x = F(x)
    return mp.mpf(x.numerator) / x.denominator


def _float_copy(q):
    return MixingDistribution(
        tuple(Atom(float(a.y), float(a.p)) for a in q.atoms),
        tuple(Segment(float(s.lo), float(s.hi), float(s.density)) for s in q.segments),
    )


GENERATORS = (random_unit_support, random_mid_mass, random_with_mass_beyond_two)


def _family_law(seed):
    return GENERATORS[seed % 3](random.Random(seed))


def _family_laws(n):
    laws = [_family_law(i) for i in range(n)]
    return laws + [_float_copy(q) for q in laws]


def _with_segment(lo, hi, atom_y=0.75):
    """Half the mass at atom_y, half spread evenly over [lo, hi)."""
    return MixingDistribution(atoms=(Atom(atom_y, 0.5),),
                              segments=(Segment(lo, hi, 0.5 / (hi - lo)),))


def _mean_shocks_ref(q):
    total = sum(_mp(a.p) / _mp(a.y) for a in q.atoms)
    for s in q.segments:
        total += _mp(s.density) * mp.log(_mp(s.hi) / _mp(s.lo))
    return total


FAMILIES = _family_laws(60)


def test_expected_shocks_matches_mpmath_on_families():
    finite = [q for q in FAMILIES if all(s.lo > 0 for s in q.segments if s.density > 0)]
    assert len(finite) >= 30
    for q in finite:
        assert abs(_mp(expected_shocks(q)) - _mean_shocks_ref(q)) <= 1e-13, q


@pytest.mark.parametrize("lo,hi", [(1e-12, 1.0), (1e-12, 0.5), (1e-9, 2.0), (0.5, 1.0)])
def test_expected_shocks_matches_mpmath_near_origin(lo, hi):
    q = _with_segment(lo, hi)
    assert abs(_mp(expected_shocks(q)) - _mean_shocks_ref(q)) <= 1e-13


@pytest.mark.parametrize("lo,width", [(0.5, 1e-9), (0.3, 1e-6), (1e-6, 1e-12), (1e-12, 1e-3)])
def test_expected_shocks_narrow_segments_keep_relative_accuracy(lo, width):
    # density * log(hi/lo) with log of a rounded ratio near 1 would lose up to
    # half the digits here; log1p((hi-lo)/lo) keeps a few ulps
    q = _with_segment(lo, lo + width)
    want = _mean_shocks_ref(q)
    assert abs(_mp(expected_shocks(q)) - want) <= 1e-15 * want


def test_expected_shocks_diverges_at_origin():
    assert expected_shocks(_with_segment(0.0, 1e-12)) == math.inf
    # a zero-density piece at the origin carries no mass and does not diverge
    q = MixingDistribution(atoms=(Atom(0.5, 1.0),), segments=(Segment(0.0, 1.0, 0.0),))
    assert expected_shocks(q) == 2.0


def _pgf_ref(q, z):
    z = _mp(z)
    total = sum(_mp(a.p) * z * _mp(a.y) / (1 - z + z * _mp(a.y)) for a in q.atoms)
    for s in q.segments:
        if s.density > 0:
            total += _mp(s.density) * mp.quad(lambda y: z * y / (1 - z + z * y),
                                              [_mp(s.lo), _mp(s.hi)])
    return total


PGF_LAWS = FAMILIES[:12] + FAMILIES[60:72] + [
    _with_segment(0.0, 1.0),
    _with_segment(0.0, 1e-6, atom_y=1.5),
    MixingDistribution(segments=(Segment(F(0), F(1, 2), F(1)), Segment(F(1, 2), F(2), F(1, 3)))),
]


@pytest.mark.parametrize("z", [1e-6, 0.5, 1 - 1e-6, F(1, 3)])
def test_pgf_eval_within_stated_tolerance(z):
    for q in PGF_LAWS:
        assert abs(_mp(pgf_eval(q, z)) - _pgf_ref(q, z)) <= 1e-10, q


def test_a_law_near_the_float_max_is_integrated():
    """A panel's midpoint 0.5 * (a + b) overflowed near the float max, so this law was
    refused with "quadrature did not converge on [1e+308, inf]"; halves are summed there."""
    q = MixingDistribution(segments=(Segment(1e308, 1.7e308, 1 / 7e307),))
    for z in (0.5, 1e-310, 1e-308):
        assert abs(_mp(pgf_eval(q, z)) - _pgf_ref(q, z)) <= 1e-10, z
    assert pgf_bounds(q, 0.5).phi == pgf_eval(q, 0.5)


def _survival_ref(g, t):
    t = _mp(t)
    total = sum(_mp(a.p) * mp.exp(-t * _mp(a.y)) for a in g.atoms)
    for s in g.segments:
        total += _mp(s.density) * (mp.exp(-t * _mp(s.lo)) - mp.exp(-t * _mp(s.hi))) / t
    return total


RATE_LAWS = [rate_mixture(q, lam) for q in FAMILIES if q.segments and max(
    s.hi for s in q.segments) <= 1 for lam in (F(1, 2), 2.0)]


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, F(3), 10.0])
def test_exp_mixture_survival_matches_mpmath(t):
    assert len(RATE_LAWS) >= 20
    for g in RATE_LAWS:
        assert abs(_mp(exp_mixture_survival(g, t)) - _survival_ref(g, t)) <= 1e-13, g


@pytest.mark.parametrize("t", [1e-9, 1e-6, 1e-3])
def test_exp_mixture_survival_small_t(t):
    """The difference exp(-t*lo) - exp(-t*hi) cancels as t -> 0; expm1 does not."""
    for g in RATE_LAWS:
        assert abs(_mp(exp_mixture_survival(g, t)) - _survival_ref(g, t)) <= 1e-15, g


# Reference: the kernel quadrature as it was first written, one integrand call per node
# and every Fraction converted on every call. The published phi, resistance, bounds and
# transform values are these bits; a faster path must reproduce them exactly, and a
# change of the arithmetic (say, the closed-form kernel) has to re-record the CLI
# golden corpora deliberately, not slip through here.
def _ref_panel(g, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * math.fsum(w * g(mid + half * x) for x, w in zip(_NODES, _WEIGHTS))


def _ref_refine(g, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left = _ref_panel(g, a, mid)
    right = _ref_panel(g, mid, b)
    if abs(whole - (left + right)) <= tol:
        return left + right
    if depth >= _MAX_DEPTH:
        raise NumericError(f"quadrature did not converge on [{a}, {b}]")
    return _ref_refine(g, a, mid, left, 0.5 * tol, depth + 1) + _ref_refine(
        g, mid, b, right, 0.5 * tol, depth + 1)


def _ref_quadrature(g, lo, hi, tol):
    a, b = float(lo), float(hi)
    return 0.0 if b <= a else _ref_refine(g, a, b, _ref_panel(g, a, b), tol, 0)


def _ref_pgf_eval(q, z):
    zf = float(z)
    seg_tol = 1e-10 / max(1, sum(s.density > 0 for s in q.segments))
    val = integrate(q, lambda y: z * y / (1 - z + z * y),
                    lambda lo, hi, d: d * _ref_quadrature(
                        lambda y: zf * y / (1 - zf + zf * y), lo, hi, seg_tol / float(d)))
    return val if is_exact(val) else min(max(val, 0.0), 1.0)


def _ref_resistance_gf(q, z):
    return (1 - _ref_pgf_eval(q, z)) / (1 - z)


def _ref_pgf_bounds(q, z):
    phi = _ref_pgf_eval(q, z)
    mean_y = integrate(q, lambda y: y, lambda lo, hi, d: d * ((hi * hi - lo * lo) / 2))
    if any(s.lo == 0 and s.density > 0 for s in q.segments):
        mean_shocks = math.inf
    else:
        mean_shocks = integrate(q, lambda y: 1 / y,
                                lambda lo, hi, d: d * math.log1p((hi - lo) / lo))
    upper = z * mean_y / (1 - z + z * mean_y)
    lower = 0.0 if mean_shocks == math.inf else z / (z + (1 - z) * mean_shocks)
    return PgfBounds(z, lower, phi, upper, bool(mean_y <= 1), mean_y, mean_shocks)


def _ref_laplace(q, lam, s):
    return _ref_pgf_eval(q, lam / (lam + s))


def _ref_laplace_order_bounds(q, lam, s):
    b = _ref_pgf_bounds(q, lam / (lam + s))
    return LaplaceOrderBounds(s, lam, b.lower, b.phi, b.upper, b.upper_is_geometric)


def _part(q, kind):
    """q itself, or its atoms or its live segments alone, rescaled to total mass one."""
    if kind == "atoms":
        total = sum(a.p for a in q.atoms)
        return MixingDistribution(tuple(Atom(a.y, a.p / total) for a in q.atoms)) if total else None
    if kind == "segments":
        live = [s for s in q.segments if s.density > 0]
        total = sum(s.mass for s in live)
        return MixingDistribution(segments=tuple(
            Segment(s.lo, s.hi, s.density / total) for s in live)) if total else None
    return q


def _bits(x):
    """repr tells every float apart (-0.0 from 0.0 too) and ``==`` every number."""
    return type(x), repr(x)


_unit = st.one_of(st.floats(0, 1, exclude_min=True, exclude_max=True),
                  st.fractions(0, 1, max_denominator=10**6).filter(lambda x: 0 < x < 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(("whole", "atoms", "segments")),
       as_float=st.booleans(), z=_unit, lam=st.sampled_from((F(1, 2), 1, 2.5)),
       s=st.one_of(st.floats(1e-3, 1e3), st.fractions(F(1, 100), 100, max_denominator=100)))
def test_float_reports_equal_the_per_node_reference_bit_for_bit(seed, kind, as_float, z, lam, s):
    """pgf_eval, resistance_gf, pgf_bounds, laplace and laplace_order_bounds return the
    reference's bits: on exact laws, float copies, atoms-only and segments-only laws, at
    float and exact z, both when the law's cached facts and ``pgf_eval``'s table of recent
    values are still empty and once they are filled."""
    q = _part(_family_law(seed), kind)
    if q is None:
        return
    if as_float:
        q = _float_copy(q)
    lam, s = parse_number(lam), parse_number(s)
    _recent.clear()
    cases = ((pgf_eval, _ref_pgf_eval, (z,)), (resistance_gf, _ref_resistance_gf, (z,)),
             (pgf_bounds, _ref_pgf_bounds, (z,)), (laplace, _ref_laplace, (lam, s)),
             (laplace_order_bounds, _ref_laplace_order_bounds, (lam, s)))
    for fn, ref, args in cases * 2:
        got, want = fn(q, *args), ref(q, *args)
        assert got == want and _bits(got) == _bits(want), (fn.__name__, q, args)
