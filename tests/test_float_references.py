"""Float paths against an independent high-precision reference (mpmath)."""

import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest

from shockpgf import (
    Atom,
    MixingDistribution,
    Segment,
    exp_mixture_survival,
    expected_shocks,
    pgf_eval,
    rate_mixture,
)
from shockpgf.families import random_mid_mass, random_unit_support, random_with_mass_beyond_two

mp.mp.dps = 40


def _mp(x):
    x = F(x)
    return mp.mpf(x.numerator) / x.denominator


def _float_copy(q):
    return MixingDistribution(
        tuple(Atom(float(a.y), float(a.p)) for a in q.atoms),
        tuple(Segment(float(s.lo), float(s.hi), float(s.density)) for s in q.segments),
    )


def _family_laws(n):
    gens = (random_unit_support, random_mid_mass, random_with_mass_beyond_two)
    laws = [gens[i % 3](random.Random(i)) for i in range(n)]
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
