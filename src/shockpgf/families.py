"""Seeded generators of exact-rational mixing distributions.

These back the randomized stress tests: every output is built from
Fractions with small denominators so the downstream moment and difference
computations stay exact, and every generator takes a caller-owned
``random.Random`` so a fixed seed pins the whole distribution.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .measures import Atom, MixingDistribution, Segment, mix, point_mass
from .pgf_core import CounterexampleParams, counterexample_Q


def _rational_strictly_between(rng: random.Random, lo: Fraction, hi: Fraction,
                               max_den: int = 32) -> Fraction:
    while True:
        den = rng.randint(2, max_den)
        x = lo + (hi - lo) * Fraction(rng.randint(0, den), den)
        if lo < x < hi:
            return x


def random_unit_support(rng: random.Random) -> MixingDistribution:
    """Random exact law on (0, 1]: a few atoms plus disjoint density pieces.

    Component masses are integer weights normalized exactly, so the total
    is one by construction.
    """
    n_atoms = rng.randint(0, 3)
    n_segments = rng.randint(0 if n_atoms else 1, 2)
    weights = [rng.randint(1, 8) for _ in range(n_atoms + n_segments)]
    total = sum(weights)
    masses = [Fraction(w, total) for w in weights]

    atoms: list[Atom] = []
    taken: set[Fraction] = set()
    for i in range(n_atoms):
        while True:
            den = rng.randint(1, 32)
            y = Fraction(rng.randint(1, den), den)
            if y not in taken:
                taken.add(y)
                break
        atoms.append(Atom(y, masses[i]))

    cuts: set[Fraction] = set()
    while len(cuts) < 2 * n_segments:
        cuts.add(_rational_strictly_between(rng, Fraction(0), Fraction(1)))
    edges = sorted(cuts)
    segments = tuple(Segment(lo, hi, m / (hi - lo))
                     for lo, hi, m in zip(edges[::2], edges[1::2], masses[n_atoms:]))
    return MixingDistribution(tuple(atoms), segments)


def random_admissible_params(rng: random.Random) -> CounterexampleParams:
    """Stress-family parameters whose tails are monotone at every order.

    alpha stays away from 0 so high-order difference checks can actually
    see the alternating part within a modest table, and beta is capped so
    the first odd-to-even tail comparison holds; together with alpha < 2/7
    that covers every later comparison too.
    """
    alpha = _rational_strictly_between(rng, Fraction(1, 12), Fraction(2, 7), max_den=48)
    beta_cap = 1 / (1 + alpha * (3 + 2 * alpha))
    beta = Fraction(1, 3) + (beta_cap - Fraction(1, 3)) * Fraction(rng.randint(0, 30), 30)
    return CounterexampleParams(alpha, beta)


def random_mid_mass(rng: random.Random) -> MixingDistribution:
    """Valid-tailed law with positive mass strictly between 1 and 2.

    A stress-family member, optionally diluted by a unit-support component;
    the family share stays at least one half so its alternating signature
    remains visible.
    """
    base = counterexample_Q(random_admissible_params(rng))
    if rng.random() < 0.5:
        w = Fraction(rng.randint(5, 9), 10)
        return mix([(w, base), (1 - w, random_unit_support(rng))])
    return base


def random_with_mass_beyond_two(rng: random.Random) -> MixingDistribution:
    """Law carrying mass at or beyond 2, which cannot mix to a p.g.f."""
    w = Fraction(rng.randint(4, 16), 32)
    y0 = 2 + Fraction(rng.randint(0, 32), 32)
    return mix([(w, point_mass(y0)), (1 - w, random_unit_support(rng))])
