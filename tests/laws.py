"""Laws shared by the property tests: a seeded ``families`` law and a law's float copy."""

import random

from shockpgf import Atom, MixingDistribution, Segment, ValidationError
from shockpgf.families import random_mid_mass, random_unit_support, random_with_mass_beyond_two


def family_law(seed):
    """A law of one of the three ``families`` regimes, picked and drawn from ``seed``."""
    rng = random.Random(seed)
    return rng.choice((random_unit_support, random_mid_mass, random_with_mass_beyond_two))(rng)


def float_copy(q):
    """q with every scalar a float, or None when the rounded scalars are refused."""
    try:
        return MixingDistribution(tuple(Atom(float(a.y), float(a.p)) for a in q.atoms),
                                  tuple(Segment(*map(float, s._values)) for s in q.segments))
    except ValidationError:
        return None
