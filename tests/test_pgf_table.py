"""``pgf_eval``'s table of recent values: a kept value is the value the law gives, of the
kind it gives, for that law object and that kind of point only; the table stays bounded,
lets go of laws and keeps no refusal."""

import gc
import random
import sys
import threading
import weakref
from fractions import Fraction as F

import pytest

from shockpgf import (
    Atom,
    MixingDistribution,
    Segment,
    ValidationError,
    laplace,
    laplace_order_bounds,
    pgf_bounds,
    pgf_eval,
    resistance_gf,
)
from shockpgf.families import random_mid_mass, random_unit_support
from shockpgf.pgf_core import _RECENT_SIZE, _recent

ATOMS = MixingDistribution((Atom(F(1, 4), F(1, 4)), Atom(F(3, 4), F(3, 4))))
MIXED = MixingDistribution((Atom(F(1, 2), F(1, 4)),), (Segment(F(0), F(3, 4), F(1)),))
POINTS = (F(1, 2), 0.5, F(1, 7), 0.9, 1e-6)
REPORTS = ((pgf_eval, lambda z: (z,)), (resistance_gf, lambda z: (z,)),
           (pgf_bounds, lambda z: (z,)), (laplace, lambda z: (1, 1 / z - 1)),
           (laplace_order_bounds, lambda z: (1, 1 / z - 1)))


def _float_copy(q):
    return MixingDistribution(
        tuple(Atom(float(a.y), float(a.p)) for a in q.atoms),
        tuple(Segment(float(s.lo), float(s.hi), float(s.density)) for s in q.segments))


def _bits(x):
    return type(x), repr(x)


def _cold(fn, q, *args):
    _recent.clear()
    return fn(q, *args)


@pytest.mark.parametrize("q", [ATOMS, MIXED, _float_copy(ATOMS), _float_copy(MIXED)],
                         ids=["exact-atoms", "exact-mixed", "float-atoms", "float-mixed"])
@pytest.mark.parametrize("z", POINTS)
def test_warm_calls_return_the_cold_bits(q, z):
    """Each report, cold and then at every warmth the others leave, gives the same value by
    ``==`` and by ``repr``; a point of a law's transform is its p.g.f. point again."""
    for fn, args in REPORTS:
        cold = _cold(fn, q, *args(z))
        for warm in (fn(q, *args(z)), fn(q, *args(z))):
            assert warm == cold and _bits(warm) == _bits(cold), (fn.__name__, q, z)
    for fn, args in REPORTS:
        got = fn(q, *args(z))
        assert got == (want := _cold(fn, q, *args(z))) and _bits(got) == _bits(want)


@pytest.mark.parametrize("pair", [(F(1, 2), 0.5), (0.5, F(1, 2))], ids=["exact-first",
                                                                           "float-first"])
@pytest.mark.parametrize("q", [ATOMS, MIXED], ids=["atoms", "mixed"])
def test_a_fraction_and_its_equal_float_each_give_their_own_kind(q, pair):
    """F(1, 2) == 0.5 and both hash alike, but an exact law gives a Fraction at the one
    (on atoms alone) and a float at the other."""
    want = {type(z): _bits(_cold(pgf_eval, q, z)) for z in pair}
    _recent.clear()
    for z in pair * 3:
        assert _bits(pgf_eval(q, z)) == want[type(z)]
    assert type(pgf_eval(ATOMS, F(1, 2))) is F and type(pgf_eval(ATOMS, 0.5)) is float


@pytest.mark.parametrize("exact_first", [True, False])
@pytest.mark.parametrize("q", [ATOMS, MIXED], ids=["atoms", "mixed"])
def test_a_law_and_its_equal_float_copy_never_give_each_other_s_value(q, exact_first):
    """Dyadic laws equal their float copies and hash alike; at an exact z the exact law
    sums its atoms exactly (a Fraction on atoms alone) and the copy in floats."""
    laws = (q, _float_copy(q)) if exact_first else (_float_copy(q), q)
    assert laws[0] == laws[1] and hash(laws[0]) == hash(laws[1])
    for z in (F(1, 2), 0.5, F(2, 3)):
        want = [_bits(_cold(pgf_eval, law, z)) for law in laws]
        if q is ATOMS and type(z) is F:
            assert {want[0][0], want[1][0]} == {F, float}
        _recent.clear()
        for _ in range(3):
            assert [_bits(pgf_eval(law, z)) for law in laws] == want


def test_the_table_holds_at_most_its_size():
    _recent.clear()
    for k in range(1, 3 * _RECENT_SIZE):
        pgf_eval(MIXED, k / (3 * _RECENT_SIZE))
        assert len(_recent) == min(k, _RECENT_SIZE)
    assert _RECENT_SIZE == 32


def test_a_law_no_longer_referenced_is_freed_after_the_table_moves_on():
    q = _float_copy(MIXED)
    ref = weakref.ref(q)
    pgf_eval(q, 0.5)
    del q
    gc.collect()
    assert ref() is not None  # the kept entry holds it, so its id cannot be reused
    for k in range(1, _RECENT_SIZE + 1):
        pgf_eval(MIXED, k / (_RECENT_SIZE + 1))
    gc.collect()
    assert ref() is None


def test_a_refusal_is_not_kept():
    """A segment past the float range is refused on every call, not only the first."""
    q = MixingDistribution((Atom(F(1, 2), F(1, 2)),), (Segment(F(10**400), F(10**400 + 1),
                                                               F(1, 2)),))
    _recent.clear()
    for _ in range(2):
        with pytest.raises(ValidationError, match="past the float range"):
            pgf_eval(q, 0.5)
        assert not _recent


def test_four_threads_give_the_serial_values():
    """8 laws at 14 points overflow the table, so the threads keep evicting each other's
    entries while they read; every value is still the serial one."""
    rng = random.Random(27)
    laws = [gen(rng) for gen in (random_unit_support, random_mid_mass) * 2]
    laws += [_float_copy(q) for q in laws]
    points = [k / 10 for k in range(1, 10)] + [F(1, 3), F(1, 2), F(3, 4), 0.25, 0.75]
    tasks = [(i, z) for i in range(len(laws)) for z in points]
    serial = {(i, z, type(z)): _bits(_cold(pgf_eval, laws[i], z)) for i, z in tasks}
    got, errors = [], []

    def work(seed):
        order = tasks * 3
        random.Random(seed).shuffle(order)
        try:
            got.extend(((i, z, type(z)), _bits(pgf_eval(laws[i], z))) for i, z in order)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(got) == 4 * 3 * len(tasks)
    assert all(bits == serial[key] for key, bits in got)
    assert len(_recent) <= _RECENT_SIZE
