"""Difference tables, complete monotonicity, support classes, and bounds."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shockpgf import (
    VERDICT_CANDIDATE,
    VERDICT_NOT_PGF,
    VERDICT_UNIT_SUPPORT,
    Atom,
    MixingDistribution,
    Segment,
    TailSequence,
    ValidationError,
    classify_support,
    counterexample_Q,
    counterexample_params,
    difference_table,
    expected_shocks,
    is_completely_monotone,
    kernel,
    laplace,
    laplace_order_bounds,
    mass_on,
    mix,
    pgf_bounds,
    pgf_eval,
    point_mass,
    tail_sequence,
    tail_validity,
)
from shockpgf.families import (
    random_mid_mass,
    random_unit_support,
    random_with_mass_beyond_two,
)

from laws import family_law, float_copy

CE = counterexample_Q(counterexample_params("1/7", "2/3"))


def test_difference_table_recurrence():
    u = (F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5))
    t = difference_table(u, 3)
    assert t.entries[0] == u
    for j in range(1, 4):
        for k in range(len(u) - j):
            assert t.entries[j][k] == t.entries[j - 1][k] - t.entries[j - 1][k + 1]
    # geometric sequence: iterated decrements stay geometric
    g = difference_table(tuple(F(1, 2) ** k for k in range(8)), 4)
    assert g.entries[3][2] == F(1, 32)


def test_difference_table_validation():
    with pytest.raises(ValidationError):
        difference_table((1, 2), 5)
    with pytest.raises(ValidationError):
        difference_table((1, 2), -1)


def test_difference_table_csv_layout():
    t = difference_table((F(1), F(1, 2), F(1, 4)), 2)
    lines = t.to_csv().splitlines()
    assert lines[0] == "j,k=0,k=1,k=2"
    assert lines[1] == "0,1,1/2,1/4"
    assert lines[2] == "1,1/2,1/4,"  # shorter rows padded
    assert lines[3] == "2,1/4,,"


@pytest.mark.parametrize(
    "seq",
    [
        tuple(F(1, k + 1) for k in range(30)),
        tuple(F(1, 2) ** k for k in range(30)),
        (F(1),) + tuple(F(0) for _ in range(12)),
    ],
)
def test_completely_monotone_examples(seq):
    ok, first = is_completely_monotone(seq, min(12, len(seq) - 1), 0)
    assert ok and first is None


def test_counterexample_not_completely_monotone():
    t = tail_sequence(CE, 12)
    ok, first = is_completely_monotone(t, 4, 0)
    assert not ok
    assert first == (2, 1)
    assert difference_table(t, 2).entries[2][1] == F(-121, 4116)


def test_cm_tolerance_absorbs_float_noise():
    u = [1.0] * 16
    u[7] -= 5e-10  # sub-tolerance dip
    ok, _ = is_completely_monotone(u, 2, 1e-9)
    assert ok
    strict_ok, first = is_completely_monotone(u, 2, 0)
    assert not strict_ok and first == (1, 7)


def test_cm_tolerance_on_exact_input():
    u = [F(1)] * 16
    u[7] -= F(1, 10**10)
    assert is_completely_monotone(u, 2, 1e-9) == (True, None)
    assert is_completely_monotone(u, 2, F(1, 10**10)) == (True, None)
    assert is_completely_monotone(u, 2, F(1, 10**10 + 1)) == (False, (1, 7))
    assert is_completely_monotone(u, 2, 0) == (False, (1, 7))
    assert is_completely_monotone(u, 2, math.inf) == (True, None)


def test_cm_rejects_nan_tolerance():
    # every comparison with NaN is false, so a NaN tolerance would pass any sequence
    with pytest.raises(ValidationError, match="tolerance"):
        is_completely_monotone((F(1), F(2)), 1, math.nan)


@pytest.mark.parametrize("tol, message", [
    *((bad, "must be an int, float or Fraction") for bad in ("abc", None, True, False, "0", [0])),
    *((bad, f"^tolerance {bad} must be non-negative$") for bad in (-1, F(-1, 2), math.nan))])
def test_cm_refuses_a_tolerance_that_is_not_a_non_negative_number(tol, message):
    """A bool is not a number here, as it is no other number of the package."""
    with pytest.raises(ValidationError, match=message):
        is_completely_monotone((F(1), F(1, 2)), 1, tol)


def test_cm_check_reads_past_a_nan_cell():
    """A row that starts with NaN (inf - inf) still has its negative cells found: NaN is
    the row's min when it comes first, and no comparison with it is true."""
    u = [math.inf, math.inf, 1.0, 5.0]
    assert [list(map(repr, row)) for row in difference_table(u, 1).entries] == [
        ["inf", "inf", "1.0", "5.0"], ["nan", "inf", "-4.0"]]
    assert is_completely_monotone(u, 1) == (False, (1, 2))
    assert is_completely_monotone(u, 1, 1e-9) == (False, (1, 2))
    assert is_completely_monotone(u, 0) == (True, None)
    assert is_completely_monotone([1.0, math.inf, math.inf, 5.0, 1.0], 2) == (False, (1, 0))
    assert is_completely_monotone([-math.inf, -math.inf, -1.0], 1) == (False, (0, 0))


def _first_violation_by_table(u, J, tol):
    """Reference verdict: scan the whole difference table row by row."""
    for j, row in enumerate(difference_table(u, J).entries):
        for k, v in enumerate(row):
            if v < -tol:
                return False, (j, k)
    return True, None


_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=40)
# moment sequences sum w * (1 - y)**k: CM for y in [0, 1], failing deep in the table beyond
_moments = st.builds(
    lambda atoms, n: [sum(w * (1 - y) ** k for y, w in atoms) for k in range(n)],
    st.lists(st.tuples(st.fractions(0, 2, max_denominator=12), st.integers(1, 5)),
             min_size=1, max_size=3),
    st.integers(1, 14),
)
_exact_seqs = st.one_of(
    st.lists(st.one_of(_fractions, st.integers(-3, 3)), min_size=1, max_size=14), _moments
)
_float_seqs = st.one_of(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=14),
    _moments.map(lambda u: [float(v) for v in u]),
    # inf - inf makes NaN cells, which are never below -tol
    st.lists(st.one_of(st.floats(-2, 2, allow_nan=False), st.sampled_from((math.inf, -math.inf))),
             min_size=1, max_size=8),
)
_tols = st.one_of(st.sampled_from((0, 0.0, math.inf)), st.fractions(0, 1, max_denominator=1000),
                  st.floats(0, 1))


class _Draws:
    """Stands in for ``st.data()`` in an explicit example: hands out the given draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def draw(self, strategy, label=None):
        return self.draws.pop(0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(u=st.one_of(_exact_seqs, _float_seqs), tol=_tols, data=st.data())
# tol > 0 with the first violation in the last and the next-to-last cell of row 1
@example(u=[F(1), F(1, 2), F(1, 4), F(1, 2)], tol=F(1, 10), data=_Draws(1))
@example(u=[F(1), F(1, 2), F(1, 4), F(1, 2), F(1, 2)], tol=F(1, 10), data=_Draws(1))
@example(u=[F(1), F(2), F(-3)], tol=math.inf, data=_Draws(2))
@example(u=[math.inf, math.inf, 1.0, 5.0], tol=0, data=_Draws(1))  # row 1 is (nan, inf, -4.0)
def test_cm_check_matches_full_table_scan(u, tol, data):
    """Early exit and the integer common denominator change no verdict."""
    J = data.draw(st.integers(0, len(u) - 1))
    assert is_completely_monotone(u, J, tol) == _first_violation_by_table(u, J, tol)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), K=st.integers(1, 60), tol=_tols, data=st.data())
# tol > 0 with the first violation at (4, 1), where B**(K-k-j) is 1 and then B
@example(seed=0, K=5, tol=F(1, 1000), data=_Draws(4))
@example(seed=0, K=6, tol=F(1, 1000), data=_Draws(4))
@example(seed=5, K=2, tol=math.inf, data=_Draws(1))  # fails at (1, 1) at tol = 1/1000
@example(seed=1, K=60, tol=0, data=_Draws(60))  # a full table in R, D of 910 bits
def test_cm_check_matches_full_table_scan_on_tails(seed, K, tol, data):
    """With tol > 0 the limit ceil(-tol*D) rests on a denominator that is not the least."""
    rng = random.Random(seed)
    gen = rng.choice((random_unit_support, random_mid_mass, random_with_mass_beyond_two))
    u = tail_sequence(gen(rng), K)
    J = data.draw(st.integers(0, K))
    assert is_completely_monotone(u, J, tol) == _first_violation_by_table(u.values, J, tol)


# invalid tables whose first violation at tol = 0 is a negative entry in row 0
_INVALID_TABLES = (
    tail_sequence(point_mass("5/2"), 6),
    tail_sequence(mix([(F(1, 2), point_mass("1/2")), (F(1, 2), point_mass("9/4"))]), 8),
    *(tail_sequence(random_with_mass_beyond_two(random.Random(s)), 24) for s in range(4)),
    TailSequence.from_values((F(1), F(-1, 2), F(1, 4), F(0))),
    TailSequence.from_values((F(1), F(1, 2), F(-1, 10**9), F(0), F(0))),
)


@pytest.mark.parametrize("t", _INVALID_TABLES)
@pytest.mark.parametrize("tol", (0, F(1, 3), 0.25, math.inf))
@pytest.mark.parametrize("J", (0, 1, 2, 3))
def test_cm_check_matches_full_table_scan_on_invalid_tables(t, tol, J):
    """A table with a violation is scanned from row 0, whatever J and tol."""
    assert t.violation is not None and _first_violation_by_table(t.values, 3, 0)[1][0] == 0
    assert is_completely_monotone(t, J, tol) == _first_violation_by_table(t.values, J, tol)


def test_cm_check_order_guard_matches_difference_table():
    for J, match in ((-1, "non-negative integer"), (True, "non-negative integer"),
                     (5, "need at least J\\+1 = 6 entries")):
        with pytest.raises(ValidationError, match=match):
            difference_table((F(1), F(1, 2)), J)
        with pytest.raises(ValidationError, match=match):
            is_completely_monotone((F(1), F(1, 2)), J)


def test_tail_validity_wraps_reason():
    assert tail_validity((F(1), F(1, 2))) == (True, None)
    ok, reason = tail_validity(tail_sequence(point_mass("5/2"), 4))
    assert not ok and "negative" in reason


def test_classify_support_regimes():
    assert classify_support(point_mass("1/2")).verdict == VERDICT_UNIT_SUPPORT
    assert classify_support(point_mass(1)).verdict == VERDICT_UNIT_SUPPORT
    c = classify_support(CE)
    assert c.verdict == VERDICT_CANDIDATE
    assert (c.m01, c.m12, c.m2) == (F(1, 3), F(2, 3), F(0))
    assert classify_support(point_mass(2)).verdict == VERDICT_NOT_PGF
    assert classify_support(point_mass("5/2")).verdict == VERDICT_NOT_PGF
    # an atom exactly at 2 counts as mass at or beyond 2
    two = mix([(F(1, 2), point_mass(2)), (F(1, 2), point_mass("1/2"))])
    assert classify_support(two).verdict == VERDICT_NOT_PGF


def test_classification_json():
    doc = classify_support(CE).to_json_dict()
    assert doc["verdict"] == VERDICT_CANDIDATE
    assert doc["masses"] == {"m01": "1/3", "m12": "2/3", "m2": 0}


def test_expected_shocks_values():
    assert expected_shocks(point_mass("1/2")) == 2
    assert expected_shocks(point_mass(1)) == 1
    assert expected_shocks(CE) == math.inf
    v = expected_shocks(MixingDistribution(segments=(Segment("1/2", 1, 2),)))
    assert abs(v - 2 * math.log(2)) < 1e-10


def test_hausdorff_forward_seeded():
    """Unit support makes the tail sequence completely monotone, exactly."""
    for seed in range(25):
        q = random_unit_support(random.Random(seed))
        ok, first = is_completely_monotone(tail_sequence(q, 40), 12, 0)
        assert ok, (seed, first)


def test_converse_seeded():
    """Mass in (1,2) with valid tails forces a finite CM violation."""
    for seed in range(25):
        q = random_mid_mass(random.Random(seed))
        assert mass_on(q, 1, 2) > 0
        t = tail_sequence(q, 80)
        assert tail_validity(t)[0], seed
        ok, first = is_completely_monotone(t, 40, 0)
        assert not ok and first is not None, seed


def test_beyond_two_tails_invalid():
    for seed in range(25):
        q = random_with_mass_beyond_two(random.Random(seed))
        ok, reason = tail_validity(tail_sequence(q, 50))
        assert not ok, seed


def test_monotone_mass_bound():
    """Mass above 1 never exceeds the first pmf mass q_1 = u_0 - u_1."""
    for seed in range(20):
        q = random_mid_mass(random.Random(seed))
        u = tail_sequence(q, 60).values
        assert mass_on(q, 1, math.inf) <= u[0] - u[1], seed


def test_pgf_bounds_pinch_counterexample():
    b = pgf_bounds(CE, F(1, 2))
    assert b.upper == F(37, 79)
    assert b.mean_y == F(37, 42)
    assert b.mean_shocks == math.inf and b.lower == 0
    assert b.lower <= b.phi <= float(b.upper)
    assert b.upper_is_geometric


def test_pgf_bounds_equality_at_unit_atom():
    pm = point_mass(1)
    for k in range(1, 20):
        z = F(k, 20)
        b = pgf_bounds(pm, z)
        assert b.lower == b.phi == b.upper == z


def test_pgf_bounds_tight_for_any_atom():
    # a single atom makes Jensen's inequality an equality on both sides
    b = pgf_bounds(point_mass("1/2"), F(1, 2))
    assert b.lower == b.phi == b.upper == F(1, 3)


def test_pgf_bounds_seeded_grid():
    grid = [F(k, 20) for k in range(1, 20)]
    for seed in range(25):
        q = random_unit_support(random.Random(seed))
        assert mass_on(q, 0, 1, include_hi=True) == 1
        for z in grid:
            b = pgf_bounds(q, z)
            assert float(b.lower) <= float(b.phi) + 1e-9, (seed, z)
            assert float(b.phi) <= float(b.upper) + 1e-9, (seed, z)
            assert b.upper_is_geometric  # EY <= 1 on unit support


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6),
       z=st.one_of(st.fractions(0, 1, max_denominator=1000).filter(lambda z: 0 < z < 1),
                   st.floats(0, 1, exclude_min=True, exclude_max=True)))
def test_pgf_bounds_upper_is_the_kernel_at_the_mean(seed, z):
    """The upper curve is ``kernel`` at E[Y], in value, type and bits, for exact laws
    and their float copies at exact and float z."""
    q = family_law(seed)
    for law in (q, float_copy(q)):
        if law is not None:
            upper, ref = pgf_bounds(law, z).upper, kernel(law._means[0], z)
            assert upper == ref and type(upper) is type(ref) and repr(upper) == repr(ref)


@pytest.mark.parametrize("segment", [(0.0, 1e200, 1e-200), (1e200, 2e200, 1e-200)],
                         ids=["inf", "nan"])
def test_pgf_bounds_refuses_a_float_mean_that_is_not_finite(segment):
    """E[Y] reads hi*hi, which overflows past about 1.3e154 in floats."""
    q = MixingDistribution(segments=(Segment(*segment),))
    with pytest.raises(ValidationError, match="is not finite"):
        pgf_bounds(q, 0.5)


def test_laplace_order_bounds_matches_pgf_bounds():
    lam, s = F(2), F(1)
    lb = laplace_order_bounds(CE, lam, s)
    pb = pgf_bounds(CE, lam / (lam + s))
    assert (lb.lower, lb.value, lb.upper) == (pb.lower, pb.phi, pb.upper)
    assert lb.upper_is_exponential == pb.upper_is_geometric
    one = laplace_order_bounds(point_mass(1), 1, 1)
    assert one.lower == one.value == one.upper == F(1, 2)


def test_laplace_order_bounds_validation():
    with pytest.raises(ValidationError):
        laplace_order_bounds(CE, 0, 1)
    with pytest.raises(ValidationError):
        laplace_order_bounds(CE, 1, 0)


def test_unit_support_verdict_implies_cm():
    """The classifier's unit-support verdict certifies CM tails."""
    for seed in range(10):
        q = random_unit_support(random.Random(1000 + seed))
        if classify_support(q).verdict == VERDICT_UNIT_SUPPORT:
            ok, _ = is_completely_monotone(tail_sequence(q, 30), 10, 0)
            assert ok


@pytest.mark.parametrize("y, value", [("1e-400", 0.0), ("1e400", 1.0)])
def test_float_bounds_on_an_atom_past_the_float_range(y, value):
    """An exact atom below or above the float range meets a float z: the float phi and
    both bounds are the exact values rounded, 0.0 or 1.0; an exact z stays exact."""
    q = point_mass(y)
    b = pgf_bounds(q, 0.5)
    assert (b.lower, b.phi, b.upper) == (value, value, value)
    lb = laplace_order_bounds(q, 1, 1.0)
    assert (lb.lower, lb.value, lb.upper) == (value, value, value)
    exact = pgf_bounds(q, F(1, 2))
    assert exact.lower == exact.phi == exact.upper == F(1, 1 + 1 / F(y))


BIG, TINY = F(10**400), F(1, 10**400)
# law, then phi at z = 0.3 and at z = 1/3, and laplace at lam = 1 and s = 0.5 and s = 1/2,
# as the per-atom exact kernel gave them before the float atom pairs; None marks an exact
# value, which is the exact sum over the atoms
FAR_ATOM_LAWS = [
    (MixingDistribution(atoms=(Atom(BIG, F(1, 2)), Atom(TINY, F(1, 4))),
                        segments=(Segment(F(0), F(1, 2), F(1, 2)),)),
     (0.523484649818883, 0.5268564486857903), (0.5767132048600137, 0.5767132048600137)),
    (MixingDistribution(atoms=(Atom(BIG, F(1, 4)), Atom(TINY, F(1, 4)), Atom(F(1, 3), F(1, 2)))),
     (0.3125, None), (0.44999999999999996, None)),
    (MixingDistribution(atoms=(Atom(TINY, F(1, 2)), Atom(F(3, 2), F(1, 2)))),
     (0.1956521739130435, None), (0.37499999999999994, None)),
]


@pytest.mark.parametrize("q, phis, laplaces", FAR_ATOM_LAWS)
def test_reports_beside_atoms_past_the_float_range(q, phis, laplaces):
    """Exact atoms at 10**400 and 10**-400 beside ordinary atoms and a segment, at float
    and exact z: pgf_eval, pgf_bounds and laplace keep their values; a float z reads the
    exact kernel of each atom rounded once, and an exact z on atoms alone stays exact."""
    def exact_phi(z):
        return sum(a.p * z * a.y / (1 - z + z * a.y) for a in q.atoms)

    for z, want in zip((0.3, F(1, 3)), phis):
        got = pgf_eval(q, z)
        assert got == (exact_phi(z) if want is None else want)
        assert type(got) is (F if want is None else float)
        assert pgf_bounds(q, z).phi == got
    assert pgf_bounds(q, 0.3).lower == 0.0
    for s, want in zip((0.5, F(1, 2)), laplaces):
        got = laplace(q, 1, s)
        assert got == (exact_phi(F(2, 3)) if want is None else want)
        assert type(got) is (F if want is None else float)
