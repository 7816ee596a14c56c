"""Kernel, p.g.f. evaluation, tails, pmfs, and the stress family."""

import math
import pickle
import random
import signal
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from shockpgf import (
    Atom,
    MixingDistribution,
    Segment,
    ShockModelParams,
    ValidationError,
    classify_support,
    counterexample_Q,
    counterexample_params,
    counterexample_tail,
    counterexample_tail_sequence,
    difference_table,
    geometric_pmf,
    is_completely_monotone,
    kernel,
    lemma22_coefficients,
    mass_on,
    mix,
    monotonicity_condition,
    pgf_bounds,
    pgf_eval,
    point_mass,
    resistance_gf,
    survival,
    tail_sequence,
    tail_validity,
)
from shockpgf.families import random_admissible_params, random_unit_support
from shockpgf.pgf_core import CounterexampleParams, PmfSequence, TailSequence, _lowest, require_tail

from laws import family_law, float_copy

P17 = counterexample_params("1/7", "2/3")
CE = counterexample_Q(P17)

# phi(1/2) for the (1/7, 2/3) family via the log antiderivative of the kernel
PHI_HALF_ORACLE = 1 - math.log(2) / 3 - (14 / 3) * math.log(15 / 14)


def test_kernel_fixed_points():
    for z in (F(1, 4), F(1, 2), F(9, 10)):
        assert kernel(1, z) == z
        assert kernel(0, z) == 0
    assert kernel("1/2", "1/2") == F(1, 3)
    assert kernel(1e6, 0.5) > 1 - 1e-5  # saturates toward 1
    assert kernel(F(10**400), F(1, 2)) == F(10**400, 10**400 + 1)  # exact past the float range
    assert kernel(F(10**400), 0.5) == 1.0  # a float z: the exact value, rounded once
    assert kernel(F(1, 10**400), 0.5) == 0.0
    with pytest.raises(ValidationError):
        kernel(-1, 0.5)
    for y in (math.nan, math.inf):  # both gave nan through z*y / (1 - z + z*y)
        with pytest.raises(ValidationError, match="is not finite"):
            kernel(y, 0.5)
    with pytest.raises(ValidationError):
        kernel(1, 0)


def test_kernel_monotone_and_concave_in_y():
    z = 0.37
    ys = [0.1 * i for i in range(1, 20)]
    vals = [kernel(y, z) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for lo, hi in zip(ys, ys[2:]):
        mid = kernel((lo + hi) / 2, z)
        assert mid >= (kernel(lo, z) + kernel(hi, z)) / 2


def test_pgf_eval_atoms_exact():
    pm = point_mass(1)
    for z in (F(1, 4), F(1, 2), F(3, 4)):
        assert pgf_eval(pm, z) == z
    assert pgf_eval(point_mass("1/2"), F(1, 2)) == F(1, 3)
    with pytest.raises(ValidationError):
        pgf_eval(pm, 1)


def test_pgf_eval_counterexample_against_log_oracle():
    assert abs(pgf_eval(CE, 0.5) - PHI_HALF_ORACLE) < 1e-10


def test_pgf_eval_counterexample_against_tail_series():
    # phi(z) = 1 - (1-z) * sum tails z^k, summed far enough for 1e-8
    z = 0.5
    t = counterexample_tail_sequence(P17, 120)
    series = sum(float(v) * z**k for k, v in enumerate(t.values))
    rem_bound = float(t.values[-1]) * z**121 / (1 - z)
    assert rem_bound < 1e-9
    assert abs(pgf_eval(CE, z) - (1 - (1 - z) * series)) < 1e-8


def test_pgf_eval_monotone_and_dominated():
    rng = random.Random(23)
    grid = [F(k, 10) for k in range(1, 10)]
    for q in (CE, random_unit_support(rng), random_unit_support(rng)):
        vals = [pgf_eval(q, z) for z in grid]
        assert all(b > a - 1e-12 for a, b in zip(vals, vals[1:]))
        m01 = mass_on(q, 0, 1, include_hi=True)
        m1inf = mass_on(q, 1, math.inf)
        for z, v in zip(grid, vals):
            assert float(v) <= float(z * m01 + m1inf) + 1e-10


def test_tail_sequence_atoms():
    assert tail_sequence(point_mass("1/2"), 6).values == tuple(F(1, 2) ** k for k in range(7))
    assert tail_sequence(point_mass(1), 4).values == (F(1), F(0), F(0), F(0), F(0))


def test_tail_sequence_counterexample_frozen_values():
    t = tail_sequence(CE, 4)
    assert t.exact
    assert t.values == (F(1), F(5, 42), F(17, 147), F(341, 4116), F(801, 12005))


def test_closed_form_matches_moments_for_seeded_params():
    rng = random.Random(99)
    for p, K in [(random_admissible_params(rng), 30) for _ in range(5)] + [(P17, 1000)]:
        t = counterexample_tail_sequence(p, K)  # the moments of counterexample_Q(p)
        assert t.values == tuple(counterexample_tail(p, k) for k in range(K + 1))


def test_tail_sequence_exact_for_int_scalars():
    # int endpoints and densities are exact data, so the tails are rational
    t = tail_sequence(MixingDistribution(segments=(Segment(0, 1, 1),)), 3)
    assert t.exact and t.values == (F(1), F(1, 2), F(1, 3), F(1, 4))


def _hausdorff_moment(q, j, k):
    """The integral of y**j * (1 - y)**k against q, expanding (1 - y)**k binomially."""
    total = sum(a.p * a.y**j * (1 - a.y) ** k for a in q.atoms)
    for s in q.segments:
        for i in range(k + 1):
            e = j + i + 1
            total += s.density * math.comb(k, i) * (-1) ** i * (s.hi**e - s.lo**e) / e
    return total


def _direct_tail(q, k):
    """The integral of (1 - y)**k against q, one Fraction sum per entry."""
    total = sum(a.p * (1 - a.y) ** k for a in q.atoms)
    for s in q.segments:
        total += s.density * ((1 - s.lo) ** (k + 1) - (1 - s.hi) ** (k + 1)) / (k + 1)
    return total


@st.composite
def _wide_laws(draw):
    """Exact laws with atoms up to 3 and segments up to 3, beyond both 1 and 2."""
    locs = draw(st.lists(st.fractions(F(1, 24), 3, max_denominator=24), unique=True, max_size=3))
    cuts = sorted(set(draw(st.lists(st.fractions(0, 3, max_denominator=24), max_size=6))))
    spans = list(zip(cuts[::2], cuts[1::2]))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(locs), max_size=len(locs)))
    weights += draw(st.lists(st.integers(0, 9), min_size=len(spans), max_size=len(spans)))
    total = sum(weights)
    assume(total > 0)
    atoms = tuple(Atom(y, F(w, total)) for y, w in zip(locs, weights))
    segments = tuple(Segment(lo, hi, F(w, total) / (hi - lo))
                     for (lo, hi), w in zip(spans, weights[len(locs):]))
    return MixingDistribution(atoms, segments)


# zero entries (atoms at 1/2 and 3/2 cancel at odd k; an atom at 1), negative entries (mass
# beyond 2), B = 1, and numerators n_k divisible by high powers of B's primes: point masses
# at 1/2 and 1/3, two halves of one uniform density (n_k = 2**(k+1)), and atoms at 1/3 and
# 2/3 beside a segment on [1/2, 3/2) that vanishes at odd k (B = 6, n_k ~ 2**k there)
_REDUCTION_LAWS = (
    MixingDistribution((Atom(F(1, 2), F(1, 2)), Atom(F(3, 2), F(1, 2)))),
    point_mass(1),
    point_mass("5/2"),
    MixingDistribution((Atom(F(1), F(1, 2)), Atom(F(2), F(1, 2)))),
    MixingDistribution(segments=(Segment(0, 1, 1),)),
    point_mass("1/2"),
    point_mass("1/3"),
    MixingDistribution((Atom(F(1, 2), F(1, 2)), Atom(F(1, 3), F(1, 2)))),
    MixingDistribution(segments=(Segment(F(0), F(1, 2), F(1)), Segment(F(1, 2), F(1), F(1)))),
    MixingDistribution((Atom(F(1, 3), F(1, 4)), Atom(F(2, 3), F(1, 4))),
                       (Segment(F(1, 2), F(3, 2), F(1, 2)),)),
    # ends that share a base 1 - y: adjacent pieces of different densities from ``mix``,
    # equal densities across 3/4 (net weight 0), segments ending and starting at 1 (base
    # 0), and an atom at 1 beside them, whose own column stays
    mix([(F(1, 2), MixingDistribution(segments=(Segment(0, "1/2", 2),))),
         (F(1, 2), MixingDistribution(segments=(Segment("1/4", "3/4", 2),)))]),
    MixingDistribution(segments=(Segment(F(1, 4), F(3, 4), F(1)), Segment(F(3, 4), F(5, 4), F(1)))),
    MixingDistribution(segments=(Segment(F(1, 2), F(1), F(3, 2)), Segment(F(1), F(2), F(1, 4)))),
    MixingDistribution((Atom(F(1), F(1, 4)),),
                       (Segment(F(1, 2), F(1), F(1)), Segment(F(1), F(3, 2), F(1, 2)))),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(q=st.one_of(st.sampled_from(_REDUCTION_LAWS), st.integers(0, 10**6).map(family_law),
                   _wide_laws()),
       K=st.integers(0, 40), data=st.data())
def test_tail_sequence_matches_integrate_and_hausdorff_moments(q, K, data):
    """The common-denominator tails equal the per-entry integrals and the moments."""
    t = tail_sequence(q, K)
    assert t.exact
    assert t.values == tuple(_direct_tail(q, k) for k in range(K + 1))
    for _ in range(3):
        j = data.draw(st.integers(0, K))
        k = data.draw(st.integers(0, K - j))
        assert difference_table(t, j).entries[j][k] == _hausdorff_moment(q, j, k)


# an atom beyond 1, a segment reaching past 2, a zero-density segment
_HAND_BUILT = (
    MixingDistribution((Atom(F(3, 2), F(1, 3)),), (Segment(F(0), F(1), F(2, 3)),)),
    MixingDistribution(segments=(Segment(F(1, 2), F(5, 2), F(1, 2)),)),
    MixingDistribution((Atom(F(1, 4), F(1)),), (Segment(F(1), F(3), F(0)),)),
)
_tols = st.one_of(st.sampled_from((0, math.inf)), st.fractions(0, 1, max_denominator=1000),
                  st.floats(0, 1, exclude_min=True))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(q=st.one_of(st.sampled_from(_HAND_BUILT), st.integers(0, 10**6).map(family_law),
                   _wide_laws()),
       K=st.integers(0, 30), tol=_tols)
@example(q=_HAND_BUILT[0], K=0, tol=0)
@example(q=_HAND_BUILT[1], K=0, tol=F(1, 3))
@example(q=_HAND_BUILT[1], K=1, tol=0)  # (1, -1/2): non-increasing, yet negative
def test_cached_facts_equal_reference_paths(q, K, tol):
    """Validity and the integer form read off the numerators equal the Fraction routes."""
    t = tail_sequence(q, K)
    assert t.violation == TailSequence.from_values(t.values).violation
    R, D, B = t.integers
    R = list(R)  # made lazily, in k order
    assert len(R) == K + 1 and all(F(r * B ** (K - k), D) == v
                                   for k, (r, v) in enumerate(zip(R, t.values)))
    for J in range(K + 1):
        assert is_completely_monotone(t, J, tol) == is_completely_monotone(list(t.values), J, tol)


# half at 1/6 and half at 5/6: 19 of the 41 entries at K = 40 keep a power of B to strip
# after ``_lowest``'s first step
_PAST_THE_FIRST_STEP = mix([(F(1, 2), point_mass("1/6")), (F(1, 2), point_mass("5/6"))])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(q=st.one_of(st.sampled_from(_REDUCTION_LAWS), st.integers(0, 10**6).map(family_law),
                   _wide_laws()),
       K=st.integers(0, 200))
@example(q=_REDUCTION_LAWS[-1], K=200)
@example(q=_REDUCTION_LAWS[-2], K=200)
@example(q=_REDUCTION_LAWS[0], K=0)
@example(q=_PAST_THE_FIRST_STEP, K=40)
def test_tail_entries_are_reduced_fractions(q, K):
    """Each entry is a Fraction with the terms of Fraction(n_k, M*(k+1)*B**(k+1))."""
    t = tail_sequence(q, K)
    n, M, B = t._scaled
    for k, v in enumerate(t.values):
        ref = F(n[k], M * (k + 1) * B ** (k + 1))
        assert type(v) is F and (v.numerator, v.denominator) == (ref.numerator, ref.denominator)


def test_some_entries_go_past_the_first_reduction_step():
    """At 1/6 and 5/6, n_k = 6*(k+1)*(5**k + 1), and 6 | 5**k + 1 at odd k: the first step
    then strips 6**2, the denominator it leaves lacks the prime 3, and ``_lowest`` goes on
    for k = 3, 5, ..., 39."""
    n, M, B = tail_sequence(_PAST_THE_FIRST_STEP, 40)._scaled
    X = [(k + 1) * M * B ** min(2, k + 1) for k in range(41)]
    left = [k for k in range(2, 41) if pow(X[k] // math.gcd(n[k], X[k]), B.bit_length(), B)]
    assert left == list(range(3, 41, 2))


def test_a_truncation_order_past_a_c_index_is_refused_at_once():
    """K = sys.maxsize + 1 raised OverflowError on an exact law and never returned on a
    float one; both are refused before any entry is made."""
    def stop(*_):
        raise TimeoutError("tail_sequence still running after 10 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        for q in (point_mass("1/2"), point_mass(0.5)):
            for K in (sys.maxsize, sys.maxsize + 1):
                with pytest.raises(ValidationError, match=f"truncation order K={K} must be"):
                    tail_sequence(q, K)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(q=st.one_of(st.sampled_from(_REDUCTION_LAWS + _HAND_BUILT),
                   st.integers(0, 10**6).map(family_law), _wide_laws()))
def test_support_masses_equal_mass_on(q):
    """The one-pass masses are ``mass_on`` on (0, 1], (1, 2) and [2, inf): exactly for an
    exact law, and in value and type for its float copy."""
    for law in (q, float_copy(q)):
        if law is not None:
            c = classify_support(law)
            ref = (mass_on(law, 0, 1, include_hi=True), mass_on(law, 1, 2),
                   mass_on(law, 2, math.inf, include_lo=True))
            assert [(type(m), repr(m)) for m in (c.m01, c.m12, c.m2)] == [
                (type(m), repr(m)) for m in ref]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=st.integers(-10**40, 10**40), a=st.integers(0, 300), b=st.integers(0, 40),
       B=st.sampled_from((1, 2, 3, 6, 7, 12, 30, 2**31, 6**20)), X=st.integers(1, 10**15),
       e=st.integers(1, 120))
@example(m=0, a=0, b=0, B=6, X=5, e=120)
@example(m=1, a=300, b=1, B=6, X=1, e=120)
def test_lowest_terms_of_high_powers_of_the_base(m, a, b, B, X, e):
    """n = m * 2**a * 3**b over X * B**e: whole, partial and capped strips of B's primes."""
    n = m * 2**a * 3**b
    v = _lowest(n, X, B, e, [B ** (i + 1) for i in range(e)])
    ref = F(n, X * B**e)
    assert type(v) is F and (v.numerator, v.denominator) == (ref.numerator, ref.denominator)


def test_nan_entries_are_named_and_refused():
    assert tail_validity([1.0, math.nan, 0.5]) == (False, "entry k=1 is NaN")
    assert TailSequence.from_values([1.0, math.nan, 0.5]).violation == "entry k=1 is NaN"
    with pytest.raises(ValidationError, match="entry k=1 is NaN"):
        require_tail(TailSequence.from_values([1.0, math.nan, 0.5]))
    for check in (is_completely_monotone, difference_table):
        with pytest.raises(ValidationError, match="entry k=1 is NaN"):
            check([1.0, math.nan, 0.5, 0.25], 3)
    t = TailSequence.from_values([1.0, math.nan] + [0.5] * 60)
    with pytest.raises(ValidationError, match="entry k=1 is NaN"):
        survival(t, ShockModelParams(lam=1), 1.0)


def test_validators_accept_a_table():
    good, bad = tail_sequence(CE, 6), tail_sequence(point_mass("5/2"), 4)
    require_tail(good)
    assert good.violation is None and tail_validity(good) == (True, None)
    reason = "entry k=1 is negative (-1.5)"
    assert bad.violation == reason and tail_validity(bad) == (False, reason)
    assert tail_validity(bad.values) == (False, reason)


def test_cached_facts_stay_out_of_equality_and_pickle_with_the_table():
    t = tail_sequence(CE, 40)
    plain = TailSequence.from_values(t.values)
    for _ in range(2):  # before and after the first pass fills the caches
        assert t == plain and hash(t) == hash(plain) and repr(t) == repr(plain)
        assert t.violation is None and is_completely_monotone(t, 4) == (False, (2, 1))
    for table in (tail_sequence(CE, 40), t, plain):
        back = pickle.loads(pickle.dumps(table))
        assert back.values == t.values and back.violation is None
        assert is_completely_monotone(back, 4) == (False, (2, 1))
    floats = TailSequence.from_values(float(v) for v in t.values)
    assert floats.floats is floats.values
    assert t.floats == floats.values


def test_invalid_table_is_refused_on_every_call():
    bad = tail_sequence(point_mass("5/2"), 4)
    for _ in range(3):
        with pytest.raises(ValidationError, match="not a valid tail sequence: entry k=1"):
            require_tail(bad)
        with pytest.raises(ValidationError, match="not a valid tail sequence: entry k=1"):
            survival(bad, ShockModelParams(lam=1), 0.5)


def test_tail_violation_reasons():
    """The reasons ``TailSequence.violation`` gives, and ``tail_validity`` passes on."""
    cases = {
        (1, F(1, 2), F(1, 4)): None,
        (F(1, 2), F(1, 4)): "entry k=0 is 0.5, expected 1",
        (1, F(-1, 4)): "entry k=1 is negative (-0.25)",
        (1, F(1, 4), F(1, 2)): "sequence increases from k=1 to k=2",
    }
    for values, reason in cases.items():
        assert TailSequence.from_values(values).violation == reason
        assert tail_validity(values) == (reason is None, reason)
        assert tail_validity(iter(values)) == (reason is None, reason)


def test_entries_past_the_float_range_are_named_without_a_float():
    """Reasons keep repr(float(v)) for entries a float holds and name the bound otherwise;
    the float copy of such a table is refused."""
    big = F(10**400)
    assert TailSequence.from_values((1, -big)).violation == (
        "entry k=1 is negative (below -1.7976931348623157e+308)")
    assert TailSequence.from_values((big,)).violation == (
        "entry k=0 is above 1.7976931348623157e+308, expected 1")
    t = tail_sequence(point_mass(big), 3)
    assert t.violation.startswith("entry k=1 is negative (below -")
    with pytest.raises(ValidationError, match="entry k=1 lies past the float range"):
        t.floats


def test_density_below_the_float_range_is_skipped():
    """A segment whose density is 0.0 as a float carries no float-visible mass."""
    tiny = F(1, 10**400)
    q = MixingDistribution((Atom(F(1, 2), 1 - tiny),), (Segment(0, 1, tiny),))
    assert q._live_segments == ()
    half = point_mass("1/2")
    for z in (0.25, 0.5, 0.9):
        assert pgf_eval(q, z) == pgf_eval(half, z)


def _half_atom_and_segment(lo, width):
    """Mass 1/2 at 1/2 and mass 1/2 spread evenly over [lo, lo + width)."""
    segment = Segment(lo, lo + width, 1 / (2 * width))
    return MixingDistribution((Atom(F(1, 2), F(1, 2)),), (segment,))


@pytest.mark.parametrize("lo, width, reason", [
    # float(1 + 1e-20) == 1.0: the segment vanished and phi(1/2) read 0.1667, not 0.4167
    (F(1), F(1, 10**20), "misstate the segment mass by 0.5"),
    # both ends round: phi(1/2) was off by 3.4e-9, 34 times the 1e-10 budget
    (F(1, 3), F(1, 10**9), "misstate the segment mass by 1.4e-08"),
    # float(10**400) raised OverflowError
    (F(10**400), F(1), "past the float range"),
], ids=["width-rounds-to-zero", "ends-round-apart", "past-the-float-range"])
def test_segments_floats_cannot_hold_are_refused_by_name(lo, width, reason):
    q = _half_atom_and_segment(lo, width)
    assert tail_sequence(q, 3).exact  # exact reports still take the law
    for report in (pgf_eval, pgf_bounds):
        with pytest.raises(ValidationError, match=reason) as info:
            report(q, 0.5)
        assert f"[{lo}, {lo + width})" in str(info.value)


def test_float_segment_rounding_within_a_tenth_of_the_budget_is_kept():
    """The misstatement is exact: 0 on float data, 3e-16 on the counterexample, and about
    2.2e-13 for the narrow exact segment here."""
    for q in (_half_atom_and_segment(F(1, 3), F(1, 10**4)), _half_atom_and_segment(1.0, 2**-40),
              CE):
        assert 0 < pgf_eval(q, 0.5) < 1
        assert len(q._live_segments) == len(q.segments)


def test_exact_is_read_off_the_entries():
    """``exact`` was an argument, so TailSequence((1.0, 0.5), True) constructed and its
    ``integers`` then failed on float.numerator."""
    assert TailSequence((F(1), 0)).exact and not TailSequence((F(1), 0.5)).exact
    assert difference_table((F(1), 0), 1).exact and not difference_table((1.0, 0.5), 1).exact
    with pytest.raises(TypeError):
        TailSequence((1.0, 0.5), True)


def test_empty_sequence_is_not_a_tail():
    assert tail_validity([]) == (False, "sequence is empty")
    assert tail_validity(iter(())) == (False, "sequence is empty")
    assert TailSequence(()).violation == "sequence is empty"
    with pytest.raises(ValidationError, match="at least one entry"):
        TailSequence.from_values([])


def pmf_of(u) -> tuple:
    """The masses q_0 = 1 - u_0 and q_n = u_{n-1} - u_n of the tails u."""
    return (1 - u[0], *(a - b for a, b in zip(u, u[1:])))


def test_pmf_from_tail_geometric():
    pmf = pmf_of(tail_sequence(point_mass("1/2"), 8).values)
    assert pmf[0] == 0
    assert pmf[1:] == tuple(F(1, 2) ** n for n in range(1, 9))


def test_pmf_from_tail_counterexample_first_mass():
    pmf = pmf_of(tail_sequence(CE, 10).values)
    assert pmf[0] == 0
    assert pmf[1] == F(37, 42)  # 1 - tail_1, the mean resistance


def test_pmf_tail_round_trip():
    rng = random.Random(31)
    for _ in range(10):
        q = random_unit_support(rng)
        t = tail_sequence(q, 25)
        pmf = pmf_of(t.values)
        rebuilt = tuple(1 - sum(pmf[: k + 1]) for k in range(len(pmf)))
        assert rebuilt == t.values


def test_resistance_gf_values():
    assert resistance_gf(point_mass(1), F(1, 2)) == 1
    assert resistance_gf(point_mass("1/2"), F(1, 2)) == F(4, 3)


def test_resistance_gf_equals_tail_series():
    # remainder bound: tails beyond K contribute at most max tail * z^(K+1)/(1-z)
    K = 400
    t = counterexample_tail_sequence(P17, K)
    for z in (0.3, 0.6, 0.9):
        series = sum(float(v) * z**k for k, v in enumerate(t.values))
        remainder = float(t.values[-1]) * z ** (K + 1) / (1 - z)
        m = resistance_gf(CE, z)
        assert abs(m - series) <= remainder + 1e-9, (z, m - series, remainder)


def test_geometric_pmf_shape():
    g = geometric_pmf(F(3, 4), K=10)
    assert g.values[0] == F(3, 4)
    assert g.values[2] == F(3, 64)
    assert g.tail_ratio == F(1, 4)
    assert geometric_pmf(1).tail_ratio is None


def test_lemma22_degenerate():
    sure = PmfSequence((F(1),))
    assert lemma22_coefficients(sure, 5) == [1, 0, 0, 0, 0, 0]
    ints = PmfSequence((0, 1))  # int entries are kept as they are, not made Fractions
    assert list(map(type, ints.values)) == [int, int]
    assert list(map(type, lemma22_coefficients(ints, 2))) == [int, int, int]


@pytest.mark.parametrize("y", [F(4, 3), F(3, 2), F(2)])
def test_lemma22_geometric_closed_form(y):
    cs = lemma22_coefficients(geometric_pmf(1 / y, K=14), 18)
    assert cs == [(1 - y) ** k for k in range(19)]


def test_lemma22_series_oracle():
    """Sum of c_k z^k must reproduce E(1-z)^N for a truncated pmf."""
    pmf = PmfSequence((F(1, 8), F(1, 2), F(1, 4), F(1, 8)))
    cs = lemma22_coefficients(pmf, 40)
    for z in [F(i, 10) for i in range(1, 10)]:
        direct = sum(q * (1 - z) ** n for n, q in enumerate(pmf.values))
        series = sum(c * z**k for k, c in enumerate(cs[:4]))
        assert series == direct  # degree 3 polynomial, exact


def test_lemma22_geometric_series_oracle_float():
    pmf = geometric_pmf(F(2, 3), K=12)
    cs = lemma22_coefficients(pmf, 60)
    for z in (0.1, 0.5, 0.9):
        direct = (2 / 3) * sum((1 / 3) ** n * (1 - z) ** n for n in range(300))
        series = sum(float(c) * z**k for k, c in enumerate(cs))
        assert abs(series - direct) < 1e-10


def test_pmf_refuses_a_nan_entry_by_index():
    # a NaN entry passed v < 0 and the mass check, so lemma22 returned [nan, nan, nan]
    with pytest.raises(ValidationError, match="q_1 is NaN"):
        PmfSequence([0.5, math.nan])


def test_lemma22_rejects_undeclared_tail_mass():
    trunc = PmfSequence((F(1, 2), F(1, 4)))  # quarter of the mass missing
    with pytest.raises(ValidationError, match="tail"):
        lemma22_coefficients(trunc, 5)


def test_counterexample_params_accepts_exact_strings():
    p = counterexample_params("0.5", "2/3")  # decimal strings parse exact
    assert p.alpha == F(1, 2) and p.beta == F(2, 3)


def test_counterexample_params_is_its_constructor():
    """The constructor reads both values as ``counterexample_params`` does: exact strings
    and ints are accepted as Fractions, a float is refused as not rational."""
    p = CounterexampleParams("1/7", "2/3")
    assert p == counterexample_params("1/7", "2/3") == CounterexampleParams(F(1, 7), F(2, 3))
    assert type(p.alpha) is type(p.beta) is F
    with pytest.raises(ValidationError, match="alpha and beta must be rational"):
        CounterexampleParams("1/7", 0.5)
    with pytest.raises(ValidationError, match=r"beta=1 outside \(0, 1\)"):
        CounterexampleParams("1/7", 1)


def test_counterexample_params_rejects_float():
    with pytest.raises(ValidationError):
        counterexample_params(0.5, "2/3")
    with pytest.raises(ValidationError):
        counterexample_params("1/7", 1.5)
    with pytest.raises(ValidationError):
        counterexample_params("7/7", "2/3")


def test_admissible_flag():
    assert P17.admissible
    assert not counterexample_params("1/3", "2/3").admissible  # alpha past 2/7
    assert not counterexample_params("1/7", "1/4").admissible  # beta below 1/3


@pytest.mark.parametrize("i", range(1, 8))
def test_admissible_tails_are_valid(i):
    """Admissible means a valid tail. On alpha = i/28, beta = j/30 the bounds beta >= 1/3
    and alpha < 2/7 alone pass 59 pairs with invalid tails, (1/4, 99/100) among them."""
    for j in range(10, 30):
        p = CounterexampleParams(F(i, 28), F(j, 30))
        if p.admissible:
            assert tail_sequence(counterexample_Q(p), 40).violation is None, (i, j)
    assert not counterexample_params("1/4", "99/100").admissible


@pytest.mark.parametrize("make, reason", [
    (lambda: TailSequence.from_values([1.0, 0.5]).integers, "only an exact tail"),
    (lambda: PmfSequence([]), "at least one entry"),
    (lambda: PmfSequence([F(1, 2), F(-1, 4)]), "q_1 = -1/4 is negative"),
    (lambda: PmfSequence([F(1, 2), F(3, 4)]), "pmf mass 5/4 exceeds 1"),
    (lambda: PmfSequence([0.5, 0.75]), "pmf mass 1.25 exceeds 1"),
    (lambda: lemma22_coefficients([F(1)], 3), "must be a PmfSequence"),
    (lambda: CounterexampleParams(0.25, F(1, 2)), "alpha and beta must be rational"),
    (lambda: PmfSequence(("1/2", "1/2")), "q_0 = '1/2' is not an int, Fraction or float"),
    (lambda: PmfSequence((F(1, 2), True)), "q_1 = True is not an int, Fraction or float"),
], ids=["float-integers", "empty-pmf", "negative-pmf", "exact-pmf-mass", "float-pmf-mass",
        "lemma22-not-pmf", "float-param", "text-pmf", "bool-pmf"])
def test_pgf_core_refusals(make, reason):
    with pytest.raises(ValidationError, match=reason):
        make()


def test_counterexample_cdf_at_one():
    # distribution function at 1 is 1 - beta
    assert mass_on(CE, 0, 1, include_hi=True) == F(1, 3)
    assert mass_on(CE, 0, F(8, 7), include_hi=True) == 1


def test_counterexample_tail_closed_form_values():
    assert counterexample_tail(P17, 0) == 1
    assert counterexample_tail(P17, 1) == F(5, 42)
    assert counterexample_tail(P17, 2) == F(17, 147)
    with pytest.raises(ValidationError):
        counterexample_tail(P17, -1)


def test_monotonicity_condition_values():
    assert monotonicity_condition(P17, 0) is True
    assert all(monotonicity_condition(P17, n) for n in range(150))
    bad = counterexample_params("9/10", "2/3")
    assert not monotonicity_condition(bad, 0)


def test_monotonicity_condition_matches_tail_steps():
    """lhs <= rhs at n must agree with tail_{2n+1} >= tail_{2n+2}."""
    rng = random.Random(7)
    for _ in range(10):
        alpha = F(rng.randint(1, 9), 10)
        beta = F(rng.randint(1, 9), 10)
        p = counterexample_params(alpha, beta)
        for n in range(6):
            step_ok = counterexample_tail(p, 2 * n + 1) >= counterexample_tail(p, 2 * n + 2)
            assert monotonicity_condition(p, n) == step_ok


def test_tail_sequence_serialization():
    t = tail_sequence(CE, 2)
    doc = t.to_json_dict()
    assert doc["entries"][1] == {"k": 1, "value": "5/42", "decimal": 5 / 42}
    csv = t.to_csv()
    assert csv.splitlines()[0] == "k,value,decimal"
    assert csv.splitlines()[3].startswith("2,17/147,")
