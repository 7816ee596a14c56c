"""Survival series, transform identities, skeleton checks, and the simulators."""

import json
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shockpgf import (
    VERDICT_UNIT_SUPPORT,
    Atom,
    MixingDistribution,
    NumericError,
    Segment,
    ShockModelParams,
    TailSequence,
    ValidationError,
    classify_support,
    counterexample_Q,
    counterexample_params,
    counterexample_tail_sequence,
    exp_mixture_survival,
    laplace,
    mix,
    pgf_eval,
    point_mass,
    rate_mixture,
    sdfr_skeleton_check,
    simulate_de_finetti,
    simulate_failure_times,
    survival,
    tail_sequence,
)
from shockpgf import shock_model
from shockpgf.families import random_mid_mass, random_unit_support
from shockpgf.shock_model import (_GUIDE, _guide_table, _invert_tail, _kept_weights,
                                  _poisson_weights, _series, _truncation_order)

from laws import family_law, float_copy

CE = counterexample_Q(counterexample_params("1/7", "2/3"))


def poisson_tail(mu: float, k: int) -> float:
    w, acc = math.exp(-mu), 0.0
    for i in range(k + 1):
        if i:
            w *= mu / i
        acc += w
    return 1.0 - acc


@pytest.mark.parametrize("mu", [0.3, 1.0, 4.0, 25.0])
@pytest.mark.parametrize("tol", [1e-6, 1e-12])
def test_poisson_truncation_order(mu, tol):
    k = _truncation_order(mu, math.log(tol))
    assert poisson_tail(mu, k) < tol
    assert k >= mu  # Chernoff bound only bites past the mean


def chernoff_bounded(mu: float, tol: float, k: int) -> bool:
    m = k + 1
    return m > mu and -mu + m - m * math.log(m / mu) < math.log(tol)


def linear_truncation_order(mu: float, tol: float) -> int:
    """Reference: walk one step at a time up from ceil(mu) to the first bounded order."""
    k = max(1, math.ceil(mu))
    while not chernoff_bounded(mu, tol, k):
        k += 1
    return k


def test_truncation_order_matches_linear_walk():
    rng = random.Random(11)
    mus = [i / 8 for i in range(1, 400)] + [rng.uniform(0, 1000) for _ in range(600)]
    mus += [1e-9, 0.999999, 1.0, 1.000001, 708.4, 1e4, 1e5]
    pairs = [(mu, tol) for mu in mus for tol in (1e-13, 1e-12, 1e-9, 1e-6, 0.5)]
    # log-uniform mu in [1e-9, 1e6] and tol in [1e-16, 0.5]: the search walks down from a
    # start at most one order above the answer once mu > -log(tol), more for small mu
    pairs += [(10 ** rng.uniform(-9, 6), 10 ** rng.uniform(-16, math.log10(0.5)))
              for _ in range(3000)]
    for mu, tol in pairs:
        assert _truncation_order(mu, math.log(tol)) == linear_truncation_order(mu, tol), (mu, tol)


def test_a_kept_truncation_order_is_the_order_the_search_gives():
    """The orders are kept per (mu, log_tol); a kept one, read back after 300 others have
    pushed some out of the 256 kept, is the uncached search's."""
    rng = random.Random(27)
    pairs = [(10 ** rng.uniform(-6, 9), math.log(10 ** rng.uniform(-16, -1))) for _ in range(300)]
    pairs += [(mu * 2, log_tol) for mu, log_tol in pairs[:20]] + [(0.5, math.log(1e-12))] * 3
    for _ in range(2):
        for mu, log_tol in pairs:
            assert _truncation_order(mu, log_tol) == _truncation_order.__wrapped__(mu, log_tol)
    assert _truncation_order.cache_info().currsize <= 256


# the bound holds at the search's start at 1e8 (it walks down) but, by rounding, not at
# 1e12 (it doubles up and bisects)
@pytest.mark.parametrize("mu", [1e8, 1e12])
def test_truncation_order_is_minimal_at_large_mean(mu):
    K = _truncation_order(mu, math.log(1e-12))
    assert chernoff_bounded(mu, 1e-12, K)
    assert not chernoff_bounded(mu, 1e-12, K - 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), mid_mass=st.booleans(), lam=st.sampled_from(["1/2", 1, 2]))
def test_survival_is_a_survival_function(seed, mid_mass, lam):
    """In [0, 1] and non-increasing in t, also when the tails are not CM."""
    q = (random_mid_mass if mid_mass else random_unit_support)(random.Random(seed))
    params = ShockModelParams(lam=lam)
    grid = [k / 4 for k in range(41)]
    t_seq = tail_sequence(q, _truncation_order(float(params.lam) * grid[-1],
                                               math.log(params.series_tol)))
    vals = [survival(t_seq, params, t) for t in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b <= a + 2 * params.series_tol for a, b in zip(vals, vals[1:]))


def test_survival_unit_atom_is_pure_exponential():
    t_seq = tail_sequence(point_mass(1), 50)
    params = ShockModelParams(lam="3/2")
    for t in (0.0, 0.25, 1.0, 4.0):
        assert abs(survival(t_seq, params, t) - math.exp(-1.5 * t)) < 1e-12


def test_survival_thinning_identity():
    # resistance 1/2 thins a rate-2 stream down to rate 1
    t_seq = tail_sequence(point_mass("1/2"), 200)
    params = ShockModelParams(lam=2)
    for t in (0.5, 1.0, 2.0, 4.0):
        assert abs(survival(t_seq, params, t) - math.exp(-t)) < 1e-10


def test_survival_basics():
    t_seq = tail_sequence(CE, 220)
    params = ShockModelParams(lam=1)
    assert survival(t_seq, params, 0) == 1.0
    grid = [k / 8 for k in range(1, 40)]
    vals = [survival(t_seq, params, t) for t in grid]
    assert all(b <= a + 1e-11 for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_survival_guards():
    t_seq = tail_sequence(CE, 10)
    params = ShockModelParams(lam=1)
    with pytest.raises(ValidationError, match="too short"):
        survival(t_seq, params, 50.0)
    with pytest.raises(ValidationError, match="must be non-negative"):
        survival(t_seq, params, -1.0)
    bad = TailSequence.from_values((F(1), F(1, 2), F(3, 4)))
    with pytest.raises(ValidationError, match="not a valid tail sequence"):
        survival(bad, params, 1.0)


@pytest.mark.parametrize("mu", [740, 750, 800])
def test_survival_past_poisson_underflow(mu):
    """exp(-mu) is subnormal at 740 and 0.0 past 745; the series must not be."""
    t_seq = counterexample_tail_sequence(counterexample_params("1/7", "2/3"), 1100)
    got = survival(t_seq, ShockModelParams(lam=2), mu / 2)
    with mpmath.workdps(40):
        ref = mpmath.fsum(mpmath.mpf(u.numerator) / u.denominator
                          * mpmath.exp(k * mpmath.log(mu) - mu - mpmath.loggamma(k + 1))
                          for k, u in enumerate(t_seq.values))
        assert abs(got - ref) <= 1e-8 * ref
    assert got > 4e-4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 pytest.param(F(10**400), id="past-float-range"),
                                 pytest.param(F(-1, 10**400), id="exact-negative"),
                                 pytest.param("-1e-400", id="negative-string")])
def test_non_finite_times_are_refused(bad):
    """F(10**400) is exact and finite, but past the float range the series works in.
    -1/10**400 floats to -0.0, but its sign is read from the exact value."""
    t_seq = tail_sequence(CE, 10)
    params = ShockModelParams(lam=1)
    with pytest.raises(ValidationError, match="finite"):
        survival(t_seq, params, bad)
    with pytest.raises(ValidationError, match="finite"):
        ShockModelParams(lam=1, time_grid=(1.0, bad))
    with pytest.raises(ValidationError, match="finite"):
        sdfr_skeleton_check(t_seq, params, bad, 2)
    with pytest.raises(ValidationError, match="finite"):
        exp_mixture_survival(point_mass(1), bad)
    with pytest.raises(ValidationError, match="lam"):
        ShockModelParams(lam=bad)


def test_a_time_is_read_as_a_number():
    """A time or a time-grid entry given as text is read exactly and then as a float."""
    t_seq = tail_sequence(CE, 60)
    params = ShockModelParams(lam=1)
    assert survival(t_seq, params, "1/2") == survival(t_seq, params, 0.5)
    assert ShockModelParams(1, time_grid=("1/2", "1")).time_grid == (0.5, 1.0)


@pytest.mark.parametrize("bad", [None, "abc", True])
def test_a_time_that_is_not_a_number_is_refused(bad):
    """A bool is not a time, as it is no other number of the package."""
    with pytest.raises(ValidationError):
        survival(tail_sequence(CE, 10), ShockModelParams(lam=1), bad)
    with pytest.raises(ValidationError):
        ShockModelParams(1, time_grid=(bad,))


@pytest.mark.parametrize("tol", [F(1, 10**400), "1e-400", F(1, 2**1075)],
                         ids=["fraction", "decimal-string", "half-the-smallest"])
def test_a_series_tol_that_rounds_to_zero_is_refused(tol):
    """The series reads log(series_tol) as a float; 2**-1075 is half the smallest
    subnormal and rounds to 0.0 by ties-to-even."""
    with pytest.raises(ValidationError, match=r"series_tol rounds to 0\.0 as a float"):
        ShockModelParams(1, series_tol=tol)


@pytest.mark.parametrize("tol", [5e-324, "5e-324", F(3, 2**1076)],
                         ids=["float", "decimal-string", "rounds-up"])
def test_a_series_tol_at_the_smallest_float_is_accepted(tol):
    params = ShockModelParams(1, series_tol=tol)
    assert survival(tail_sequence(point_mass("1/2"), 200), params, 1) == 0.6065306597126336


def test_laplace_reads_off_the_pgf():
    assert laplace(point_mass(1), 1, 1) == F(1, 2)
    assert laplace(point_mass("1/2"), 2, 2) == F(1, 3)
    for lam, s in ((1, 1), (2, F(1, 2)), (F(1, 2), 3)):
        assert laplace(CE, lam, s) == pgf_eval(CE, F(lam) / (lam + s))
    with pytest.raises(ValidationError):
        laplace(CE, 0, 1)
    with pytest.raises(ValidationError):
        laplace(CE, 1, 0)


def test_rate_mixture_rescales_support():
    assert rate_mixture(point_mass("1/2"), 2) == point_mass(1)
    assert rate_mixture(CE, 1) == CE
    g = rate_mixture(MixingDistribution(segments=(Segment(0, 1, 1),)), 2)
    assert g.segments == (Segment(0, 2, F(1, 2)),)
    assert g.total_mass == 1
    with pytest.raises(ValidationError):
        rate_mixture(CE, 0)


def test_exp_mixture_survival_values():
    g = point_mass(3)
    assert exp_mixture_survival(g, 0) == 1
    assert abs(exp_mixture_survival(g, 2) - math.exp(-6)) < 1e-15
    with pytest.raises(ValidationError):
        exp_mixture_survival(g, -1)


@pytest.mark.parametrize("t", [F(1, 10**400), "1e-400"], ids=["fraction", "decimal-string"])
def test_exp_mixture_survival_at_an_exact_time_that_floats_to_zero(t):
    """Each segment gives its t -> 0 limit, density * (hi - lo), summed in floats."""
    laws = [MixingDistribution(segments=(Segment(0, 1, 1),)),
            MixingDistribution(atoms=(Atom("1/2", "1/2"),), segments=(Segment(1, 2, "1/2"),)),
            MixingDistribution(segments=(Segment(0.0, 0.5, 0.5), Segment(0.5, 1.0, 1.5)))]
    for g in laws:
        v = exp_mixture_survival(g, t)
        assert isinstance(v, float) and v == min(float(g.total_mass), 1.0), g


@pytest.mark.parametrize("g", [
    point_mass(F(10**400)),
    mix([(F(1, 2), point_mass(1)),
         (F(1, 2), MixingDistribution(segments=(Segment(F(10**400), F(10**400) + 1, 1),)))]),
], ids=["atom", "segment"])
def test_exp_mixture_survival_refuses_rates_past_the_float_range(g):
    """float(rate) raised OverflowError; t = 0 stays exact."""
    assert exp_mixture_survival(g, 0) == 1
    with pytest.raises(ValidationError, match="past the float range"):
        exp_mixture_survival(g, 1)


@pytest.mark.parametrize("lam", [1, 2])
def test_exp_mixture_matches_survival_series(lam):
    """The failure time is exactly an exponential with rate lam*Y."""
    t_seq = tail_sequence(CE, 260)
    params = ShockModelParams(lam=lam)
    g = rate_mixture(CE, lam)
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        direct = float(exp_mixture_survival(g, t))
        series = survival(t_seq, params, t)
        assert abs(direct - series) < 1e-9, (lam, t)


def test_skeleton_check_on_smooth_cases():
    t_seq = tail_sequence(point_mass("1/2"), 200)
    params = ShockModelParams(lam=1)
    ok, first = sdfr_skeleton_check(t_seq, params, 0.3, 8)
    assert ok and first is None


@pytest.mark.parametrize("delta", [0.1, 1.0])
def test_skeleton_check_counterexample_grid(delta):
    # the survival function itself stays completely monotone on these grids
    # even though the discrete tail sequence is not
    t_seq = tail_sequence(CE, 400)
    params = ShockModelParams(lam=1, series_tol=1e-13)
    ok, first = sdfr_skeleton_check(t_seq, params, delta, 8, n_points=30)
    assert ok, first


def test_skeleton_check_validation():
    t_seq = tail_sequence(point_mass(1), 20)
    params = ShockModelParams(lam=1)
    with pytest.raises(ValidationError):
        sdfr_skeleton_check(t_seq, params, 0.0, 4)
    with pytest.raises(ValidationError):
        sdfr_skeleton_check(t_seq, params, 0.5, 0)
    with pytest.raises(ValidationError):
        sdfr_skeleton_check(t_seq, params, 0.5, 4, n_points=3)


def test_skeleton_check_validates_exact_tails_before_rounding():
    # u_2 exceeds u_1 by 1e-30, below float resolution: the float copy is a valid tail
    u = [F(1, k + 1) for k in range(60)]
    u[2] = F(1, 2) + F(1, 10**30)
    params = ShockModelParams(lam=1)
    floats = TailSequence.from_values(float(v) for v in u)
    assert sdfr_skeleton_check(floats, params, 0.1, 2, n_points=3)[0] in (True, False)
    with pytest.raises(ValidationError, match="increases from k=1 to k=2"):
        sdfr_skeleton_check(TailSequence.from_values(u), params, 0.1, 2, n_points=3)


def in_order_series(u, mu, K):
    """Reference: the Poisson series as first written, one branch per term and the log-space
    terms summed with fsum in k order."""
    w = math.exp(-mu)
    if w < sys.float_info.min:
        acc = math.fsum(u[k] * math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))
                        for k in range(K + 1))
        return min(max(acc, 0.0), 1.0)
    acc = 0.0
    for k in range(K + 1):
        if k:
            w *= mu / k
        acc += u[k] * w
    return min(max(acc, 0.0), 1.0)


def refused_or_value(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return "refused", str(exc)


CURVE_TABLES = {
    "stress": counterexample_tail_sequence(counterexample_params("1/7", "2/3"), 1100),
    "harmonic": TailSequence.from_values(1 / (k + 1) for k in range(1200)),
    "short": tail_sequence(CE, 10),
    "increasing": TailSequence.from_values((F(1), F(1, 2), F(3, 4))),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=st.sampled_from(sorted(CURVE_TABLES)), as_float=st.booleans(),
       lam=st.sampled_from((F(1, 2), 1, 2.5, 5e-324)), n_points=st.integers(2, 45),
       delta=st.one_of(st.floats(1e-3, 40), st.sampled_from((8e307, 1e308, 1.5e308))))
@example(table="stress", as_float=True, lam=1, n_points=20, delta=40.0)  # to lam*t = 760
@example(table="stress", as_float=False, lam=2.5, n_points=40, delta=20.0)  # short at 900
@example(table="harmonic", as_float=False, lam=1, n_points=45, delta=30.0)  # short at 990
@example(table="short", as_float=True, lam=1, n_points=10, delta=1.0)  # short at t = 1
@example(table="stress", as_float=True, lam=5e-324, n_points=3, delta=1e308)  # 2*delta = inf
@example(table="stress", as_float=True, lam=2.5, n_points=3, delta=1e308)  # lam*t = inf
@example(table="increasing", as_float=False, lam=1, n_points=3, delta=0.5)
def test_skeleton_curve_is_survival_point_by_point(table, as_float, lam, n_points, delta):
    """The skeleton's one-pass curve equals ``survival`` at each n*delta by ==, past
    lam*t = 708 (the log-space branch) too, and refuses with survival's ValidationError
    text at the first point survival refuses. Each value is the series as first written."""
    t_seq = CURVE_TABLES[table]
    if as_float:
        t_seq = TailSequence.from_values(t_seq.floats)
    params = ShockModelParams(lam=lam)
    want = []
    for n in range(n_points):
        v = refused_or_value(survival, t_seq, params, n * delta)
        if isinstance(v, tuple):
            want = v
            break
        mu = float(params.lam) * (n * delta)
        if mu:
            K = _truncation_order(mu, math.log(params.series_tol))
            assert v == in_order_series(t_seq.floats, mu, K), (n, mu)
        want.append(v)
    got = refused_or_value(shock_model._curve, t_seq, params, (n * delta for n in range(n_points)))
    assert got == want


def cold_value(t_seq, params, t):
    """``survival`` from an empty table of kept weights, so its weights are built for it."""
    _kept_weights.cache_clear()
    return refused_or_value(survival, t_seq, params, t)


SERIES_TABLES = {
    "exact": tail_sequence(CE, 220),
    "float": TailSequence.from_values(tail_sequence(random_unit_support(random.Random(5)),
                                                    220).floats),
    "stress": CURVE_TABLES["stress"],
    "stress-float": TailSequence.from_values(CURVE_TABLES["stress"].floats),
    "harmonic": TailSequence.from_values(1 / (k + 1) for k in range(1500)),
}
# exp(-mu) is normal up to 708 (the recurrence) and subnormal or 0.0 from 708.5 (log space)
LINEAR_MEANS = (0.25, 1.0, 7.5, 39.0, 150.0, 500.0, 708.0)
LOG_MEANS = (708.5, 740.0, 750.0, 800.0, 900.0, 1000.0, 1200.0)


@pytest.mark.parametrize("table", sorted(SERIES_TABLES))
def test_kept_weights_give_the_bits_of_fresh_ones(table):
    """A series read from kept weights equals, by == and repr, one whose weights were built
    for the call and the series as first written, in both branches of the weights."""
    assert math.exp(-LINEAR_MEANS[-1]) >= sys.float_info.min > math.exp(-LOG_MEANS[0])
    t_seq, params = SERIES_TABLES[table], ShockModelParams(lam=1)
    means = LINEAR_MEANS + LOG_MEANS
    cold = [cold_value(t_seq, params, mu) for mu in means]
    _kept_weights.cache_clear()
    first = [refused_or_value(survival, t_seq, params, mu) for mu in means]
    warm = [refused_or_value(survival, t_seq, params, mu) for mu in means]
    assert warm == first == cold and repr(warm) == repr(first) == repr(cold)
    read = [(mu, v) for mu, v in zip(means, warm) if not isinstance(v, tuple)]
    info = _kept_weights.cache_info()
    assert info.currsize == info.misses == info.hits == len(read) >= 4
    for mu, v in read:
        assert v == in_order_series(t_seq.floats, mu, _truncation_order(mu, math.log(1e-12)))


# a table of 2032 weights or more is built for its call and not kept
CAP = 2032
LONG_HARMONIC = tuple(1 / (k + 1) for k in range(2400))


def test_kept_weights_stay_within_their_bound():
    """200 distinct tables of 2031 weights, the longest kept, need more than the 128 kept
    tables; the least recently used go, and what stays holds 32 bytes a weight and at most
    512 bytes a table for the key, the entry and the tuples' headers."""
    _kept_weights.cache_clear()
    means = [0.5 * (i + 1) for i in range(200)]
    tracemalloc.start()
    try:
        for mu in means:
            _series(LONG_HARMONIC, mu, CAP - 1)
        info = _kept_weights.cache_info()
        assert info.currsize == 128 and info.misses == 200
        full = tracemalloc.get_traced_memory()[0]
        _kept_weights.cache_clear()
        held = full - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 128 * CAP * 30 < held <= 128 * (CAP * 32 + 512)


def test_the_least_recently_used_table_goes_first():
    _kept_weights.cache_clear()
    for mu in range(1, 129):
        _series(LONG_HARMONIC, float(mu), 20)
    _series(LONG_HARMONIC, 1.0, 20)  # now the most recently used
    _series(LONG_HARMONIC, 129.0, CAP - 1)  # drops mu = 2
    before = _kept_weights.cache_info()
    _series(LONG_HARMONIC, 1.0, 20)
    assert _kept_weights.cache_info().hits == before.hits + 1
    _series(LONG_HARMONIC, 2.0, 20)
    assert _kept_weights.cache_info().misses == before.misses + 1


def test_a_table_at_the_cap_is_not_kept():
    """From 2032 weights on, the series builds its table for the call: the value is the
    series as first written, and neither the kept tables nor their misses move."""
    for mu, K in [(1.0, CAP), (39.0, CAP + 7), (1950.0, 2300)]:
        _kept_weights.cache_clear()
        _series(LONG_HARMONIC, mu, CAP - 1)
        assert _series(LONG_HARMONIC, mu, K) == in_order_series(LONG_HARMONIC, mu, K)
        info = _kept_weights.cache_info()
        assert info.currsize == info.misses == 1, (mu, K)
    params = ShockModelParams(lam=1)
    K = _truncation_order(1950.0, math.log(params.series_tol))
    assert CAP <= K < len(LONG_HARMONIC)
    got = survival(TailSequence.from_values(LONG_HARMONIC), params, 1950.0)
    assert got == in_order_series(LONG_HARMONIC, 1950.0, K)
    assert _kept_weights.cache_info().misses == 1


def no_weights(mu, K):
    raise AssertionError(f"built {K + 1} weights for a refused series")


@pytest.mark.parametrize("lam, t, message", [
    (1, 1e12, r"tail sequence too short: series at t=1000000000000\.0 needs order \d+, have 199"),
    (2.5, 1e308, r"lam\*t at lam=2\.5 and t=1e\+308 overflows to inf"),
])
def test_a_refused_series_builds_no_weights(lam, t, message, monkeypatch):
    """The patch catches a table built for its call; the kept tables hold the original
    ``_poisson_weights``, so an unchanged ``cache_info`` shows no kept table was built."""
    _kept_weights.cache_clear()
    before = _kept_weights.cache_info()
    monkeypatch.setattr(shock_model, "_poisson_weights", no_weights)
    t_seq = TailSequence.from_values(F(1, k + 1) for k in range(200))
    with pytest.raises(ValidationError, match=message):
        survival(t_seq, ShockModelParams(lam=lam), t)
    assert _kept_weights.cache_info() == before


def test_four_threads_give_the_serial_series():
    """8 tables at 160 means share 160 weight tables, more than the 128 kept, so the
    threads keep evicting each other's while they read; every value is the serial one,
    each worked out from an empty table."""
    harmonic = [F(1, k + 1) for k in range(1500)]
    tables = [SERIES_TABLES[name] for name in ("exact", "float", "stress", "stress-float")]
    tables += [TailSequence.from_values(harmonic), TailSequence.from_values(map(float, harmonic)),
               tail_sequence(random_mid_mass(random.Random(8)), 300),
               TailSequence.from_values(map(float, harmonic[:400]))]
    params = ShockModelParams(lam=1)
    tasks = [(i, 20.0 + 5.5 * j) for i in range(len(tables)) for j in range(160)]  # to 894.5
    serial = {(i, mu): repr(cold_value(tables[i], params, mu)) for i, mu in tasks}
    _kept_weights.cache_clear()
    got, errors = [], []

    def work(seed):
        order = tasks * 2
        random.Random(seed).shuffle(order)
        try:
            got.extend(((i, mu), repr(refused_or_value(survival, tables[i], params, mu)))
                       for i, mu in order)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(got) == 4 * 2 * len(tasks)
    assert all(v == serial[key] for key, v in got)
    info = _kept_weights.cache_info()
    assert info.currsize == 128 < 160 < info.misses


def invert(tail, u, model, ratio):
    tail = np.asarray(tail, dtype=float)
    return _invert_tail(tail, _guide_table(tail), np.asarray(u, dtype=float), model, ratio)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_invert_tail_body_and_continuations():
    tail = np.array([1.0, 0.5, 0.25])
    u = np.array([0.6, 0.5, 0.26, 0.9999])
    j = invert(tail, u, "none", None)
    assert list(j) == [1, 2, 2, 1]  # P(J = 0) is 1 - tail[0] = 0
    # below the stored range each model extends differently
    u = np.array([0.125, 0.124, 0.2])
    assert list(invert(tail, u, "geometric", 0.5)) == [3, 4, 3]
    tail2 = np.array([1.0, 0.5])
    # harmonic: P(J > j) continues as 0.5 * 2 / (j + 1)
    assert list(invert(tail2, [0.25], "harmonic", None)) == [4]
    assert list(invert(tail, [0.1], "none", None)) == [3]


def searched_inverse(tail, u, model, ratio):
    """Reference inversion: one search over the tabulated range, then the model's
    continuation for draws with u <= tail[K]."""
    K = len(tail) - 1
    j = np.empty(len(u), dtype=np.int64)
    body = u > tail[K]
    j[body] = K + 1 - np.searchsorted(tail[::-1], u[body], side="left")
    rest = ~body
    if model == "none":
        j[rest] = K + 1
    elif model == "harmonic":
        below = np.minimum(np.floor((K + 1) / (u[rest] / tail[K])), 2.0**63 - 1024)
        j[rest] = below.astype(np.int64)
    else:
        steps = np.ceil(np.log(u[rest] / tail[K]) / math.log(ratio))
        j[rest] = K + np.maximum(steps.astype(np.int64), 1)
    return j


DYADIC = st.integers(0, 4 * _GUIDE).map(lambda i: i / (4 * _GUIDE))
TAILS = st.tuples(
    st.lists(st.one_of(DYADIC, st.floats(0, 1)), min_size=1, max_size=40),
    st.booleans(),
).map(lambda tz: sorted(tz[0], reverse=True) + [0.0] * tz[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(TAILS, st.lists(st.integers(1, _GUIDE - 1), max_size=20),
       st.lists(st.floats(1e-300, 1, exclude_max=True), max_size=20))
def test_guided_inversion_matches_the_search(tail, buckets, uniforms):
    """Draws sit on bucket edges, on the tail values and either side of them."""
    tail = np.array(tail)
    near = np.concatenate([tail, np.nextafter(tail, 0), np.nextafter(tail, 2)])
    u = np.concatenate([[1e-300], np.array(buckets) / _GUIDE, near, uniforms])
    u = u[(u > 0) & (u < 1)]
    K = len(tail) - 1
    ratio = tail[K] / tail[K - 1] if K and 0 < tail[K] < tail[K - 1] else 0.5
    for model in ("none", "harmonic", "geometric"):
        got = _invert_tail(tail, _guide_table(tail), u, model, ratio)
        want = searched_inverse(tail, u, model, ratio)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), model


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model, ratio, want", [("none", None, 3), ("geometric", 0.006, 136),
                                                ("harmonic", None, 2**63 - 1024)])
def test_invert_tail_at_the_smallest_uniform(model, ratio, want):
    """The simulators clamp a uniform of 0.0 to 1e-300. Every model maps it to a positive
    int64 index that ``gamma`` takes as a shape; harmonic's (K+1)/(u/tail[K]) = 9e297
    stops at the largest float below 2**63 instead of wrapping to -2**63 in the cast."""
    j = invert([1, 0.5, 0.003], [1e-300], model, ratio)
    assert j.dtype == np.int64 and list(j) == [want]
    assert np.random.default_rng(0).gamma(j.astype(np.float64)) > 0


def test_simulate_failure_times_unit_atom():
    params = ShockModelParams(lam=1, time_grid=(0.5, 1.0, 2.0))
    sim = simulate_failure_times(point_mass(1), params, 20000, 7, K=50)
    for t, e, se, a in zip(sim.grid, sim.empirical, sim.std_err, sim.analytic):
        assert abs(a - math.exp(-t)) < 1e-10
        assert abs(e - a) < 3 * se


def test_simulate_failure_times_deterministic():
    params = ShockModelParams(lam=2, time_grid=(0.5, 1.0))
    a = simulate_failure_times(point_mass("1/2"), params, 5000, 42, K=120)
    b = simulate_failure_times(point_mass("1/2"), params, 5000, 42, K=120)
    assert a == b
    c = simulate_failure_times(point_mass("1/2"), params, 5000, 43, K=120)
    assert a.empirical != c.empirical


def test_simulate_failure_times_geometric_model():
    q = mix([(F(1, 2), point_mass("1/2")), (F(1, 2), point_mass(1))])
    params = ShockModelParams(lam=1, time_grid=(0.5, 1.0, 3.0))
    sim = simulate_failure_times(q, params, 20000, 3, tail_model="geometric", K=40)
    for e, se, a in zip(sim.empirical, sim.std_err, sim.analytic):
        assert abs(e - a) < 3.5 * se


def test_simulate_failure_times_harmonic_model():
    params = ShockModelParams(lam=1, time_grid=(0.5, 1.0, 2.0))
    sim = simulate_failure_times(CE, params, 20000, 11, tail_model="harmonic", K=200)
    for e, se, a in zip(sim.empirical, sim.std_err, sim.analytic):
        assert abs(e - a) < 3.5 * se


def test_simulate_refuses_silent_truncation():
    params = ShockModelParams(lam=1, time_grid=(1.0,))
    with pytest.raises(NumericError, match="tail_model"):
        simulate_failure_times(CE, params, 100, 0, K=200)
    with pytest.raises(ValidationError, match="unknown tail model"):
        simulate_failure_times(CE, params, 100, 0, tail_model="pareto")
    with pytest.raises(ValidationError, match="time_grid"):
        simulate_failure_times(point_mass(1), ShockModelParams(lam=1), 100, 0)


def test_geometric_tail_model_refuses_a_tail_flat_as_floats():
    """(1 - 10**-20)**k is 1.0 as a float, so there is no ratio to continue with."""
    params = ShockModelParams(lam=1, time_grid=(1.0,))
    with pytest.raises(NumericError, match="strictly decreasing positive tail"):
        simulate_failure_times(point_mass(F(1, 10**20)), params, 100, 0, tail_model="geometric")


def test_growing_n_keeps_the_replicate_prefix():
    """n = 16390 and 32775 straddle the 16384-replicate block: the larger run
    holds the smaller one's replicates, so its extra survivors are a count of
    extra replicates alive at t, never negative and never rising in t."""
    params = ShockModelParams(lam=1, time_grid=tuple(0.05 * i for i in range(1, 400)))
    counts = []
    for n in (16390, 32775):
        sim = simulate_failure_times(point_mass("1/2"), params, n, 9, K=80)
        counts.append([round(n * e) for e in sim.empirical])
    extra = [b - a for a, b in zip(*counts)]
    assert all(d >= 0 for d in extra)
    assert all(later <= earlier for earlier, later in zip(extra, extra[1:]))
    assert extra[0] > extra[-1]


def test_simulation_error_shrinks_like_root_n():
    params = ShockModelParams(lam=1, time_grid=(1.0,))
    small = simulate_failure_times(point_mass("1/2"), params, 4000, 5, K=120)
    big = simulate_failure_times(point_mass("1/2"), params, 16000, 5, K=120)
    ratio = small.std_err[0] / big.std_err[0]
    assert abs(ratio - 2.0) < 0.2


def test_simulated_survival_report_shapes():
    params = ShockModelParams(lam=1, time_grid=(1.0, 2.0))
    sim = simulate_failure_times(point_mass(1), params, 500, 1, K=40)
    lines = sim.to_csv().splitlines()
    assert lines[0] == "t,empirical,std_err,analytic"
    assert len(lines) == 3
    doc = sim.to_json_dict()
    assert doc["n"] == 500 and doc["seed"] == 1
    assert [r["t"] for r in doc["rows"]] == [1.0, 2.0]
    json.dumps(doc)


def test_de_finetti_unit_atom_is_exact():
    sim = simulate_de_finetti(point_mass(1), (0.25, 0.5, 0.75), 400, 9)
    assert sim.empirical == sim.grid  # N == 1 with certainty, so mean z**N == z
    assert sim.std_err == (0.0, 0.0, 0.0)
    assert sim.analytic == sim.grid


def test_de_finetti_matches_pgf():
    q = MixingDistribution(segments=(Segment(0, 1, 1),))
    sim = simulate_de_finetti(q, ("1/4", "1/2", "3/4"), 20000, 13)
    for e, se, a in zip(sim.empirical, sim.std_err, sim.analytic):
        assert abs(e - a) < 3.5 * se
    rerun = simulate_de_finetti(q, ("1/4", "1/2", "3/4"), 20000, 13)
    assert sim == rerun


def test_de_finetti_guards():
    with pytest.raises(ValidationError, match="support"):
        simulate_de_finetti(CE, (0.5,), 100, 0)
    with pytest.raises(ValidationError, match="outside"):
        simulate_de_finetti(point_mass(1), (1.5,), 100, 0)
    with pytest.raises(ValidationError, match="non-empty"):
        simulate_de_finetti(point_mass(1), (), 100, 0)
    with pytest.raises(ValidationError, match="replicate count"):
        simulate_de_finetti(point_mass(1), (0.5,), 0, 0)
    with pytest.raises(ValidationError, match="seed"):
        simulate_de_finetti(point_mass(1), (0.5,), 100, -1)


class Drew(Exception):
    """Raised by a stream that a refused call must never open."""


def no_streams(seed, index):
    raise Drew(seed, index)


def test_refused_laws_are_refused_before_any_draw(monkeypatch):
    monkeypatch.setattr(shock_model, "_stream", no_streams)
    thin = MixingDistribution(atoms=(Atom("1/2", "1/2"),),
                              segments=(Segment(F(1, 3), F(1, 3) + F(1, 10**9), F(10**9, 2)),))
    with pytest.raises(ValidationError, match="misstate the segment mass"):
        simulate_de_finetti(thin, (0.5,), 10**6, 0)
    params = ShockModelParams(lam=1, time_grid=(1.0, 100.0))
    with pytest.raises(ValidationError, match="tail sequence too short"):
        simulate_failure_times(point_mass(1), params, 10**6, 0, K=5)


#: Mass 1e-13 at 3/2 and the rest on [0, 1): a float law that ``classify_support`` puts in
#: the middle ground, however little mass lies beyond 1.
DUST_BEYOND_ONE = MixingDistribution(atoms=(Atom(1.5, 1e-13),),
                                     segments=(Segment(0.0, 1.0, 1 - 1e-13),))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(q=st.integers(0, 10**6).map(family_law))
@example(q=DUST_BEYOND_ONE)
def test_de_finetti_refuses_what_classify_support_puts_outside_the_unit(q):
    """A law, exact or its float copy, is refused before any draw exactly when
    ``classify_support`` does not call it unit-support; a unit law reaches its first draw."""
    for law in (q, float_copy(q)):
        if law is None:
            continue
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shock_model, "_stream", no_streams)
            if classify_support(law).verdict == VERDICT_UNIT_SUPPORT:
                with pytest.raises(Drew):
                    simulate_de_finetti(law, (0.5,), 10, 0)
            else:
                with pytest.raises(ValidationError, match=r"support must sit inside \(0, 1\]"):
                    simulate_de_finetti(law, (0.5,), 10, 0)


@pytest.mark.parametrize("n", [2**45, 2**61])
def test_unallocatable_replicate_count_is_refused(n, monkeypatch):
    """Neither buffer fits the 2**47-byte user address space of x86-64 or the
    largest array size numpy allows, so both refusals come at once whatever
    the overcommit policy."""
    monkeypatch.setattr(shock_model, "_stream", no_streams)
    params = ShockModelParams(lam=1, time_grid=(1.0,))
    with pytest.raises(ValidationError, match=f"replicate count n={n} is too large"):
        simulate_failure_times(point_mass(1), params, n, 0, K=50)
    with pytest.raises(ValidationError, match=f"replicate count n={n} is too large"):
        simulate_de_finetti(point_mass(1), (0.5,), n, 0)


def test_params_validation():
    with pytest.raises(ValidationError):
        ShockModelParams(lam=0)
    with pytest.raises(ValidationError):
        ShockModelParams(lam=1, series_tol=2.0)
    with pytest.raises(ValidationError):
        ShockModelParams(lam=1, time_grid=(1.0, 0.5))
    with pytest.raises(ValidationError):
        ShockModelParams(lam=1, time_grid=(-1.0,))
    p = ShockModelParams(lam="2/3", time_grid=(F(1, 2), 1))
    assert p.lam == F(2, 3) and p.time_grid == (0.5, 1.0)


def test_series_tol_given_as_text_is_stored_parsed():
    """A string tolerance is stored as the number it reads as, so the series gets the same
    truncation, and the same values, as from the float."""
    t_seq = tail_sequence(CE, 220)
    text, number = ShockModelParams(lam=1, series_tol="1e-12"), ShockModelParams(lam=1)
    assert text.series_tol == F(1, 10**12) and float(text.series_tol) == number.series_tol
    assert [survival(t_seq, text, t) for t in (0, 0.5, 1, 4, 30)] == [
        survival(t_seq, number, t) for t in (0, 0.5, 1, 4, 30)]
