"""Measure construction, the integrals against a law, and serialization."""

import json
import math
import pickle
import random
from fractions import Fraction as F

import numpy as np
import pytest

from shockpgf import (
    Atom,
    MixingDistribution,
    NumericError,
    Segment,
    ShockModelParams,
    ValidationError,
    counterexample_tail,
    counterexample_tail_sequence,
    difference_table,
    exp_mixture_survival,
    expected_shocks,
    geometric_pmf,
    is_exact,
    jsonable,
    laplace,
    laplace_order_bounds,
    lemma22_coefficients,
    mass_on,
    mix,
    monotonicity_condition,
    parse_number,
    pgf_bounds,
    pgf_eval,
    point_mass,
    rate_mixture,
    resistance_gf,
    sdfr_skeleton_check,
    simulate_de_finetti,
    simulate_failure_times,
    tail_sequence,
)
from shockpgf.families import random_unit_support
from shockpgf.pgf_core import _RULE, _quadrature, counterexample_Q, counterexample_params

CE = counterexample_Q(counterexample_params("1/7", "2/3"))
UNIFORM = MixingDistribution(segments=(Segment(0, 1, 1),))  # density 1 on [0, 1)


def test_parse_number_keeps_rationals_exact():
    assert parse_number("1/7") == F(1, 7)
    assert parse_number("0.5") == F(1, 2)
    assert parse_number(3) == F(3)
    assert isinstance(parse_number(0.25), float)
    assert is_exact(parse_number("2/3"))
    assert not is_exact(0.5)
    # mantissa digits plus |exponent| up to the 4300-digit limit
    assert parse_number("1e4299") == 10**4299
    assert parse_number("1E-4299") == F(1, 10**4299)
    assert parse_number("2.5e-1") == parse_number(" 25E-2 ") == F(1, 4)


# the last five pass the digit limit: a numerator or denominator that would not print
@pytest.mark.parametrize("bad", [True, "1/0", "abc", None, "1e4300", "12e4299", "1e-4300",
                                 "-2.5E+9000", "1e1000000"])
def test_parse_number_rejects(bad):
    with pytest.raises(ValidationError):
        parse_number(bad)


def test_point_mass_and_uniform_constructors():
    q = point_mass("1/2")
    assert q.atoms == (Atom(F(1, 2), F(1)),)
    u = MixingDistribution(segments=(Segment(0, 1, 1),))
    assert u.segments[0].density == F(1)
    assert u.total_mass == 1 and u.exact


@pytest.mark.parametrize(
    "atoms,segments",
    [
        ((Atom(F(0), F(1)),), ()),                        # mass at the origin
        ((Atom(F(1, 2), F(2)),), ()),                     # mass above 1
        ((Atom(F(1, 2), F(1, 2)),), ()),                  # total mass below 1
        ((Atom(F(1, 2), F(1, 2)), Atom(F(1, 2), F(1, 2))), ()),  # duplicate atom
        ((), (Segment(F(1), F(1, 2), F(1)),)),            # reversed endpoints
        ((), (Segment(F(0), F(1), F(1, 2)), Segment(F(1, 2), F(2), F(1, 3)))),  # overlap
        ((), (Segment(F(0), F(1), F(-1)),)),              # negative density
    ],
)
def test_constructor_rejects_invalid(atoms, segments):
    with pytest.raises(ValidationError):
        MixingDistribution(atoms, segments)


def test_constructor_rejects_nan_density():
    # every comparison with NaN is false, so only an explicit check refuses it
    with pytest.raises(ValidationError, match="density=nan is not finite"):
        MixingDistribution(segments=(Segment(0.0, 0.5, 2.0), Segment(0.5, 1.0, math.nan)))


def test_constructor_rejects_infinite_atom():
    with pytest.raises(ValidationError, match="atom y=inf is not finite"):
        MixingDistribution(atoms=(Atom(0.5, 0.5), Atom(math.inf, 0.5)))
    with pytest.raises(ValidationError, match="hi=inf is not finite"):
        MixingDistribution(segments=(Segment(0.0, 1.0, 1.0), Segment(1.0, math.inf, 0.0)))


def test_constructor_parses_every_scalar():
    """Strings parse exactly and ints become Fraction, as read from JSON, so the JSON bytes
    stay; a bool or another type is refused when the law is built, not in a report."""
    q = MixingDistribution((Atom("1/2", "1/4"),), (Segment("0", 1, "3/4"),))
    assert q == MixingDistribution((Atom(F(1, 2), F(1, 4)),), (Segment(F(0), F(1), F(3, 4)),))
    assert {type(x) for part in (*q.atoms, *q.segments) for x in part._values} == {F}
    assert json.dumps(MixingDistribution((Atom(1, 1),)).to_json_dict()) == (
        '{"atoms": [{"y": 1, "p": 1}], "segments": []}')
    for bad in (True, None, [1]):
        with pytest.raises(ValidationError, match="expected a number"):
            MixingDistribution((Atom(bad, 1),))
        with pytest.raises(ValidationError, match="expected a number"):
            MixingDistribution(segments=(Segment(0, 1, bad),))


@pytest.mark.parametrize("make, reason", [
    (lambda: MixingDistribution((Atom(-1, 1),)), "atom location -1 is negative"),
    (lambda: MixingDistribution(segments=(Segment(-1, 1, F(1, 2)),)),
     "segment lower endpoint -1 is negative"),
    (lambda: MixingDistribution.from_json_dict([{"y": 1, "p": 1}]), "must be a JSON object"),
    (lambda: mix([(-1, point_mass(1)), (2, point_mass(2))]), "mixture weight -1 is negative"),
], ids=["negative-atom", "negative-segment", "not-an-object", "negative-weight"])
def test_measures_refusals(make, reason):
    with pytest.raises(ValidationError, match=reason):
        make()


def test_float_mass_tolerance():
    MixingDistribution(atoms=(Atom(0.5, 0.5 + 4e-13), Atom(0.75, 0.5),))
    with pytest.raises(ValidationError):
        MixingDistribution(atoms=(Atom(0.5, 0.5 + 1e-9), Atom(0.75, 0.5),))


def test_counterexample_structure():
    assert CE.segments[0] == Segment(F(0), F(1), F(1, 3))
    assert CE.segments[1] == Segment(F(1), F(8, 7), F(14, 3))
    assert CE.total_mass == 1 and CE.exact


def test_power_zero_is_total_mass():
    for q in (CE, point_mass(1), UNIFORM,
              MixingDistribution(atoms=(Atom(0.3, 0.25), Atom(1.2, 0.75)))):
        v = tail_sequence(q, 0).values[0]
        assert abs(v - 1) <= 1e-12
        if q.exact:
            assert v == 1


def test_exact_moments():
    assert pgf_bounds(point_mass(1), "1/2").mean_y == 1
    assert pgf_bounds(UNIFORM, "1/2").mean_y == F(1, 2)
    assert pgf_bounds(CE, "1/2").mean_y == F(37, 42)
    assert tail_sequence(CE, 2).values[1:] == (F(5, 42), F(17, 147))


def test_int_built_law_has_exact_mean():
    # ints are exact data: (hi*hi - lo*lo)/2 must not fall into float division
    b = pgf_bounds(MixingDistribution(segments=(Segment(0, 1, 1),)), "1/2")
    assert b.mean_y == F(1, 2) and isinstance(b.mean_y, F)
    assert b.upper == F(1, 3) and isinstance(b.upper, F)


def test_reciprocal_divergence_declared():
    assert expected_shocks(CE) == math.inf
    assert expected_shocks(UNIFORM) == math.inf
    # away from the origin the integral is finite and exact for atoms
    assert expected_shocks(point_mass("1/2")) == 2
    v = expected_shocks(MixingDistribution(segments=(Segment("1/2", 1, 2),)))
    assert abs(v - 2 * math.log(2)) < 1e-15


def test_exp_decay_closed_form():
    assert abs(exp_mixture_survival(point_mass("1/2"), 3) - math.exp(-1.5)) < 1e-14
    v = exp_mixture_survival(UNIFORM, 2.0)
    assert abs(v - (1 - math.exp(-2)) / 2) < 1e-12
    assert exp_mixture_survival(UNIFORM, 0) == 1


@pytest.mark.parametrize("spec", [lambda q: tail_sequence(q, 4).values[2],
                                  lambda q: pgf_bounds(q, "1/2").mean_y,
                                  lambda q: exp_mixture_survival(q, "3/2"),
                                  lambda q: pgf_eval(q, "1/3")],
                         ids=[f"spec{i}" for i in range(4)])
@pytest.mark.parametrize("cut", [F(1, 3), F(9, 10)])
def test_segment_split_invariance(spec, cut):
    whole = UNIFORM
    split = MixingDistribution(
        segments=(Segment(F(0), cut, F(1)), Segment(cut, F(1), F(1)))
    )
    a = spec(whole)
    b = spec(split)
    if is_exact(a):
        assert a == b
    assert abs(float(a) - float(b)) <= 1e-12


def test_quadrature_tolerance_validation():
    with pytest.raises(ValidationError):
        pgf_eval(CE, 1)
    with pytest.raises(ValidationError):
        exp_mixture_survival(CE, -2)


def test_quadrature_takes_a_panel_of_nodes_and_is_exact_to_degree_29():
    """The integrand gets a panel's midpoint and half-width and returns the weighted sum
    over its 15 nodes; the 15-point rule integrates (k+1)*y**k over [0, 1] to 1 within
    1e-15 on the first split (the whole panel and its two halves), for every degree k up
    to 29."""
    for k in range(30):
        calls = []

        def g(mid, half):
            ys = [mid + half * x for x, _ in _RULE]
            calls.append((mid, half, ys))
            return math.fsum(w * ((k + 1) * y**k) for y, (_, w) in zip(ys, _RULE))

        assert abs(_quadrature(g, 0, 1, 1e-15) - 1) <= 1e-15, k
        assert [(mid, half) for mid, half, _ in calls] == [(0.5, 0.5), (0.25, 0.25),
                                                            (0.75, 0.25)], k
        assert [len(ys) for _, _, ys in calls] == [15, 15, 15], k
        assert all(0 < y < 1 and ys == sorted(ys) for _, _, ys in calls for y in ys)


def test_quadrature_refuses_a_bad_budget_and_stops_at_its_depth_limit():
    """A budget that is not positive is a usage error; a jump the rule cannot resolve ends
    in NumericError (CLI exit 3) after 48 bisections, not in a recursion without end."""
    with pytest.raises(ValidationError, match="tolerance -1 must be positive"):
        _quadrature(lambda mid, half: mid, 0.0, 1.0, -1)
    with pytest.raises(NumericError, match="did not converge"):
        _quadrature(lambda mid, half: math.fsum(w * float(mid + half * x > 1 / 3)
                                                for x, w in _RULE), 0.0, 1.0, 1e-12)


def test_cached_law_facts_stay_out_of_equality_json_and_pickle():
    """A law's float segments and means, once worked out, change none of its public
    faces, and an equal law built separately works out the same values."""
    makers = (lambda: counterexample_Q(counterexample_params("1/7", "2/3")),
              lambda: random_unit_support(random.Random(7)),
              lambda: MixingDistribution.from_json_dict(
                  {"atoms": [{"y": 0.5, "p": 0.25}],
                   "segments": [{"lo": 0.0, "hi": 0.75, "density": 1.0}]}))
    assert list(MixingDistribution._fields) == ["atoms", "segments"]
    for make in makers:
        filled, fresh = make(), make()
        bounds = pgf_bounds(filled, 0.5)
        assert {"_live_segments", "_means"} <= set(vars(filled))
        assert not {"_live_segments", "_means"} & set(vars(fresh))
        assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)
        assert filled.to_json_dict() == fresh.to_json_dict() == jsonable(fresh)
        assert jsonable(filled) == jsonable(fresh)
        assert pickle.dumps(filled) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(filled))
        assert back == fresh and not {"_live_segments", "_means"} & set(vars(back))
        assert (bounds.mean_y, bounds.mean_shocks) == filled._means == fresh._means
        assert filled._live_segments == fresh._live_segments
        assert pgf_bounds(fresh, 0.5) == bounds == pgf_bounds(back, 0.5)


def test_mass_on_boundaries():
    assert mass_on(CE, 0, 1, include_hi=True) == F(1, 3)
    assert mass_on(CE, 1, 2) == F(2, 3)
    assert mass_on(CE, 2, math.inf, include_lo=True) == 0
    q = point_mass(2)
    assert mass_on(q, 2, math.inf, include_lo=True) == 1
    assert mass_on(q, 2, math.inf, include_lo=False) == 0
    assert mass_on(q, 0, 2, include_hi=True) == 1
    with pytest.raises(ValidationError):
        mass_on(q, 3, 1)


def test_mass_on_additive_over_partition():
    rng = random.Random(5)
    for _ in range(10):
        q = random_unit_support(rng)
        cuts = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        parts = [mass_on(q, a, b, include_hi=(b == 1)) for a, b in zip(cuts, cuts[1:])]
        atoms_at_cut = sum(a.p for a in q.atoms if a.y in cuts[1:-1])
        assert sum(parts) + atoms_at_cut == 1


def test_mix_merges_overlapping_segments():
    m = mix([(F(1, 2), CE), (F(1, 2), UNIFORM)])
    assert m.exact and m.total_mass == 1
    # segment pieces must not overlap and must reproduce interval masses
    for left, right in zip(m.segments, m.segments[1:]):
        assert left.hi <= right.lo
    assert mass_on(m, 1, 2) == F(1, 3)
    assert mass_on(m, 0, 1) == F(2, 3)


def test_mix_skips_zero_weights_and_joins_equal_neighbours():
    assert mix([(0, point_mass(2)), (1, point_mass(1))]) == point_mass(1)
    # [0, 1/2) and [1/2, 1) at density 1 each become one segment
    m = mix([(F(1, 2), MixingDistribution(segments=(Segment(0, F(1, 2), 2),))),
             (F(1, 2), MixingDistribution(segments=(Segment(F(1, 2), 1, 2),)))])
    assert m.segments == UNIFORM.segments


def test_mix_merges_coinciding_atoms():
    m = mix([(F(1, 2), point_mass(1)), (F(1, 2), point_mass(1))])
    assert m.atoms == (Atom(F(1), F(1)),)


def test_json_round_trip():
    doc = CE.to_json_dict()
    assert doc["segments"][1]["hi"] == "8/7"
    assert MixingDistribution.from_json_dict(doc) == CE
    text = json.dumps(doc)
    assert MixingDistribution.from_json_dict(json.loads(text)) == CE


def test_jsonable_is_one_rule_for_scalars_containers_and_reports():
    assert [jsonable(x) for x in (F(3), F(-5, 7), 4, 0.5, np.float64(0.25), np.int64(2))] == [
        3, "-5/7", 4, 0.5, 0.25, 2.0]
    assert [jsonable(x) for x in (True, None, "inf")] == [True, None, "inf"]
    assert jsonable({"a": (F(1, 2), [F(2)])}) == {"a": ["1/2", [2]]}
    b = pgf_bounds(point_mass("1/2"), F(1, 2))
    assert list(jsonable(b)) == ["z", "lower", "phi", "upper", "upper_is_geometric",
                                 "mean_y", "mean_shocks"]
    assert jsonable(b)["upper_is_geometric"] is True
    # private fields such as a table's cached numerators stay out
    assert jsonable(tail_sequence(point_mass("1/2"), 1)) == {"values": [1, "1/2"]}


def test_json_round_trip_random_families():
    rng = random.Random(17)
    for _ in range(20):
        q = random_unit_support(rng)
        assert MixingDistribution.from_json_dict(q.to_json_dict()) == q


@pytest.mark.parametrize("value", [5, "ab", {"lo": 0, "hi": 1, "density": 1}, 0, "", True])
def test_from_json_refuses_parts_that_are_not_lists(value):
    """Only a list, null or an absent key is read: a string is not read a character at a
    time, a dict not a key at a time, and a falsy scalar is not an empty list."""
    with pytest.raises(ValidationError, match="'segments' must be a list"):
        MixingDistribution.from_json_dict({"atoms": [{"y": 1, "p": 1}], "segments": value})
    assert MixingDistribution.from_json_dict(
        {"atoms": [{"y": 1, "p": 1}], "segments": None}) == point_mass(1)


def test_from_json_names_offending_field():
    with pytest.raises(ValidationError, match=r"atoms\[0\].*'p'"):
        MixingDistribution.from_json_dict({"atoms": [{"y": 1}]})
    with pytest.raises(ValidationError, match=r"segments\[1\].*'density'"):
        MixingDistribution.from_json_dict(
            {"segments": [{"lo": 0, "hi": "1/2", "density": 1},
                          {"lo": "1/2", "hi": 1}]}
        )


_P = counterexample_params("1/7", "2/3")
_HALF = point_mass("1/2")
_PARAMS = ShockModelParams(lam=1, time_grid=(1.0,))

#: every count argument the library takes, as a call with that argument
COUNT_GUARDS = {
    "tail_sequence": lambda x: tail_sequence(_HALF, x),
    "geometric_pmf": lambda x: geometric_pmf("1/2", x),
    "lemma22_coefficients": lambda x: lemma22_coefficients(geometric_pmf("1/2"), x),
    "counterexample_tail": lambda x: counterexample_tail(_P, x),
    "counterexample_tail_sequence": lambda x: counterexample_tail_sequence(_P, x),
    "monotonicity_condition": lambda x: monotonicity_condition(_P, x),
    "difference_table": lambda x: difference_table((1, F(1, 2)), x),
    "skeleton_J": lambda x: sdfr_skeleton_check(tail_sequence(_HALF, 80), _PARAMS, 0.5, x),
    "skeleton_n_points": lambda x: sdfr_skeleton_check(tail_sequence(_HALF, 80), _PARAMS,
                                                       0.5, 2, x),
    "simulate_n": lambda x: simulate_failure_times(_HALF, _PARAMS, x, 0, K=80),
    "simulate_seed": lambda x: simulate_failure_times(_HALF, _PARAMS, 10, x, K=80),
}


@pytest.mark.parametrize("bad", [-1, True, 1.5, "3"])
@pytest.mark.parametrize("site", sorted(COUNT_GUARDS))
def test_count_guards_refuse_non_integers(site, bad):
    """One shared check; a bool is no count, for geometric_pmf and sampling too."""
    with pytest.raises(ValidationError, match="integer"):
        COUNT_GUARDS[site](bad)


def test_open_interval_guards():
    q = point_mass("1/2")
    for bad in (0, -1, 1, 2, math.nan, math.inf):
        for call in (lambda z: pgf_eval(q, z), lambda z: resistance_gf(q, z),
                     lambda z: pgf_bounds(q, z), lambda z: simulate_de_finetti(q, [z], 10, 0)):
            with pytest.raises(ValidationError, match=r"outside \(0, 1\)"):
                call(bad)
    for bad in (0, -1, math.nan, math.inf):
        for call in (lambda x: laplace(q, x, 1), lambda x: laplace_order_bounds(q, x, 1),
                     lambda x: rate_mixture(q, x), lambda x: ShockModelParams(lam=x)):
            with pytest.raises(ValidationError, match="arrival rate lam=.* must be positive"):
                call(bad)
        for call in (lambda x: laplace(q, 1, x), lambda x: laplace_order_bounds(q, 1, x)):
            with pytest.raises(ValidationError, match="frequency s=.* must be positive"):
                call(bad)
