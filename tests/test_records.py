"""The package's value types: each is built by keyword, compares and hashes on its fields,
prints its fields in order, refuses assignment and deletion, survives a pickle round trip
and renders its fields as JSON keys in declaration order."""

import pickle
from fractions import Fraction as F

import pytest

from shockpgf import (Atom, CounterexampleParams, DifferenceTable, LaplaceOrderBounds,
                      MixingDistribution, PgfBounds, PmfSequence, Segment, ShockModelParams,
                      SimulatedCurve, SupportClassification, TailSequence, jsonable)

# class: (fields in order with a value each, another valid value per field, repr)
CASES = {
    Atom: ({"y": F(1, 2), "p": F(1, 4)}, {"y": F(1, 3), "p": F(1, 5)},
           "Atom(y=Fraction(1, 2), p=Fraction(1, 4))"),
    Segment: ({"lo": F(0), "hi": F(1), "density": F(1, 2)},
              {"lo": F(1, 4), "hi": F(3, 4), "density": F(1, 3)},
              "Segment(lo=Fraction(0, 1), hi=Fraction(1, 1), density=Fraction(1, 2))"),
    MixingDistribution: (
        {"atoms": (Atom(F(1, 2), F(1, 2)),), "segments": (Segment(F(0), F(1), F(1, 2)),)},
        {"atoms": (Atom(F(1, 3), F(1, 2)),), "segments": (Segment(F(0), F(1, 2), F(1)),)},
        "MixingDistribution(atoms=(Atom(y=Fraction(1, 2), p=Fraction(1, 2)),), "
        "segments=(Segment(lo=Fraction(0, 1), hi=Fraction(1, 1), density=Fraction(1, 2)),))"),
    TailSequence: ({"values": (F(1), F(1, 2))}, {"values": (F(1), F(1, 3))},
                   "TailSequence(values=(Fraction(1, 1), Fraction(1, 2)))"),
    PmfSequence: ({"values": (F(1, 2), F(1, 4)), "tail_ratio": F(1, 2)},
                  {"values": (F(1, 2), F(1, 8)), "tail_ratio": F(1, 3)},
                  "PmfSequence(values=(Fraction(1, 2), Fraction(1, 4)), "
                  "tail_ratio=Fraction(1, 2))"),
    CounterexampleParams: ({"alpha": F(1, 7), "beta": F(2, 3)},
                           {"alpha": F(1, 5), "beta": F(1, 2)},
                           "CounterexampleParams(alpha=Fraction(1, 7), beta=Fraction(2, 3))"),
    DifferenceTable: ({"entries": ((F(1), F(1, 2)), (F(1, 2),))}, {"entries": ((F(1),),)},
                      "DifferenceTable(entries=((Fraction(1, 1), Fraction(1, 2)), "
                      "(Fraction(1, 2),)))"),
    SupportClassification: (
        {"verdict": "sdfr_support_in_unit", "m01": F(1), "m12": F(0), "m2": F(0)},
        {"verdict": "candidate_mass_in_1_2", "m01": F(1, 2), "m12": F(1, 2), "m2": F(1, 3)},
        "SupportClassification(verdict='sdfr_support_in_unit', m01=Fraction(1, 1), "
        "m12=Fraction(0, 1), m2=Fraction(0, 1))"),
    PgfBounds: (
        {"z": 0.5, "lower": 0.25, "phi": 0.3, "upper": 0.4, "upper_is_geometric": True,
         "mean_y": F(1, 2), "mean_shocks": F(2)},
        {"z": 0.25, "lower": 0.125, "phi": 0.2, "upper": 0.35, "upper_is_geometric": False,
         "mean_y": F(3, 2), "mean_shocks": F(3)},
        "PgfBounds(z=0.5, lower=0.25, phi=0.3, upper=0.4, upper_is_geometric=True, "
        "mean_y=Fraction(1, 2), mean_shocks=Fraction(2, 1))"),
    LaplaceOrderBounds: (
        {"s": 1.0, "lam": F(1), "lower": 0.25, "value": 0.3, "upper": 0.4,
         "upper_is_exponential": False},
        {"s": 2.0, "lam": F(2), "lower": 0.125, "value": 0.2, "upper": 0.35,
         "upper_is_exponential": True},
        "LaplaceOrderBounds(s=1.0, lam=Fraction(1, 1), lower=0.25, value=0.3, upper=0.4, "
        "upper_is_exponential=False)"),
    ShockModelParams: ({"lam": F(2), "series_tol": 1e-12, "time_grid": (0.0, 1.5)},
                       {"lam": F(3), "series_tol": 1e-9, "time_grid": (1.0,)},
                       "ShockModelParams(lam=Fraction(2, 1), series_tol=1e-12, "
                       "time_grid=(0.0, 1.5))"),
    SimulatedCurve: (
        {"column": "t", "grid": (0.5,), "empirical": (0.6,), "std_err": (0.01,),
         "analytic": (0.61,), "n": 10, "seed": 3},
        {"column": "z", "grid": (0.25,), "empirical": (0.5,), "std_err": (0.02,),
         "analytic": (0.51,), "n": 11, "seed": 4},
        "SimulatedCurve(column='t', grid=(0.5,), empirical=(0.6,), std_err=(0.01,), "
        "analytic=(0.61,), n=10, seed=3)"),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    given, other, shown = CASES[cls]
    obj, twin = cls(**given), cls(*given.values())
    assert obj == twin and hash(obj) == hash(twin) and obj is not twin
    assert repr(obj) == repr(twin) == shown
    assert list(jsonable(obj)) == list(cls._fields) == list(given)
    for name, value in other.items():  # each field, and only the fields, decides equality
        changed = cls(**{**given, name: value})
        assert changed != obj and changed == cls(**{**given, name: value})
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.unlisted = 1
    assert obj != tuple(given.values())  # nor is it equal to its values
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls and back == obj and repr(back) == shown


def test_a_tables_scaled_form_stays_out_of_equality_and_is_pickled():
    scaled = TailSequence((F(1), F(1, 2)), _scaled=((2, 1), 1, 2))
    plain = TailSequence((F(1), F(1, 2)))
    assert scaled == plain and hash(scaled) == hash(plain) and repr(scaled) == repr(plain)
    assert jsonable(scaled) == jsonable(plain) == {"values": [1, "1/2"]}
    assert pickle.loads(pickle.dumps(scaled))._scaled == ((2, 1), 1, 2)
    with pytest.raises(TypeError):
        TailSequence((F(1),), ((1,), 1, 1))  # ``_scaled`` is keyword-only
