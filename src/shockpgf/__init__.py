"""Mixture p.g.f. toolkit: measures, resistance tails, monotonicity, shock models.

Each public name is listed once, under the module that defines it; ``import shockpgf``
loads that module the first time one of its names is read (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("NumericError", "ValidationError"),
    "measures": ("MASS_TOL", "Atom", "MixingDistribution", "Num", "Segment", "is_exact",
                 "jsonable", "mass_on", "mix", "parse_number", "point_mass"),
    "pgf_core": ("CounterexampleParams", "PmfSequence", "TailSequence", "counterexample_Q",
                 "counterexample_params", "counterexample_tail",
                 "counterexample_tail_sequence", "geometric_pmf", "kernel",
                 "lemma22_coefficients", "monotonicity_condition", "pgf_eval",
                 "resistance_gf", "tail_sequence"),
    "sdfr_analysis": ("VERDICT_CANDIDATE", "VERDICT_NOT_PGF", "VERDICT_UNIT_SUPPORT",
                      "DifferenceTable", "LaplaceOrderBounds", "PgfBounds",
                      "SupportClassification", "classify_support", "difference_table",
                      "expected_shocks", "is_completely_monotone", "laplace_order_bounds",
                      "pgf_bounds", "tail_validity"),
    "shock_model": ("ShockModelParams", "SimulatedCurve", "exp_mixture_survival", "laplace",
                    "rate_mixture", "sdfr_skeleton_check",
                    "simulate_de_finetti", "simulate_failure_times", "survival"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the module that defines ``name``; a module of ``_EXPORTS`` is itself a name."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
