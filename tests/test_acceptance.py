"""Top-level acceptance checks, one test per numbered criterion.

Each test prints a PASS or FAIL line straight to the terminal so a plain
pytest run doubles as a readable scorecard. Monte Carlo comparisons use
3-standard-error bands; everything rational is compared exactly.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np

from shockpgf import (
    MixingDistribution,
    Segment,
    ShockModelParams,
    TailSequence,
    counterexample_Q,
    counterexample_params,
    counterexample_tail_sequence,
    difference_table,
    expected_shocks,
    geometric_pmf,
    is_completely_monotone,
    laplace,
    lemma22_coefficients,
    pgf_bounds,
    point_mass,
    sdfr_skeleton_check,
    simulate_de_finetti,
    simulate_failure_times,
    survival,
    tail_sequence,
    tail_validity,
)
from shockpgf.families import (
    random_admissible_params,
    random_mid_mass,
    random_unit_support,
    random_with_mass_beyond_two,
)

CE_PARAMS = counterexample_params("1/7", "2/3")
CE = counterexample_Q(CE_PARAMS)


@contextmanager
def criterion(capsys, num, desc):
    """Print one scorecard line per criterion, bypassing pytest capture."""
    notes = []
    try:
        yield notes
    except BaseException:
        with capsys.disabled():
            print(f"FAIL criterion {num}: {desc}", flush=True)
        raise
    detail = f" ({'; '.join(notes)})" if notes else ""
    with capsys.disabled():
        print(f"PASS criterion {num}: {desc}{detail}", flush=True)


def floated(t_seq: TailSequence) -> TailSequence:
    return TailSequence.from_values([float(v) for v in t_seq.values])


def test_criterion_01_counterexample_reproduction(capsys):
    with criterion(capsys, 1, "counterexample tails decrease yet fail CM at order 2") as notes:
        start = time.perf_counter()
        t = counterexample_tail_sequence(CE_PARAMS, 200)
        assert t.exact
        assert t.values[0] == 1
        assert all(isinstance(v, (int, F)) for v in t.values)
        assert all(v > 0 for v in t.values)
        assert all(a > b for a, b in zip(t.values, t.values[1:]))
        ok, first = is_completely_monotone(t, 12, 0)
        assert not ok
        assert first[0] == 2
        d2 = difference_table(t.values, 2).entries[2][first[1]]
        assert d2 < 0  # same sign as the reported -0.00523
        assert d2 == F(-121, 4116)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        notes.append(f"exact second difference {d2} = {float(d2):.5f}, "
                     f"reported value -0.00523 agrees in sign")
        notes.append(f"{elapsed:.2f}s")


def test_criterion_02_closed_form_matches_moments(capsys):
    with criterion(capsys, 2, "closed-form tails equal segment moments, 20 parameter pairs") as notes:
        start = time.perf_counter()
        rng = random.Random(20260814)
        pairs = [random_admissible_params(rng) for _ in range(20)] + [CE_PARAMS]
        for p in pairs:
            direct = counterexample_tail_sequence(p, 50)
            moments = tail_sequence(counterexample_Q(p), 50)
            assert direct.exact and moments.exact
            assert direct.values == moments.values, p
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        notes.append(f"{elapsed:.2f}s")


def test_criterion_03_unit_support_iff_cm(capsys):
    with criterion(capsys, 3, "unit support gives CM tails; mass in (1,2) breaks CM") as notes:
        for seed in range(100):
            q = random_unit_support(random.Random(seed))
            ok, first = is_completely_monotone(tail_sequence(q, 40), 12, 0)
            assert ok, (seed, first)
        worst = (0, 0)
        for seed in range(100):
            q = random_mid_mass(random.Random(seed))
            t = tail_sequence(q, 80)
            assert tail_validity(t)[0], seed
            ok, first = is_completely_monotone(t, 40, 0)
            assert not ok and first is not None, seed
            worst = max(worst, first)
        notes.append(f"100 seeds each way, deepest violation at (j, k) = {worst}")


def test_criterion_04_mass_beyond_two_kills_tails(capsys):
    with criterion(capsys, 4, "mass at or beyond 2 forces a tail-sequence violation") as notes:
        for seed in range(20):
            q = random_with_mass_beyond_two(random.Random(seed))
            ok, reason = tail_validity(tail_sequence(q, 50))
            assert not ok, seed
        notes.append("20 seeds, all rejected by order 50")


def test_criterion_05_transform_identity(capsys):
    from scipy.integrate import quad

    with criterion(capsys, 5, "p.g.f. at lam/(lam+s) equals the quadrature transform") as notes:
        worst = 0.0
        cases = {"atom(1)": point_mass(1), "atom(1/2)": point_mass("1/2"),
                 "counterexample": CE}
        for q in cases.values():
            t_float = floated(tail_sequence(q, 220))
            for lam in (0.5, 1.0, 2.0):
                params = ShockModelParams(lam=lam)
                for s in (0.5, 1.0, 2.0):
                    direct = float(laplace(q, lam, s))
                    # E exp(-sT) = 1 - s * integral of exp(-st) S(t);
                    # cutting at t = 19/s discards at most exp(-19)
                    integral, _ = quad(
                        lambda t: math.exp(-s * t) * survival(t_float, params, t),
                        0.0, 19.0 / s, limit=200)
                    err = abs(direct - (1.0 - s * integral))
                    worst = max(worst, err)
                    assert err < 1e-6, (q, lam, s, err)
        notes.append(f"27 cases, worst gap {worst:.2e}")


def test_criterion_06_geometric_coefficients(capsys):
    with criterion(capsys, 6, "geometric resistance recovers (1-y)^k exactly") as notes:
        for y in (F(4, 3), F(3, 2), F(2)):
            pmf = geometric_pmf(1 / y)
            coeffs = lemma22_coefficients(pmf, 20)
            for k, c in enumerate(coeffs):
                assert c == (1 - y) ** k, (y, k)
        notes.append("y in {4/3, 3/2, 2}, orders 0..20")


def test_criterion_07_order_bounds(capsys):
    with criterion(capsys, 7, "mixture value sits between the two-sided order bounds") as notes:
        grid = [F(k, 20) for k in range(1, 20)]
        for seed in range(100):
            q = random_unit_support(random.Random(seed))
            for z in grid:
                b = pgf_bounds(q, z)
                assert b.mean_y <= 1
                assert float(b.lower) <= float(b.phi) + 1e-8, (seed, z)
                assert float(b.phi) <= float(b.upper) + 1e-8, (seed, z)
        for z in grid:
            b = pgf_bounds(point_mass(1), z)
            assert b.lower == b.phi == b.upper == z
        notes.append("100 seeds on a 19-point grid, unit atom attains equality")


def test_criterion_08_survival_skeletons_stay_cm(capsys):
    with criterion(capsys, 8, "survival skeletons pass CM, counterexample included") as notes:
        params = ShockModelParams(lam=1, series_tol=1e-13)
        for seed in range(50):
            t_float = floated(tail_sequence(random_unit_support(random.Random(seed)), 200))
            for delta in (0.1, 1.0):
                ok, first = sdfr_skeleton_check(t_float, params, delta, 10)
                assert ok, (seed, delta, first)
        ce_tails = tail_sequence(CE, 400)
        assert not is_completely_monotone(ce_tails, 12, 0)[0]
        for delta in (0.1, 1.0):
            ok, first = sdfr_skeleton_check(floated(ce_tails), params, delta, 10)
            assert ok, (delta, first)
        notes.append("50 seeds at deltas 0.1 and 1; counterexample skeleton is CM "
                     "even though its tail sequence is not")


def test_criterion_09_monte_carlo(capsys):
    with criterion(capsys, 9, "seeded simulations track the analytic curves") as notes:
        start = time.perf_counter()
        params = ShockModelParams(lam=1, time_grid=(0.5, 1.0, 2.0, 4.0))
        sim = simulate_failure_times(CE, params, 100000, 2026,
                                     tail_model="harmonic", K=200)
        for t, e, se, a in zip(sim.grid, sim.empirical, sim.std_err, sim.analytic):
            assert abs(e - a) < 3 * se, (t, e, a, se)
        failure_time = time.perf_counter() - start
        assert failure_time < 10.0

        start = time.perf_counter()
        definetti = simulate_de_finetti(MixingDistribution(segments=(Segment(0, 1, 1),)),
                                        ("1/4", "1/2", "3/4"), 100000, 7)
        for z, e, se, a in zip(definetti.grid, definetti.empirical,
                               definetti.std_err, definetti.analytic):
            assert abs(e - a) < 3 * se, (z, e, a, se)
        definetti_time = time.perf_counter() - start
        assert definetti_time < 10.0
        notes.append(f"failure mode {failure_time:.2f}s, "
                     f"de Finetti {definetti_time:.2f}s, n = 100000, 3 s.e. bands")


def test_criterion_10_expected_shocks(capsys):
    with criterion(capsys, 10, "mean shock counts: exact value and detected divergence") as notes:
        assert expected_shocks(point_mass("1/2")) == 2
        assert expected_shocks(CE) == math.inf
        alpha, beta = 1.0 / 7.0, 2.0 / 3.0

        def partial_sum(K: int) -> float:
            k = np.arange(K + 1, dtype=np.float64)
            tails = ((1.0 - beta) + beta * (-alpha) ** k) / (k + 1.0)
            return float(np.sum(tails))

        s2, s3, s4 = partial_sum(10**2), partial_sum(10**3), partial_sum(10**4)
        decade = math.log(10.0) / 3.0  # tails behave like (1/3)/(k+1)
        assert s2 < s3 < s4
        assert abs((s3 - s2) - decade) < 5e-3
        assert abs((s4 - s3) - decade) < 5e-4
        notes.append(f"partial sums grow by {s4 - s3:.4f} per decade at K = 10^4, "
                     f"log rate is {decade:.4f}")
