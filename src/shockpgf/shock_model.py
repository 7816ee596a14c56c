"""Poisson shock-count survival, transforms, and Monte Carlo checks.

A device absorbs shocks from a Poisson stream of rate lam and survives the
first k of them with probability u_k, the tail sequence of the failing
shock index J. Conditioning on the number of arrivals by time t gives

    S(t) = sum_k u_k * exp(-lam*t) * (lam*t)**k / k!

and the failure time is the sum of J exponential gaps, which is what the
simulator draws. When the resistance mixture lives on (0, 1] the same
survival function is a mixture of exponentials in disguise; the rate
mixture helpers expose that equivalence.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul

from .errors import NumericError, ValidationError
from .measures import (Atom, MixingDistribution, Num, Record, Segment, csv_text, integrate,
                       is_exact, parse_number, require_int, require_nonnegative, require_positive)
from .pgf_core import TailSequence, pgf_eval, require_tail, tail_sequence
from .sdfr_analysis import (VERDICT_UNIT_SUPPORT, _transform_point, classify_support,
                            is_completely_monotone)

_BLOCK = 1 << 14
_GUIDE = 1 << 14
_KEY_MASK = (1 << 64) - 1


class ShockModelParams(Record):
    """Arrival rate plus numeric knobs for the survival series.

    series_tol bounds the Poisson mass discarded by truncation; tails are
    at most one, so it also bounds the absolute series error. time_grid is
    the default evaluation grid for reports and simulations.
    """

    __slots__ = _fields = ("lam", "series_tol", "time_grid")

    def __init__(self, lam: Num, series_tol: float = 1e-12, time_grid: tuple[float, ...] = ()):
        super().__init__(require_positive(lam, "arrival rate lam"),
                         require_positive(series_tol, "series_tol", 1),
                         tuple(require_nonnegative(t, "time grid entries") for t in time_grid))
        if not float(self.series_tol):  # the series reads log(series_tol) as a float
            raise ValidationError("series_tol rounds to 0.0 as a float (below about 2.5e-324)")
        if any(b <= a for a, b in zip(self.time_grid, self.time_grid[1:])):
            raise ValidationError("time grid must be strictly increasing")


@lru_cache(maxsize=256)
def _truncation_order(mu: float, log_tol: float) -> int:
    """Smallest K whose Poisson(mu) mass beyond K is below tol = exp(log_tol), for mu > 0
    and log_tol < 0. The order depends on the two floats alone, and the same mu = lam*t
    comes back for every table on one time grid and lam (a skeleton's n*delta*lam, the
    exact and the float tails of one law, each law at that lam), so the last 256 orders
    are kept.

    Uses the Chernoff bound P(X >= m) <= exp(-mu) * (e*mu/m)**m, valid for
    m > mu, so the returned order is conservative. The exponent falls
    strictly in m there. The search starts at k = ceil(mu + sqrt(2*mu*L) +
    L/3) - 1, L = -log(tol), no lower than ceil(mu). In exact arithmetic
    the bound already holds there: this Bernstein-type start overshoots the
    Chernoff crossing by at most one order once mu > L, and by up to about
    L/3 for small mu. So the search walks down while the bound holds at
    k - 1. Where rounding breaks that, from mu of about 1.5e9, it doubles a
    step up from k and bisects. Past mu of about 1e10 the rounded exponent
    is no longer monotone, and K is one crossing within a few of the first;
    which one depends on where the search starts.
    """
    def bounded(k: int) -> bool:
        m = k + 1
        return -mu + m - m * math.log(m / mu) < log_tol

    floor = math.ceil(mu)
    k = max(floor, math.ceil(mu + math.sqrt(-2 * log_tol) * math.sqrt(mu) - log_tol / 3) - 1)
    if bounded(k):
        while k > floor and bounded(k - 1):
            k -= 1
        return k
    lo, step = k, 1
    while not bounded(lo + step):
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bounded(mid):
            hi = mid
        else:
            lo = mid
    return hi


def survival(t_seq: TailSequence, params: ShockModelParams, t) -> float:
    """Shock-model survival at time t, by the Poisson-weighted tail series.

    The series is truncated once the remaining Poisson mass drops below
    params.series_tol; raises if the stored tails do not reach that far.
    The weights run by the recurrence w_k = w_{k-1} * mu/k from exp(-mu),
    except where exp(-mu) is subnormal or zero (mu past about 708): there
    each weight is formed in log space and the terms are summed with fsum.
    The weights depend on mu = lam*t and the order alone, so the last 128
    tables of fewer than 2032 weights are kept by (mu, K) in ``_kept_weights``,
    within 8 MiB, and a later series is one multiply-add per term; a kept
    weight is the float the recurrence or the log-space formula gave, and
    the terms are added in the same order, so a kept table gives the bits of
    a fresh one.
    The table's ``violation`` (exact tails as rationals, before rounding) and
    ``floats`` are cached on it; a skeleton reads them once per curve.
    """
    return _curve(t_seq, params, (require_nonnegative(t, "time t={}"),))[0]


def _curve(t_seq: TailSequence, params: ShockModelParams, times) -> list[float]:
    """``survival`` at each time in turn, refusing as it would at the first time that
    fails; the table is validated and its floats, its order and log(series_tol) read once."""
    require_tail(t_seq)
    u, lam, have, curve = t_seq.floats, float(params.lam), t_seq.K, []
    log_tol = math.log(params.series_tol)  # ``ShockModelParams`` refuses a tol that floats to 0
    for t in times:
        t = require_nonnegative(t, "time t={}")
        mu = lam * t
        if mu == 0:
            curve.append(1.0)
            continue
        if mu == math.inf:
            raise ValidationError(f"lam*t at lam={params.lam} and t={t} overflows to inf")
        K = _truncation_order(mu, log_tol)
        if K > have:
            raise ValidationError(f"tail sequence too short: series at t={t} needs order {K}, "
                                  f"have {have}")
        curve.append(_series(u, mu, K))
    return curve


def _series(u: tuple[float, ...], mu: float, K: int) -> float:
    """sum_{k <= K} u_k e^{-mu} mu^k/k!, clamped to [0, 1], for mu > 0 and u_0 = 1."""
    m, w = (_kept_weights if K < 2032 else _poisson_weights)(mu, K)
    if m:
        # fsum rounds the exact sum once, so the order leaves the bits alone; from the
        # largest terms (k near mu) outward it keeps few partials and runs about 16x faster
        acc = math.fsum(map(mul, u[m:K + 1] + u[m - 1::-1], w))
    else:
        acc = 0.0
        for a, b in zip(u, w):
            acc += a * b
    return min(max(acc, 0.0), 1.0)


def _poisson_weights(mu: float, K: int) -> tuple[int, tuple[float, ...]]:
    """(m, w): the weights e^{-mu} mu^k/k! for k <= K in the order ``_series`` reads them,
    and where that order starts. m = 0: k = 0..K by the recurrence from exp(-mu). Where
    exp(-mu) is below the smallest normal float, m = int(mu), at least 708, and each weight
    is formed in log space, k = m..K and then m-1 down to 0."""
    w = math.exp(-mu)
    if w < sys.float_info.min:
        log_mu, m = math.log(mu), int(mu)
        return m, tuple(math.exp(k * log_mu - mu - math.lgamma(k + 1))
                        for k in chain(range(m, K + 1), reversed(range(m))))
    weights = [w]
    for k in range(1, K + 1):
        w *= mu / k
        weights.append(w)
    return 0, tuple(weights)


#: The last 128 weight tables of fewer than 2032 weights, by (mu, K): at most 8 MiB of
#: 32-byte slots (a float and its tuple slot). ``lru_cache`` is thread-safe; two threads
#: may build one table, and both builds hold the same floats.
_kept_weights = lru_cache(maxsize=128)(_poisson_weights)


def laplace(q: MixingDistribution, lam, s) -> Num:
    """Failure-time transform E[exp(-s*T)], read off the p.g.f. at lam/(lam+s)."""
    return pgf_eval(q, _transform_point(lam, s)[2])


def rate_mixture(q: MixingDistribution, lam) -> MixingDistribution:
    """Push q through y -> lam*y, giving the exponential-rate mixture.

    For q supported in (0, 1] the shock model's failure time is exactly an
    exponential with this random rate.
    """
    lam = require_positive(lam, "arrival rate lam")
    atoms = tuple(Atom(lam * a.y, a.p) for a in q.atoms)
    segments = tuple(Segment(lam * s.lo, lam * s.hi, s.density / lam) for s in q.segments)
    return MixingDistribution(atoms, segments)


def exp_mixture_survival(g: MixingDistribution, t) -> Num:
    """Survival E[exp(-t*R)] of an exponential mixture with random rate R ~ g.

    Exact at t = 0 for exact g; otherwise atoms give exp(-t*y) and a
    segment [lo, hi) gives exp(-t*lo) * -expm1(-t*(hi-lo)) / t per unit
    density, which does not cancel as t -> 0 the way the difference
    (exp(-t*lo) - exp(-t*hi)) / t does, and its t -> 0 limit hi - lo where an
    exact t > 0 floats to 0.0. For t > 0, scalars past the float range are refused.
    """
    t = parse_number(t)
    tf = require_nonnegative(t, "time t={}")
    if t == 0:
        val = integrate(g, lambda y: Fraction(1) if is_exact(y) else 1.0,
                        lambda lo, hi, d: d * (hi - lo))
    else:
        try:
            val = integrate(g, lambda y: math.exp(-tf * float(y)),
                            lambda lo, hi, d: d * (math.exp(-tf * float(lo))
                                                   * -math.expm1(-tf * float(hi - lo)) / tf
                                                   if tf else float(hi - lo)))
        except OverflowError:  # float() of an exact scalar past the float range
            raise ValidationError("a rate or density lies past the float range") from None
    if not is_exact(val):
        val = min(max(val, 0.0), 1.0)
    return val


def sdfr_skeleton_check(t_seq: TailSequence, params: ShockModelParams, delta, J: int,
                        n_points: int = 40):
    """Complete monotonicity of the survival skeleton S(0), S(delta), S(2*delta), ...

    Restricting a completely monotone function to an arithmetic grid gives
    a completely monotone sequence, so this checks a necessary face of the
    continuous-time property at any grid resolution. Returns the same
    (verdict, first_violation) pair as ``is_completely_monotone`` at tol
    1e-9, which is 1e-9 times the largest skeleton value S(0) = 1.

    The curve is ``survival`` at each grid point, from one validation of the table.
    """
    delta = float(require_positive(delta, "grid step delta"))
    require_int(J, "skeleton order", 1)
    if require_int(n_points, "skeleton length") < J + 1:
        raise ValidationError(f"need n_points >= J+1 = {J + 1}, have {n_points}")
    u = _curve(t_seq, params, (n * delta for n in range(n_points)))
    return is_completely_monotone(u, J, 1e-9)


def _stream(seed: int, index: int) -> np.random.Generator:
    import numpy as np
    key = np.array([seed & _KEY_MASK, index & _KEY_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _guide_table(tail: np.ndarray) -> np.ndarray:
    """Indexed search table for ``_invert_tail`` (Chen & Asau 1974).

    Bucket b covers u in [b/M, (b+1)/M), M = _GUIDE. Over it the index
    #{k: tail[k] >= u} falls from its value at b/M to its value at
    (b+1)/M; where the two agree the bucket holds that index, elsewhere -1.
    The edges b/M are exact floats, so the table decides exactly what the
    search would.
    """
    import numpy as np
    at = len(tail) - np.searchsorted(tail[::-1], np.arange(_GUIDE + 1) / _GUIDE, side="left")
    return np.where(at[:-1] == at[1:], at[:-1], -1)


def _invert_tail(tail: np.ndarray, guide: np.ndarray, u: np.ndarray, model: str,
                 ratio: float | None) -> np.ndarray:
    """Map uniforms u in (0, 1) to failing-shock indices by inverting P(J > k) = tail[k].

    J is #{k: tail[k] >= u}, read from ``guide = _guide_table(tail)``, with a
    search only for draws in buckets that straddle a tail value (at most
    K + 1 of the M buckets). Draws with u <= tail[K] land beyond the stored
    range and follow the declared continuation model; "none" assigns them
    the first untabulated index K + 1, which is why it demands negligible
    leftover mass.
    """
    import numpy as np
    K = len(tail) - 1
    j = guide[(u * _GUIDE).astype(np.int64)]
    miss = np.flatnonzero(j < 0)
    if len(miss):
        j[miss] = K + 1 - np.searchsorted(tail[::-1], u[miss], side="left")
    if model == "none":
        return j
    rest = np.flatnonzero(j > K)
    if not len(rest):
        return j
    cond = u[rest] / tail[K]
    if model == "harmonic":
        # at most the largest float below 2**63, so that u near 0 casts to int64
        j[rest] = np.minimum(np.floor((K + 1) / cond), 2.0**63 - 1024).astype(np.int64)
        return j
    steps = np.ceil(np.log(cond) / math.log(ratio))
    j[rest] = K + np.maximum(steps.astype(np.int64), 1)
    return j


def _location_table(q: MixingDistribution):
    """Cumulative component masses, then a base and a width per component:
    (y, 0.0) for an atom, (lo, hi - lo) for a segment."""
    import numpy as np
    weights = [float(a.p) for a in q.atoms] + [float(s.mass) for s in q.segments]
    base = [float(a.y) for a in q.atoms] + [float(s.lo) for s in q.segments]
    width = [0.0] * len(q.atoms) + [float(s.hi) - float(s.lo) for s in q.segments]
    return np.cumsum(weights), np.array(base), np.array(width)


def _draw_locations(table, n: int, rng: np.random.Generator) -> np.ndarray:
    """n locations from two uniform blocks of rng: the first picks the component by mass,
    the second places the draw inside a segment (an atom adds v * 0.0 to its location)."""
    import numpy as np
    cum, base, width = table
    u = rng.random(n) * cum[-1]
    v = rng.random(n)
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    return base[idx] + v * width[idx]


class SimulatedCurve(Record):
    """A simulator's report, one row per grid point: the empirical curve, its standard
    error and the analytic curve. ``column`` names the grid: "t" for shock-model
    survival over time, "z" for the generating function of a first-success count."""

    __slots__ = _fields = ("column", "grid", "empirical", "std_err", "analytic", "n", "seed")

    def _columns_rows(self):
        rows = zip(self.grid, self.empirical, self.std_err, self.analytic)
        return (self.column, "empirical", "std_err", "analytic"), rows

    def to_csv(self) -> str:
        return csv_text(*self._columns_rows())

    def to_json_dict(self) -> dict:
        columns, rows = self._columns_rows()
        return {"n": self.n, "seed": self.seed, "rows": [dict(zip(columns, r)) for r in rows]}


def simulate_failure_times(q: MixingDistribution, params: ShockModelParams, n: int, seed: int,
                           tail_model: str = "none", K: int = 200) -> SimulatedCurve:
    """Monte Carlo for the shock model against its analytic survival.

    Each replicate draws the failing shock index J by inverting the tail
    sequence of q, then the failure time as a gamma(J, 1/lam) variate.
    tail_model says how to continue the tails beyond order K: "geometric"
    (ratio matched at K), "harmonic" (1/(k+1) decay matched at K), or
    "none", which insists the leftover mass is below 1e-6.

    Replicates are generated in fixed-size blocks, each from its own
    counter-based stream derived from (seed, block), so the output depends
    only on (q, params, n, seed) and extending n preserves a common prefix.
    The analytic column, and with it every refusal, comes before the first
    draw, as does the allocation of the n-replicate buffer.
    """
    import numpy as np
    _check_sim_args(n, seed)
    if tail_model not in ("none", "geometric", "harmonic"):
        raise ValidationError(f"unknown tail model {tail_model!r}")
    if not params.time_grid:
        raise ValidationError("params.time_grid must be non-empty for a survival report")
    t_seq = tail_sequence(q, K)
    require_tail(t_seq)
    tail = np.array(t_seq.floats)
    leftover = tail[-1]
    ratio = None
    if tail_model == "none" and leftover > 1e-6:
        raise NumericError(f"mass {leftover:.3g} survives beyond order K={K}, above the "
                           "1e-06 cutoff; pass a tail_model or raise K")
    if tail_model == "geometric" and leftover > 0:
        if len(tail) < 2 or not 0 < tail[-1] < tail[-2]:
            raise NumericError("geometric tail model needs a strictly decreasing positive tail at K")
        ratio = float(tail[-1] / tail[-2])
    ana = tuple(_curve(t_seq, params, params.time_grid))
    guide = _guide_table(tail)
    lam = float(params.lam)
    times = _replicate_buffer(n)
    for b, start in enumerate(range(0, n, _BLOCK)):
        count = min(_BLOCK, n - start)
        u = _stream(seed, 2 * b).random(count)
        j = _invert_tail(tail, guide, np.maximum(u, 1e-300, out=u), tail_model, ratio)
        gaps = _stream(seed, 2 * b + 1).gamma(shape=j.astype(np.float64), scale=1.0 / lam)
        times[start:start + count] = gaps
    emp = tuple(float(np.count_nonzero(times > t) / n) for t in params.time_grid)
    se = tuple(math.sqrt(p * (1.0 - p) / n) for p in emp)
    return SimulatedCurve("t", params.time_grid, emp, se, ana, n, seed)


def simulate_de_finetti(q: MixingDistribution, z_grid, n: int, seed: int) -> SimulatedCurve:
    """Simulate the first-success count with success chance drawn from q.

    Requires q supported in (0, 1] as ``classify_support`` decides, to the last float of
    mass. Each replicate draws y from q and then a geometric count with success chance y;
    the empirical mean of z**N is compared with the mixture p.g.f. Block structure,
    determinism and the refusals before the first draw match ``simulate_failure_times``.
    """
    import numpy as np
    _check_sim_args(n, seed)
    if (support := classify_support(q)).verdict != VERDICT_UNIT_SUPPORT:
        raise ValidationError(f"support must sit inside (0, 1]; that region holds mass "
                              f"{support.m01}")
    zs = [float(require_positive(z, "grid point z", 1)) for z in z_grid]
    if not zs:
        raise ValidationError("z grid must be non-empty")
    ana = tuple(float(pgf_eval(q, z)) for z in zs)
    table = _location_table(q)
    counts = _replicate_buffer(n)
    for b, start in enumerate(range(0, n, _BLOCK)):
        count = min(_BLOCK, n - start)
        y = _draw_locations(table, count, _stream(seed, 2 * b))
        counts[start:start + count] = _stream(seed, 2 * b + 1).geometric(
            np.clip(y, 1e-12, 1.0, out=y))
    emp, se = [], []
    for z in zs:
        vals = np.power(z, counts)
        emp.append(float(np.mean(vals)))
        se.append(float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0)
    return SimulatedCurve("z", tuple(zs), tuple(emp), tuple(se), ana, n, seed)


def _replicate_buffer(n: int) -> np.ndarray:
    """An uninitialised float64 buffer of n replicates, or ValidationError naming n."""
    import numpy as np
    try:
        return np.empty(n)
    except (MemoryError, ValueError):
        raise ValidationError(
            f"replicate count n={n} is too large: its {8 * n}-byte buffer cannot be allocated"
        ) from None


def _check_sim_args(n, seed) -> None:
    require_int(n, "replicate count", 1)
    require_int(seed, "seed")
