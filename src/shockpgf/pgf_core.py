"""Mixture probability generating functions and shock-resistance tails.

The central object is the mixture

    phi(z) = integral of z*y / (1 - z + z*y) against Q(dy),

the p.g.f. of a first-success count when the success chance y is itself
random, provided Q makes the integral a genuine p.g.f. The tail sequence of
the associated shock-resistance process is the moment sequence of 1 - y
under Q, and everything here is computed exactly for rational Q.
"""

from __future__ import annotations

import math
import sys
from collections import OrderedDict, defaultdict
from collections.abc import Callable, Iterator
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, count, repeat
from operator import add, floordiv, le, mul

from .errors import NumericError, ValidationError
from .measures import (MASS_TOL, MixingDistribution, Num, Record, Segment, _coprime, _set,
                       csv_text, integrate, is_exact, jsonable, parse_number, require_int,
                       require_positive)


def kernel(y, z) -> Num:
    """The mixing kernel z*y / (1 - z + z*y).

    In y it increases from 0 through the fixed point at y = 1 (value z) and
    saturates at 1; exact when both arguments are exact, and a float z against
    an exact y past the float range gives the exact value rounded once.
    """
    y = parse_number(y)
    if not (is_exact(y) or math.isfinite(y)):
        raise ValidationError(f"kernel argument y={y} is not finite")
    if y < 0:
        raise ValidationError(f"kernel argument y={y} is negative")
    z = require_positive(z, "kernel argument z", 1, closed=True)
    if y == 0:
        return Fraction(0) if is_exact(y) and is_exact(z) else 0.0
    return _kernel(y, z)


def _kernel(y: Num, z: Num) -> Num:  # ``kernel`` of checked arguments, y > 0
    try:
        return z * y / (1 - z + z * y)
    except OverflowError:  # float arithmetic on an exact y past the float range
        z = Fraction(z)
        return float(z * y / (1 - z + z * y))


#: 15-point Gauss-Legendre rule on [-1, 1], the repr of numpy's leggauss(15)
_NODES = (-0.9879925180204854, -0.9372733924007058, -0.8482065834104272, -0.7244177313601701,
          -0.5709721726085388, -0.3941513470775634, -0.20119409399743451, 0.0,
          0.20119409399743451, 0.3941513470775634, 0.5709721726085388, 0.7244177313601701,
          0.8482065834104272, 0.9372733924007058, 0.9879925180204854)
_WEIGHTS = (0.030753241996117203, 0.0703660474881084, 0.10715922046717141, 0.13957067792615444,
            0.16626920581699398, 0.1861610000155622, 0.1984314853271116, 0.2025782419255613,
            0.1984314853271116, 0.1861610000155622, 0.16626920581699398, 0.13957067792615444,
            0.10715922046717141, 0.0703660474881084, 0.030753241996117203)
_MAX_DEPTH = 48
_RULE = tuple(zip(_NODES, _WEIGHTS))
_RECENT_SIZE = 32
_recent: OrderedDict = OrderedDict()  # ``pgf_eval``'s (id(q), type(z), z) -> (q, phi)


def _mid(a: float, b: float) -> float:  # 0.5 * (a + b), or halves summed where a + b overflows
    return mid if (mid := 0.5 * (a + b)) < math.inf else 0.5 * a + 0.5 * b


def _panel(g: Callable[[float, float], float], a: float, b: float) -> float:
    half = 0.5 * (b - a)
    return half * g(_mid(a, b), half)


def _refine(g, a: float, b: float, whole: float, tol: float, depth: int) -> float:
    mid = _mid(a, b)
    left = _panel(g, a, mid)
    right = _panel(g, mid, b)
    if abs(whole - (left + right)) <= tol:
        return left + right
    if depth >= _MAX_DEPTH:
        raise NumericError(f"quadrature did not converge on [{a}, {b}]")
    return _refine(g, a, mid, left, 0.5 * tol, depth + 1) + _refine(
        g, mid, b, right, 0.5 * tol, depth + 1
    )


def _quadrature(g, a: float, b: float, tol: float) -> float:
    """Integral of f over [a, b] by adaptive bisection on a fixed 15-point Gauss-Legendre rule.

    ``g(mid, half)`` is a panel's weighted node sum: ``math.fsum`` of w * f(mid + half*x)
    over ``_RULE``'s (x, w), in one call per panel, so the integrand's arithmetic fuses
    with the node and the weight. One panel integrates polynomials of degree up to 29
    exactly. Panels are split until the whole-panel and split-panel estimates agree within
    the (bisected) tolerance budget, so the absolute error of the returned value is at most
    tol for integrands this rule resolves.
    """
    if not tol > 0:
        raise ValidationError(f"quadrature tolerance {tol} must be positive")
    return _refine(g, a, b, _panel(g, a, b), tol, 0)


def pgf_eval(q: MixingDistribution, z) -> Num:
    """Candidate p.g.f. value phi(z): the kernel integrated against q.

    Atoms are summed exactly for exact z, and for a float z from the law's float (y, p)
    pairs (``_float_atoms``) with the bits of ``_kernel``, unless one lies past the float
    range. Each of the law's float segments (``_live_segments``, which refuses a law that
    floats cannot hold) is integrated by ``_quadrature``, with the absolute budget 1e-10
    split evenly across them. Float results are clamped to [0, 1]; exact results are
    returned as is.

    The kernel's closed form on [lo, hi), (hi-lo) - (c/z)*log1p(z*(hi-lo)/(c+z*lo)) with
    c = 1-z, cancels as z -> 0 (relative error 1e-11 at z = 1e-6), and on Q = 1/4 at 1/2
    plus density 1 on [0, 3/4) it moves phi by up to 7e-15, so quadrature stays.

    The last ``_RECENT_SIZE`` values are kept in ``_recent``, keyed by (id(q), type(z), z)
    and dropped oldest first, so a report that reads phi at the same point again (the
    bounds, the resistance g.f., the transform and its bounds) integrates it once. A kept
    entry holds q, so no other law can take its id; the key has the law's identity, not
    its value, because a law and its float copy are equal but give different kinds of
    value, and z's type, because 1/2 and 0.5 are equal but give a Fraction and a float on
    an exact law. A hit returns the kept object; a refusal is not kept. Each step on the
    table is one call into C, so threads share it without a lock. ``functools.lru_cache``
    would key by equality, so a law and its float copy would read each other's value, and
    it would hash the law on every call of every float report.
    """
    z = require_positive(z, "evaluation point z", 1)
    key = (id(q), type(z), z)
    if (hit := _recent.get(key)) is not None:
        return hit[1]
    zf = float(z)
    c = 1 - zf
    live = q._live_segments  # float (lo, hi, density), converted once per law
    seg_tol = 1e-10 / max(1, len(live))

    def g(mid: float, half: float) -> float:
        return math.fsum([w * ((t := zf * (mid + half * x)) / (c + t)) for x, w in _RULE])

    val: Num = 0
    atoms = None if is_exact(z) else q._float_atoms
    if atoms is None:  # in order, exactly for exact z, as ``integrate`` sums atoms
        for a in q.atoms:
            val += a.p * _kernel(a.y, z)
    else:
        for y, p in atoms:
            val += p * ((t := zf * y) / (c + t))
    for lo, hi, d in live:
        val += d * _quadrature(g, lo, hi, seg_tol / d)
    if not is_exact(val):
        val = min(max(val, 0.0), 1.0)
    _recent[key] = q, val
    if len(_recent) > _RECENT_SIZE:
        _recent.popitem(last=False)
    return val


def resistance_gf(q: MixingDistribution, z) -> Num:
    """Generating function of the tail sequence, (1 - phi(z)) / (1 - z)."""
    z = parse_number(z)  # pgf_eval refuses z outside (0, 1) before 1 - z is used
    return (1 - pgf_eval(q, z)) / (1 - z)


def _shown(v: Num) -> str:  # repr(float(v)), or the float bound an exact v lies beyond
    try:
        return repr(float(v))
    except OverflowError:
        return f"{'below -' if v < 0 else 'above '}{sys.float_info.max!r}"


@lru_cache(maxsize=64)
def _lcm_through(n: int) -> int:
    """lcm(1, 2, ..., n), worked out once per n: every CM check of a table of K+1
    entries built by ``tail_sequence`` needs lcm(1..K+1)."""
    return math.lcm(*range(1, n + 1))


def _require_numbers(values: tuple, entry: str) -> None:
    """Refuse an entry that is not an int, a Fraction or a float, or is a bool, naming the
    first by ``entry.format(k, v)``; the entries are read in one pass in C, by their types."""
    if bad := [t for t in set(map(type, values))
               if t is bool or not issubclass(t, (int, Fraction, float))]:
        k = next(k for k, v in enumerate(values) if type(v) in bad)
        raise ValidationError(f"{entry.format(k, values[k])} is not an int, Fraction or float")


class TailSequence(Record):
    """Tails u_k = P(count > k), k = 0..K.

    ``exact``, ``violation`` and ``floats`` are computed once and kept (the table is
    frozen and holds immutable numbers); ``integers`` is made as far as it is read. None
    of them nor ``_scaled`` enter equality, hashing or repr.
    """

    _fields = ("values",)

    def __init__(self, values: tuple[Num, ...], *, _scaled: tuple | None = None):
        if _scaled is None:  # ``tail_sequence``'s exact tables hold Fractions it made
            _require_numbers(values, "entry k={} = {!r}")
        super().__init__(values)
        # (n_k, M, B) with u_k = n_k / (M*(k+1)*B**(k+1)), as ``tail_sequence`` built it
        _set(self, "_scaled", _scaled)

    __reduce__ = object.__reduce__  # pickled with its ``__dict__``, ``_scaled`` included

    @classmethod
    def from_values(cls, values) -> "TailSequence":
        vals = tuple(values)
        if not vals:
            raise ValidationError("tail sequence must have at least one entry")
        return cls(vals)

    @property
    def K(self) -> int:
        return len(self.values) - 1

    @cached_property
    def exact(self) -> bool:  # every entry is rational, as in each table with ``_scaled``
        return self._scaled is not None or all(map(is_exact, self.values))

    @cached_property
    def violation(self) -> str | None:
        """Why the entries are not the tail of a positive count, or None. A valid tail
        starts at 1, never increases, stays non-negative and holds no NaN. With ``_scaled``
        the entries are scanned only when the gcd-free test on the numerators, n_0 == M*B,
        n_k >= 0, n_{k+1}*(k+1) <= n_k*B*(k+2), fails."""
        if self._scaled is not None:
            n, M, B = self._scaled
            if n[0] == M * B and min(n) >= 0 and all(map(
                    le, map(mul, n[1:], count(1)), map(mul, n, count(2 * B, B)))):
                return None
        vals = self.values
        if not vals:
            return "sequence is empty"
        if vals[0] != 1:
            return f"entry k=0 is {_shown(vals[0])}, expected 1"
        for k, v in enumerate(vals):
            if v != v:
                return f"entry k={k} is NaN"
            if v < 0:
                return f"entry k={k} is negative ({_shown(v)})"
        for k in range(len(vals) - 1):
            if vals[k + 1] > vals[k]:
                return f"sequence increases from k={k} to k={k + 1}"
        return None

    @cached_property
    def floats(self) -> tuple[float, ...]:
        """The entries as floats; a table of floats is its own copy. An exact entry past
        the float range, which no valid tail has, is refused."""
        if all(isinstance(v, float) for v in self.values):
            return self.values
        try:
            return tuple(float(v) for v in self.values)
        except OverflowError:
            k = next(k for k, v in enumerate(self.values) if abs(v) > sys.float_info.max)
            raise ValidationError(f"entry k={k} lies past the float range") from None

    @property
    def integers(self) -> tuple[Iterator[int], int, int]:
        """Exact entries as (R, D, B), u_k = R_k * B**(K-k) / D, R made lazily in k order:
        with ``_scaled``, R_k = n_k*(L/(k+1)) over D = M*L*B**(K+1), L = lcm(1..K+1), not
        always the least D; otherwise R is the numerators over the lcm D of the denominators
        and B = 1."""
        if not self.exact:
            raise ValidationError("only an exact tail sequence has an integer form")
        if self._scaled is None:
            D = math.lcm(*(v.denominator for v in self.values))
            return (v.numerator * (D // v.denominator) for v in self.values), D, 1
        n, M, B = self._scaled
        L = _lcm_through(len(n))
        return map(mul, n, map(floordiv, repeat(L), range(1, len(n) + 1))), M * L * B**len(n), B

    def to_json_dict(self) -> dict:
        entries = [{"k": k, "value": jsonable(v), "decimal": f}
                   for k, (v, f) in enumerate(zip(self.values, self.floats))]
        return {"K": self.K, "exact": self.exact, "entries": entries}

    def to_csv(self) -> str:
        return csv_text(("k", "value", "decimal"),
                        ((k, v, f) for k, (v, f) in enumerate(zip(self.values, self.floats))))


class PmfSequence(Record):
    """Probability masses q_0..q_N of a count variable.

    ``tail_ratio`` declares a geometric continuation beyond the stored
    range: q_{N+j} = q_N * tail_ratio**j. Leave it None for a genuinely
    truncated sequence.
    """

    __slots__ = _fields = ("values", "tail_ratio")

    def __init__(self, values: tuple[Num, ...], tail_ratio: Num | None = None):
        vals = tuple(values)
        if not vals:
            raise ValidationError("pmf must have at least one entry")
        _require_numbers(vals, "pmf entry q_{} = {!r}")
        for n, v in enumerate(vals):
            if v != v:
                raise ValidationError(f"pmf entry q_{n} is NaN")
            if v < 0:
                raise ValidationError(f"pmf entry q_{n} = {v} is negative")
        if tail_ratio is not None:
            tail_ratio = require_positive(tail_ratio, "tail ratio", 1)
        super().__init__(vals, tail_ratio)
        total = sum(vals)
        if tail_ratio is not None and vals[-1] > 0:
            total = total + vals[-1] * tail_ratio / (1 - tail_ratio)
        if all(is_exact(v) for v in vals) and (tail_ratio is None or is_exact(tail_ratio)):
            if total > 1:
                raise ValidationError(f"pmf mass {total} exceeds 1")
        elif total > 1 + MASS_TOL:
            raise ValidationError(f"pmf mass {float(total)!r} exceeds 1")

    @property
    def N(self) -> int:
        return len(self.values) - 1


def require_tail(t: TailSequence) -> None:
    """Raise ValidationError with the table's ``violation`` when it has one."""
    if t.violation is not None:
        raise ValidationError(f"not a valid tail sequence: {t.violation}")


def _lowest(n: int, X: int, B: int, e: int, powers) -> Fraction:
    """n / (X * B**e) in lowest terms, powers[i] = B**(i+1), by gcds with one small operand:
    each step divides out c = gcd(r, Y * B**s), leaving r coprime to the small Y*B**s//c that
    the denominator keeps; once that has every prime of B (B | Y**bits(B)), r is coprime to
    the denominator. s starts at 2 and doubles, so a high power of B takes few steps."""
    r, Y, s = n, X, 2
    while e:
        s = min(s, e)
        Bs = B**s
        c = math.gcd(r, Y * Bs)
        r, Y, e, s = r // c, Y * Bs // c, e - s, 2 * s
        if not pow(Y, B.bit_length(), B):
            break
    return _coprime(r, Y * powers[e - 1] if e else Y)


def tail_sequence(q: MixingDistribution, K: int) -> TailSequence:
    """Shock-resistance tails: entry k integrates (1 - y)**k against q.

    For an exact q, every atom location and segment endpoint enters as
    1 - y = a/B over one common denominator B, and every atom mass and
    density as w/M over one common denominator M, read from the law's ``_form``
    (whose B covers segments of density 0 too). A segment adds w to the net
    weight w_a of its base a_lo and takes w from that of a_hi, so ends
    that segments share hold one net weight. With running integer powers
    of the a's, entry k is the single fraction

        ((k+1)*B * sum_atoms w*a**k + sum_{distinct a != 0, w_a != 0} w_a*a**(k+1))
        / (M * (k+1) * B**(k+1)),

    reduced by ``_lowest``, whose first step is one pass over the whole table;
    the table keeps the n_k, M and B for its ``violation`` and ``integers``. A
    q with any float scalar sums each entry in float arithmetic instead, from
    the per-entry powers (1 - y)**k on atoms and ((1 - lo)**(k+1) - (1 - hi)**(k+1))
    / (k+1) on segments; running float powers would round differently and
    change published tails. A float entry past the float range, and a K not
    below sys.maxsize, are refused.

    The moment formula is applied to whatever support q has; use the table's
    ``violation`` or the analysis helpers to decide whether the result is a
    genuine tail sequence.
    """
    require_int(K, "truncation order")
    if K >= sys.maxsize:  # K + 1 entries must be countable by a C ssize_t
        raise ValidationError(f"truncation order K={K} must be below {sys.maxsize}")
    if not q.exact:
        vals = []
        for k in range(K + 1):
            try:
                v = integrate(q, lambda y: (1 - y) ** k, lambda lo, hi, d: d * (
                    ((1 - lo) ** (k + 1) - (1 - hi) ** (k + 1)) / (k + 1)))
            except OverflowError:  # a power of 1 - y past the float range
                v = math.inf
            if not math.isfinite(v):
                raise ValidationError(f"entry k={k} lies past the float range")
            vals.append(v)
        return TailSequence(tuple(vals))
    B, M, atom_ints, segment_ints = q._form

    def column(w: int, a: int):  # w, w*a, ..., w*a**K
        return accumulate(repeat(a, K), mul, initial=w)

    def total(columns):  # entrywise sums, zeros when there are no columns
        return map(sum, zip(repeat(0, K + 1), *columns))

    net = defaultdict(int)  # signed segment weight per distinct base B - y*B
    for lo, hi, w in segment_ints:
        if w:
            net[B - lo] += w
            net[B - hi] -= w
    atoms = [column(w, B - y) for y, w in atom_ints]
    segs = [column(w * x, x) for x, w in net.items() if w and x]
    nums = tuple(map(add, map(mul, range(B, (K + 2) * B, B), total(atoms)), total(segs)))
    powers = list(column(B, B))  # B, B**2, ..., B**(K+1)
    # ``_lowest``'s first step, s = min(2, k+1), for every entry at once; an entry k >= 2
    # whose Y it leaves without every prime of B goes on in ``_lowest`` with B**(k-1) to strip
    XB = list(map(mul, range(M, (K + 2) * M, M), chain((B,), repeat(B * B, K))))
    c = list(map(math.gcd, nums, XB))
    r, Y = list(map(floordiv, nums, c)), list(map(floordiv, XB, c))
    values = list(map(_coprime, r, map(mul, Y, chain((1, 1), powers))))
    for k in compress(range(2, K + 1), map(pow, Y[2:], repeat(B.bit_length()), repeat(B))):
        values[k] = _lowest(r[k], Y[k], B, k - 1, powers)
    return TailSequence(tuple(values), _scaled=(nums, M, B))


def geometric_pmf(success, K: int = 16) -> PmfSequence:
    """Pmf of the number of failures before a first success.

    Stores q_n = p * (1-p)**n for n = 0..K and declares the geometric
    continuation, so downstream series against it can be summed in closed
    form.
    """
    p = require_positive(success, "success chance", 1, closed=True)
    require_int(K, "truncation order")
    r = 1 - p
    vals = [p * r**n for n in range(K + 1)]
    return PmfSequence(vals, r if r > 0 else None)


def lemma22_coefficients(q: PmfSequence, K: int) -> list[Num]:
    """Coefficients c_k of E[(1 - z)**N] = sum_k c_k z**k for the pmf q.

    c_k = (-1)**k * sum_{n >= k} C(n, k) q_n. Terms beyond the stored range
    are summed in closed form when the pmf declares a geometric tail ratio;
    otherwise the undeclared tail mass must stay below 1e-9, since
    the binomial weights blow small omissions up.
    """
    if not isinstance(q, PmfSequence):
        raise ValidationError("q must be a PmfSequence")
    require_int(K, "order")
    N = q.N
    x = q.tail_ratio
    if x is None or q.values[-1] == 0:
        residual = 1 - sum(q.values)
        if x is None and residual > 1e-9:
            raise ValidationError(
                f"pmf leaves mass {float(residual):.3g} beyond n={N} with no declared "
                "tail ratio; the alternating sums need tail mass below 1e-09"
            )
        x = None
    out: list[Num] = []
    for k in range(K + 1):
        inner: Num = sum(math.comb(n, k) * q.values[n] for n in range(k, N + 1))
        if x is not None:
            # closed form of sum_{n >= k} C(n, k) x**n, minus the part already counted
            amp = q.values[N] / x**N
            whole = x**k / (1 - x) ** (k + 1)
            counted = sum(math.comb(n, k) * x**n for n in range(k, N + 1))
            inner += amp * (whole - counted)
        out.append((-1) ** k * inner)
    return out


class CounterexampleParams(Record):
    """Two parameters of the piecewise-constant family used as a stress case.

    alpha sets the width of the overshoot segment past 1, beta its mass. Both are read by
    ``parse_number`` and must be rational, so the family's closed forms stay exact.
    """

    __slots__ = _fields = ("alpha", "beta")

    def __init__(self, alpha, beta):
        alpha, beta = parse_number(alpha), parse_number(beta)
        if not (is_exact(alpha) and is_exact(beta)):
            raise ValidationError("alpha and beta must be rational, e.g. '1/7'")
        super().__init__(require_positive(alpha, "alpha", 1), require_positive(beta, "beta", 1))

    @property
    def admissible(self) -> bool:
        """Sufficient condition for valid tails, monotone at every order: beta >= 1/3, alpha
        < 2/7 and ``monotonicity_condition(self, 0)``, which then implies every later step."""
        return (self.beta >= Fraction(1, 3) and self.alpha < Fraction(2, 7)
                and monotonicity_condition(self, 0))


def counterexample_params(alpha, beta) -> CounterexampleParams:
    """Parse and validate family parameters; rational inputs only."""
    return CounterexampleParams(alpha, beta)


def counterexample_Q(p: CounterexampleParams) -> MixingDistribution:
    """The stress-case mixing law: density 1 - beta on [0, 1), beta/alpha on [1, 1 + alpha)."""
    return MixingDistribution(
        segments=(
            Segment(Fraction(0), Fraction(1), 1 - p.beta),
            Segment(Fraction(1), 1 + p.alpha, p.beta / p.alpha),
        )
    )


def counterexample_tail(p: CounterexampleParams, k: int) -> Fraction:
    """Closed-form tail entry ((1 - beta) + (-1)**k * beta * alpha**k) / (k + 1)."""
    require_int(k, "index")
    return (1 - p.beta + (-1) ** k * p.beta * p.alpha**k) / (k + 1)


def counterexample_tail_sequence(p: CounterexampleParams, K: int) -> TailSequence:
    """``tail_sequence`` of ``counterexample_Q(p)``; entry k is ``counterexample_tail(p, k)``."""
    return tail_sequence(counterexample_Q(p), K)


def monotonicity_condition(p: CounterexampleParams, n: int) -> bool:
    """Exact test that the family tail does not increase from 2n+1 to 2n+2.

    The comparison is beta * alpha**(2n+1) * (2n(1+alpha) + 3 + 2*alpha)
    against 1 - beta; lhs <= rhs is equivalent to the tail step being
    monotone at that odd index.
    """
    require_int(n, "index")
    lhs = p.beta * p.alpha ** (2 * n + 1) * (2 * n * (1 + p.alpha) + 3 + 2 * p.alpha)
    return lhs <= 1 - p.beta
