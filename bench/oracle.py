"""Independent references for checking benchmark outputs.

Nothing here imports the package under test. Laws are read straight from
their JSON documents, exact quantities are recomputed with ``Fraction``
arithmetic written here, and float quantities come from ``scipy`` or from
log-space Poisson sums. ``scipy`` is imported lazily so that input
generation can use the exact helpers without loading it.
"""

from __future__ import annotations

import decimal
import functools
import hashlib
import math
from fractions import Fraction
from math import comb

#: absolute tolerance for quadrature-backed values (the library's default tol is 1e-10)
QUAD_TOL = 1e-9
#: survival series: absolute plus relative slack (series_tol is 1e-12)
SURV_ABS, SURV_REL = 1e-10, 1e-8
#: Monte Carlo band, in standard errors of the analytic value
MC_BAND = 6.0


class Law:
    """Atoms (y, p) and constant-density segments (lo, hi, d) of one document."""

    def __init__(self, doc: dict):
        num = _num(doc)
        self.atoms = [(num(a["y"]), num(a["p"])) for a in doc.get("atoms") or []]
        self.segments = [(num(s["lo"]), num(s["hi"]), num(s["density"]))
                         for s in doc.get("segments") or []]

    def floats(self) -> "Law":
        out = Law({})
        out.atoms = [(float(y), float(p)) for y, p in self.atoms]
        out.segments = [(float(a), float(b), float(d)) for a, b, d in self.segments]
        return out


def _num(doc):
    exact = not any(isinstance(v, float) for part in ("atoms", "segments")
                    for entry in doc.get(part) or [] for v in entry.values())

    def num(v):
        return Fraction(v) if exact else float(v)

    return num


def digest(values) -> str:
    """sha256 over the exact text of a sequence of rationals."""
    h = hashlib.sha256()
    for v in values:
        f = Fraction(v)
        h.update(f"{f.numerator}/{f.denominator};".encode())
    return h.hexdigest()


# ---------------------------------------------------------------- exact path

def hausdorff_tails(law: Law, K: int) -> list[Fraction]:
    """u_k = integral of (1-y)**k, k = 0..K, by running powers (exact)."""
    out = []
    atom_pow = [(Fraction(1), 1 - y, p) for y, p in law.atoms]
    seg_pow = [[1 - lo, 1 - hi, 1 - lo, 1 - hi, d] for lo, hi, d in law.segments]
    for k in range(K + 1):
        total = Fraction(0)
        for i, (pw, base, p) in enumerate(atom_pow):
            total += p * pw
            atom_pow[i] = (pw * base, base, p)
        for s in seg_pow:
            total += s[4] * (s[2] - s[3]) / (k + 1)
            s[2] *= s[0]
            s[3] *= s[1]
        out.append(total)
    return out


def stress_tails(alpha: Fraction, beta: Fraction, K: int) -> list[Fraction]:
    """Closed form ((1-beta) + (-1)**k beta alpha**k) / (k+1) of the stress family."""
    return [(1 - beta + (-1) ** k * beta * alpha ** k) / (k + 1) for k in range(K + 1)]


def moment_cell(law: Law, j: int, k: int) -> Fraction:
    """Hausdorff moment integral of y**j (1-y)**k, expanded in powers of y."""
    total = Fraction(0)
    for y, p in law.atoms:
        total += p * y ** j * (1 - y) ** k
    for lo, hi, d in law.segments:
        acc = Fraction(0)
        hi_pow, lo_pow = hi ** (j + 1), lo ** (j + 1)
        for m in range(k + 1):
            acc += Fraction((-1) ** m * comb(k, m), m + j + 1) * (hi_pow - lo_pow)
            hi_pow *= hi
            lo_pow *= lo
        total += d * acc
    return total


def difference_cell(values, j: int, k: int):
    """j-th forward decrement at k by the binomial sum."""
    return sum((-1) ** i * comb(j, i) * values[k + i] for i in range(j + 1))


def first_violation(values, J: int, tol=0):
    """Lexicographically first (j, k) with a decrement below -tol, else None."""
    row = list(values)
    for j in range(J + 1):
        for k, v in enumerate(row):
            if v < -tol:
                return (j, k)
        row = [row[k] - row[k + 1] for k in range(len(row) - 1)]
    return None


def tail_is_valid(values) -> bool:
    return (values[0] == 1 and all(v >= 0 for v in values)
            and all(b <= a for a, b in zip(values, values[1:])))


# ---------------------------------------------------------------- float path

def _quad(f, lo, hi):
    from scipy.integrate import quad

    val, _ = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def pgf_ref(law: Law, z: float) -> float:
    """phi(z) by scipy quadrature on segments plus the atom sum."""
    g = law.floats()

    def ker(y):
        return z * y / (1 - z + z * y)

    return (sum(p * ker(y) for y, p in g.atoms)
            + sum(d * _quad(ker, lo, hi) for lo, hi, d in g.segments))


def mean_shocks_ref(law: Law) -> float:
    g = law.floats()
    if any(lo == 0 and d > 0 for lo, _, d in g.segments):
        return math.inf
    return (sum(p / y for y, p in g.atoms)
            + sum(d * _quad(lambda y: 1 / y, lo, hi) for lo, hi, d in g.segments))


def exp_mixture_ref(law: Law, lam: float, t: float) -> float:
    """integral of exp(-lam*y*t) Q(dy), the rate-mixture survival."""
    g = law.floats()
    if t == 0:
        return 1.0
    return (sum(p * math.exp(-lam * y * t) for y, p in g.atoms)
            + sum(d * _quad(lambda y: math.exp(-lam * y * t), lo, hi) for lo, hi, d in g.segments))


def float_tail_fn(law: Law, stress: tuple[Fraction, Fraction] | None = None):
    """Float tail u_k for any k (memoised), closed form for the stress family."""
    if stress is not None:
        a, b = float(stress[0]), float(stress[1])

        def u(k):
            return ((1 - b) + (-1) ** k * b * a ** k) / (k + 1)
    else:
        g = law.floats()

        def u(k):
            return (sum(p * (1 - y) ** k for y, p in g.atoms)
                    + sum(d * ((1 - lo) ** (k + 1) - (1 - hi) ** (k + 1)) / (k + 1)
                          for lo, hi, d in g.segments))

    return functools.lru_cache(maxsize=None)(u)


def survival_ref(u, mu: float) -> float:
    """sum_k u_k Poisson(mu)(k), each weight formed in log space."""
    if mu == 0:
        return 1.0
    k_max = int(mu + 40 * math.sqrt(mu) + 60)
    log_mu = math.log(mu)
    return math.fsum(u(k) * math.exp(k * log_mu - mu - math.lgamma(k + 1))
                     for k in range(k_max + 1))


def is_underflow_symptom(got: float, want: float, mu: float) -> bool:
    """Whether a survival value shows exactly the known start-weight defect.

    A series that starts its Poisson weights at ``exp(-mu)`` in floats
    scales the true sum by fl(exp(-mu)) / exp(-mu): a small bias where
    that weight is subnormal (mu past ~708), and 0.0 where it underflows
    (past ~745). Anything else is a different error.
    """
    if mu <= 708:
        return False
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        scale = float(decimal.Decimal(math.exp(-mu)) / decimal.Decimal(-mu).exp())
    if scale == 1.0:
        return False
    bias = want * (scale - 1)
    return abs(got - want - bias) <= 0.1 * abs(bias) + SURV_ABS


def close(got: float, want: float, abs_tol: float, rel_tol: float = 0.0) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= abs_tol + rel_tol * abs(want)
