"""A fixed computation that tells how fast the machine runs at the moment.

On a shared machine the same operation can take 1.3 to 1.7 times longer in
CPU time from one half hour to the next, because other tenants share the
cores and their caches. A run therefore also times two fixed
computations, untimed for the operations and independent of the package:

- ``inner``: exact rationals, a float loop and a numpy array pass, in the
  benchmark's own process, every ``EVERY`` seconds between operations;
- ``fresh``: a fresh interpreter that imports numpy and does the same
  work, a few times per run, for costs paid in fresh processes (CLI
  commands and set-up).

A timing is reported at the reference speed: its raw value times the
yardstick's reference CPU time over its median in this run. A change to
the package moves the operations but not the yardstick, so it shows in
full; a machine that runs everything slower moves both.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import process_time

#: CPU seconds that define the reference speed. They are fixed; over 130
#: runs on the machine the bounds were set on (2-vCPU Intel Xeon virtual
#: machine, Python 3.11, numpy 2.4) the yardsticks' medians were 2.7 ms and
#: 186 ms, so reported times sit near that machine's raw CPU times.
REFERENCE = {"inner": 0.0025, "fresh": 0.165}
#: seconds of wall time between two ``inner`` samples
EVERY = 0.2

HEADER = """
import math
from fractions import Fraction
import numpy
"""
#: the three parts of the work, timed separately in process
PARTS = {
    "rational": """
s = Fraction(0)
for k in range(1, 120):
    s += Fraction(1, k * k + 1)
""",
    "float": """
x = 0.0
for k in range(1, 2500):
    x += math.sqrt(k) / (1.0 + k)
""",
    "array": """
a = numpy.random.default_rng(1).standard_gamma(2.0, 20000)
a.sort()
""",
}
WORK = HEADER + "".join(PARTS.values())

_PARTS = {name: compile(code, f"<yardstick {name}>", "exec") for name, code in PARTS.items()}
_FRESH = WORK + """
import resource
u = resource.getrusage(resource.RUSAGE_SELF)
print(repr(u.ru_utime + u.ru_stime))
"""
_globals: dict = {}


def inner() -> dict[str, float]:
    """CPU seconds of each part of one in-process yardstick."""
    if not _globals:
        exec(HEADER, _globals)
    out = {}
    for name, code in _PARTS.items():
        t0 = process_time()
        exec(code, _globals)
        out[name] = process_time() - t0
    return out


def fresh(cwd) -> float:
    """CPU seconds of one fresh interpreter doing the yardstick, start to end."""
    out = subprocess.run([sys.executable, "-c", _FRESH], cwd=cwd, capture_output=True,
                         text=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"yardstick child failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout)


def scale(kind: str, samples: list[float]) -> float:
    """Factor that brings this run's raw times to the reference speed."""
    return REFERENCE[kind] / statistics.median(samples)
