"""Session fixtures for sweeps that back more than one test.

The oracle sweep over n = 1..60 and the improvement sweep over n = 1..213
are each computed once per session and shared by tests/test_search.py,
tests/test_improve.py and tests/test_acceptance.py.
"""
import math
import time

import pytest

from naive_oracle import enumerated_best, naive_best
from rowpack.improve import improvement
from rowpack.search import Classification, best


@pytest.fixture(scope="session")
def oracle_sweep():
    """([(n, oracle area, oracle argmin, engine area, engine argmin)], seconds).

    Areas are (p, q) pairs and argmin sets hold (w, h, pattern, s, s_minus, d)
    tuples, for n = 1..60; seconds is the sweep's wall time.  The oracle's
    cap of 5 holes loses no argmin member here: naive_oracle.hole_bound(n)
    is at most 4 for n <= 60.
    """
    t0 = time.time()
    rows = []
    for n in range(1, 61):
        area, configs = naive_best(n, d_max=5)
        r = best(n)
        engine = {(c.w, c.h, c.pattern.value, c.s, c.s_minus, c.d) for c in r.argmin}
        rows.append((n, area, configs, (r.min_area.p, r.min_area.q), engine))
    return rows, time.time() - t0


@pytest.fixture(scope="session")
def improvement_sweep():
    """[(n, improved density, best hole-free density)] for each n <= 213 whose
    holed argmin admits a relocation move (the first such config is moved)."""
    rows = []
    for n in range(1, 214):
        result = best(n)
        if result.classification is Classification.REGULAR:
            continue
        reports = [improvement(c) for c in result.argmin if c.d >= 1]
        movers = [m for m in reports if m is not None]
        if not movers:
            continue  # no odd-h move published for this family
        improved = movers[0].new_density
        p, q = enumerated_best(n, 0)[0]  # the hole-free minimum area
        rows.append((n, improved, n * math.pi / (p + q * math.sqrt(3))))
    return rows
