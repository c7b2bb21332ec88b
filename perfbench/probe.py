"""Machine-speed probe: a fixed mix of work that never calls mixgap.

On a shared host the same code runs up to a quarter slower or faster from one
minute to the next. The probe times a fixed mix of the kinds of work mixgap
does: an interpreter loop with `bisect` (like `simulate`), writing and parsing
decimal text (like `io`), small scipy-sparse builds (like `tally`), dense
`eigvalsh` at n = 80 and 324 (like the oracle and the estimators) and a
`bincount` over 2e5 entries. An op's wall time times
NOMINAL_S / (mean of the probe times just before and after the op) is its time
at the probe's nominal speed. No change to mixgap can move the probe.
"""

from __future__ import annotations

import time
from bisect import bisect_right

import numpy as np
from scipy.sparse import coo_matrix

# About the probe's time in the fast phases of a 2-core Xeon VM (Python 3.11, numpy 2.4).
NOMINAL_S = 0.02


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.draws = rng.random(20_000).tolist()
        self.thresholds = [tuple(np.cumsum(row)[:-1]) for row in rng.dirichlet(np.ones(6), size=6)]
        small, large = rng.random((80, 80)), rng.random((324, 324))
        self.small, self.large = small + small.T, large + large.T
        self.rows = rng.integers(0, 6, size=2000)
        self.cols = rng.integers(0, 6, size=2000)
        self.ones = np.ones(2000, dtype=np.int64)
        self.keys = rng.integers(0, 2500, size=200_000)
        self.states = rng.integers(0, 3, size=10_000)

    def __call__(self) -> float:
        """Seconds the fixed mix takes now."""
        start = time.perf_counter()
        x = 0
        for u in self.draws:
            x = bisect_right(self.thresholds[x], u)
        text = "\n".join(str(int(v)) for v in self.states)
        np.array([int(tok) for tok in text.encode().split()], dtype=np.int64)
        for _ in range(20):
            coo_matrix((self.ones, (self.rows, self.cols)), shape=(6, 6)).tocsr().toarray()
        for _ in range(10):
            np.linalg.eigvalsh(self.small)
        np.linalg.eigvalsh(self.large)
        np.bincount(self.keys, minlength=2500)
        return time.perf_counter() - start
