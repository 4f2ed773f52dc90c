"""Fixed probes that measure how fast the host runs at the moment.

The benchmark runs on a shared host whose speed drifts: an identical pass of
one workload can take twice as long in a slow phase as in a fast one, and the
phases last from seconds to minutes, so whole runs land in a fast or a slow
phase.  A probe is a fixed piece of work that does not call the program under
test.  One runs right before every timed op, and each timing is divided by
the slowdown the probes around it measured against their reference time,
which turns it into seconds at the reference speed.  A change to the program moves the scaled timings as
it moves the raw ones; a change of host speed moves the probe too and cancels
out.

A slow phase does not slow all code alike, so each workload uses the probe
whose work resembles its own:

- ``calls``: about 1,300 numpy calls on arrays of 6 to 12 elements, like
  the tiny grid sums of ``axioms-small``;
- ``arrays``: a broadcast comparison of 200 x 1000 x 3 points, like the
  empirical-copula grids that dominate ``scalar-grid`` and ``report-mix``.
"""

from __future__ import annotations

import time

import numpy as np

# median time of each probe on the reference host (2-vCPU Xeon KVM guest,
# Python 3.11, numpy 2.4, one BLAS thread); they only scale figures to seconds
REFERENCE_S = {"calls": 0.0090, "arrays": 0.0085}

_rng = np.random.default_rng(0)
_SMALL = [_rng.random(6) for _ in range(8)]
_POINTS = _rng.random((1000, 3))
_GRID = _rng.random((200, 3))


def _calls() -> None:
    for k in range(180):
        a, b = _SMALL[k & 7], _SMALL[(k + 1) & 7]
        u = np.unique(np.concatenate((a, b)))
        lo, hi = np.meshgrid(u, a, indexing="ij")
        np.diff(u)
        (lo <= hi).sum()
        np.searchsorted(u, b)


def _arrays() -> None:
    (_POINTS[None, :, :] <= _GRID[:, None, :]).all(axis=2).mean()


_PROBES = {"calls": _calls, "arrays": _arrays}


def probe(kind: str) -> float:
    """Seconds the fixed probe ``kind`` takes now."""
    work = _PROBES[kind]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def slowdown(kind: str, probe_seconds) -> float:
    """Host slowdown against the reference, from probe times taken in one window."""
    return sum(probe_seconds) / (len(probe_seconds) * REFERENCE_S[kind])
