"""Sample statistics for the end-to-end benchmark.

Percentiles are nearest-rank and refuse to report a tail that fewer than
:data:`MIN_BEYOND` samples lie beyond: a p90 over 40 samples is decided
by four values and moves run to run by far more than any bound.

Timings on the result line are at the *reference host speed*.  The host
this benchmark was sized on changes speed by a third within seconds and
by half over hours, whatever runs on it.  A fixed piece of work, the
:func:`probe`, runs between ops outside their timers; a time measured
while the probe took ``p`` seconds is reported as
``time * REFERENCE_PROBE_S / p``.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
from time import perf_counter
from typing import Iterable, Sequence

__all__ = [
    "MIN_BEYOND",
    "REFERENCE_PROBE_S",
    "TooFewSamples",
    "calibrate",
    "geometric_mean",
    "percentile",
    "probe",
    "quartiles",
]

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: The probe's time at the reference host speed.  On the host the
#: benchmark was sized on, the probe's median over a run ranged from 1.3
#: to 2.5 ms.
REFERENCE_PROBE_S = 2.0e-3

#: The probe's graph: 2,400 fixed random edges over 400 nodes.
_PROBE_RNG = random.Random(7)
_PROBE_EDGES = tuple(
    (u, v)
    for u, v in ((_PROBE_RNG.randrange(400), _PROBE_RNG.randrange(400))
                 for _ in range(2400))
    if u != v
)


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to be meaningful."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (``0 < q < 100``).

    The value at rank ``ceil(q / 100 * n)`` of the sorted samples.
    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples rank above it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q / 100 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {max(0, n - rank)} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(values)[rank - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def geometric_mean(values: Iterable[float]) -> float:
    return math.exp(statistics.fmean(map(math.log, values)))


def calibrate(iterations: int = 1_000_000) -> float:
    """Seconds for a fixed pure-Python integer loop.

    Recorded before and after each workload so a reader can tell a slow
    host from a slow commit; :func:`probe` is what timings are put at
    the reference host speed with.
    """
    start = perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def probe() -> float:
    """Seconds for the probe: build a dict-of-sets graph and peel it by
    degree, the kind of work the program does, in about 2 ms.

    The host's slow state slows this work as much as the program's ops,
    where an integer loop slows by less (see the README).  The collector
    is off meanwhile, so the probe's time never depends on the size of
    the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _peel(_PROBE_EDGES)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _peel(edges: Sequence[tuple[int, int]]) -> None:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    degree = {u: len(nbrs) for u, nbrs in adj.items()}
    for u in sorted(degree, key=degree.__getitem__):
        for v in adj[u]:
            if degree[v] > degree[u]:
                degree[v] -= 1
