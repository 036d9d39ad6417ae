"""Draw-ahead background-noise sampling for simulated nodes.

Every tick, :meth:`repro.sim.vec.FleetState.end_tick_all` folds a fixed
set of eight seeded background-OS noise draws into each node's ``/proc``
counters: two gamma-distributed CPU noise terms, three Poisson event
counts (multicast frames, forks, major faults) and three normal jitter
terms (context switches, interrupts, minor faults).  Issuing eight
scalar ``Generator`` calls per node per tick would dominate the tick
cost at fleet scale -- each call costs far more in dispatch overhead
than in actual bit-stream consumption.

:func:`fill_noise` amortizes that overhead by drawing a block of ticks'
worth of every distribution at once from one node's generator (numpy
fills array requests by repeated sequential sampling from the same bit
stream, so the distributions are unchanged).  The fleet keeps one
``(8, N, NOISE_BLOCK)`` block, refilled node by node when it is spent or
``dt`` changes, so runs remain deterministic functions of ``(seed, dt
sequence)``; the scalar reference in ``tests/sim/reference.py`` fills
its per-node blocks with the same function (see :mod:`repro.sim.vec`).
"""

from __future__ import annotations

import numpy as np

#: Ticks of noise drawn per refill.  Larger blocks amortize Generator
#: call overhead further at the cost of a bigger resident buffer
#: (``8 * block`` float64 per node).
NOISE_BLOCK = 64

#: Row indices into an (8, block) noise block, in draw order.
GAMMA_USER = 0      #: gamma(2.0, 0.004) -- background user CPU, per dt
GAMMA_SYS = 1       #: gamma(2.0, 0.003) -- background system CPU, per dt
POISSON_MCAST = 2   #: poisson(0.5 * dt) -- multicast frames
NORMAL_CTXT = 3     #: normal(0, 20 * dt) -- context-switch jitter
NORMAL_INTR = 4     #: normal(0, 10 * dt) -- interrupt jitter
POISSON_FORKS = 5   #: poisson(1.5 * dt) -- background forks
NORMAL_PGFAULT = 6  #: normal(0, 5 * dt) -- minor-fault jitter
POISSON_PGMAJ = 7   #: poisson(0.05 * dt) -- major faults


def fill_noise(rng: np.random.Generator, dt: float, out: np.ndarray) -> None:
    """Fill ``out`` (8 rows x block ticks) with one node's next draws,
    the eight calls in row order."""
    block = out.shape[1]
    out[GAMMA_USER] = rng.gamma(2.0, 0.004, block)
    out[GAMMA_SYS] = rng.gamma(2.0, 0.003, block)
    out[POISSON_MCAST] = rng.poisson(0.5 * dt, block)
    out[NORMAL_CTXT] = rng.normal(0.0, 20.0 * dt, block)
    out[NORMAL_INTR] = rng.normal(0.0, 10.0 * dt, block)
    out[POISSON_FORKS] = rng.poisson(1.5 * dt, block)
    out[NORMAL_PGFAULT] = rng.normal(0.0, 5.0 * dt, block)
    out[POISSON_PGMAJ] = rng.poisson(0.05 * dt, block)


__all__ = [
    "GAMMA_SYS",
    "GAMMA_USER",
    "NOISE_BLOCK",
    "NORMAL_CTXT",
    "NORMAL_INTR",
    "NORMAL_PGFAULT",
    "POISSON_FORKS",
    "POISSON_MCAST",
    "POISSON_PGMAJ",
    "fill_noise",
]
