"""Draw-ahead background-noise sampling for simulated nodes.

Every tick, :meth:`repro.sim.node.SimNode.end_tick` folds a fixed set of
eight seeded background-OS noise draws into the node's ``/proc``
counters: two gamma-distributed CPU noise terms, three Poisson event
counts (multicast frames, forks, major faults) and three normal jitter
terms (context switches, interrupts, minor faults).  Issuing eight
scalar ``Generator`` calls per node per tick dominates the tick cost at
fleet scale -- each call costs far more in dispatch overhead than in
actual bit-stream consumption.

:class:`TickNoise` amortizes that overhead by drawing ``block`` ticks'
worth of every distribution at once (numpy fills array requests by
repeated sequential sampling from the same bit stream, so the
distributions are unchanged) and then serving per-tick rows out of the
buffer.  The buffer is keyed to the ``dt`` it was drawn for: a tick with
a different ``dt`` flushes and redraws, so runs remain deterministic
functions of ``(seed, dt sequence)``.

The per-node :meth:`SimNode.end_tick` and the fleet-wide
``FleetState.end_tick_all`` consume the same per-node buffers, which is
what makes their outputs bit-identical by construction (see
:mod:`repro.sim.vec`).
"""

from __future__ import annotations

import numpy as np

#: Ticks of noise drawn per refill.  Larger blocks amortize Generator
#: call overhead further at the cost of a bigger resident buffer
#: (``8 * block`` float64 per node).
NOISE_BLOCK = 64

#: Row indices into the (8, block) noise buffer, in draw order.
GAMMA_USER = 0      #: gamma(2.0, 0.004) -- background user CPU, per dt
GAMMA_SYS = 1       #: gamma(2.0, 0.003) -- background system CPU, per dt
POISSON_MCAST = 2   #: poisson(0.5 * dt) -- multicast frames
NORMAL_CTXT = 3     #: normal(0, 20 * dt) -- context-switch jitter
NORMAL_INTR = 4     #: normal(0, 10 * dt) -- interrupt jitter
POISSON_FORKS = 5   #: poisson(1.5 * dt) -- background forks
NORMAL_PGFAULT = 6  #: normal(0, 5 * dt) -- minor-fault jitter
POISSON_PGMAJ = 7   #: poisson(0.05 * dt) -- major faults


class TickNoise:
    """Buffered per-tick noise rows for one node's seeded generator."""

    __slots__ = ("rng", "block", "_dt", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, block: int = NOISE_BLOCK) -> None:
        if block < 1:
            raise ValueError(f"noise block must be >= 1, got {block}")
        self.rng = rng
        self.block = int(block)
        self._dt: float = float("nan")
        self._buf: np.ndarray = np.empty((8, 0))
        self._pos: int = 0

    def _refill(self, dt: float) -> None:
        block = self.block
        rng = self.rng
        buf = np.empty((8, block))
        buf[GAMMA_USER] = rng.gamma(2.0, 0.004, block)
        buf[GAMMA_SYS] = rng.gamma(2.0, 0.003, block)
        buf[POISSON_MCAST] = rng.poisson(0.5 * dt, block)
        buf[NORMAL_CTXT] = rng.normal(0.0, 20.0 * dt, block)
        buf[NORMAL_INTR] = rng.normal(0.0, 10.0 * dt, block)
        buf[POISSON_FORKS] = rng.poisson(1.5 * dt, block)
        buf[NORMAL_PGFAULT] = rng.normal(0.0, 5.0 * dt, block)
        buf[POISSON_PGMAJ] = rng.poisson(0.05 * dt, block)
        self._buf = buf
        self._dt = dt
        self._pos = 0

    def draw(self, dt: float) -> np.ndarray:
        """The next tick's eight noise values, drawn for ``dt``."""
        if self._pos >= self._buf.shape[1] or dt != self._dt:
            self._refill(dt)
        row = self._buf[:, self._pos]
        self._pos += 1
        return row


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
    "TickNoise",
]
