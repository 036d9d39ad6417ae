"""Pipelined multi-peer polling: one round, all nodes in flight.

Polling N collection daemons with one blocking ``call`` each would make
a round cost the *sum* of the node round-trip times, and a single slow
node would stall everybody behind it.  This poller keeps one request
outstanding to every peer simultaneously:

1. **write coalescing** -- every request frame is encoded and written
   back-to-back before any response is read, so the kernel batches the
   outgoing segments and all N servers start working at once;
2. a single-threaded ``selectors`` event loop then drains responses in
   whatever order they arrive, decoding incrementally from per-peer
   receive buffers.

Round time becomes ~max(node RTT) instead of sum, and because the loop
runs entirely on the caller's thread there is no per-peer thread, no
shared mutable state, and nothing new for the concurrency lint to
chase: the poll thread still owns every client exclusively.

A peer that errors or misses the deadline gets a failed
:class:`PollOutcome`; its connection must be considered dead (a late
response would desynchronize the request/response pairing), which is
why callers route failures through their reconnect path.
"""

from __future__ import annotations

import selectors
import time
from typing import Any, Dict, Mapping, Optional, Tuple

from .client import RpcClient
from .codec import frame_length
from .protocol import ProtocolError, RemoteError, TraceContext

__all__ = ["MultiPoller", "PollOutcome"]

#: Default wall deadline for one pipelined round.
DEFAULT_TIMEOUT_S = 5.0

#: Socket read chunk size.
_RECV_BYTES = 65536


class PollOutcome:
    """The result of polling one peer in a pipelined round."""

    __slots__ = ("name", "result", "error", "rtt_s")

    def __init__(self, name: str, result: Any = None,
                 error: Optional[Exception] = None,
                 rtt_s: Optional[float] = None) -> None:
        self.name = name
        self.result = result
        self.error = error
        self.rtt_s = rtt_s

    @property
    def ok(self) -> bool:
        return self.error is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self.ok else f"error={self.error!r}"
        return f"PollOutcome({self.name}, {state}, rtt={self.rtt_s})"


class _InFlight:
    """Per-peer receive state while a response is outstanding."""

    __slots__ = ("name", "client", "pending", "buffer", "sent_at")

    def __init__(self, name: str, client: RpcClient, pending: Any,
                 sent_at: float) -> None:
        self.name = name
        self.client = client
        self.pending = pending
        self.buffer = b""
        self.sent_at = sent_at


class MultiPoller:
    """Single-threaded pipelined poll over many :class:`RpcClient`.

    Stateless between rounds; safe to reuse.  Not thread-safe -- the
    owning poll loop calls it, exactly like it owns the clients.
    """

    def poll(
        self,
        calls: Mapping[str, Tuple[RpcClient, str, Dict[str, Any]]],
        trace: Optional[TraceContext] = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> Dict[str, PollOutcome]:
        """Issue every call concurrently; return an outcome per name.

        ``calls`` maps a peer name to ``(client, method, params)``.  The
        same ``trace`` is stamped on every request so the whole round
        stitches into one cross-process trace.
        """
        outcomes: Dict[str, PollOutcome] = {}
        inflight: Dict[int, _InFlight] = {}

        # Phase 1: coalesced writes -- every request leaves before any
        # response is read.
        for name, (client, method, params) in calls.items():
            sent_at = time.perf_counter()
            try:
                pending = client.begin_call(method, trace=trace, **params)
            except (ProtocolError, ConnectionError, OSError) as exc:
                outcomes[name] = PollOutcome(name, error=exc)
                continue
            sock = client.sock
            if sock is None:
                outcomes[name] = PollOutcome(
                    name, error=ProtocolError(f"client closed (peer {client.peer})")
                )
                continue
            inflight[sock.fileno()] = _InFlight(name, client, pending, sent_at)

        if not inflight:
            return outcomes

        # Phase 2: drain responses in arrival order.
        deadline = time.perf_counter() + timeout_s
        with selectors.DefaultSelector() as selector:
            for fd, state in inflight.items():
                selector.register(fd, selectors.EVENT_READ, data=state)
            while inflight:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                for key, _events in selector.select(timeout=remaining):
                    state: _InFlight = key.data
                    if state.name in outcomes:
                        continue
                    done = self._pump(state, outcomes)
                    if done:
                        selector.unregister(key.fd)
                        inflight.pop(key.fd, None)

        # Stragglers past the deadline: the connection now has an unread
        # response in it, so it cannot be reused -- report a timeout and
        # let the caller's failure path reconnect.
        for state in inflight.values():
            if state.name not in outcomes:
                outcomes[state.name] = PollOutcome(
                    state.name,
                    error=ProtocolError(
                        f"poll timed out after {timeout_s}s "
                        f"(peer {state.client.peer})"
                    ),
                )
        return outcomes

    def _pump(self, state: _InFlight, outcomes: Dict[str, PollOutcome]) -> bool:
        """Read once from a ready peer; True when its round is settled."""
        client = state.client
        sock = client.sock
        try:
            if sock is None:
                raise ProtocolError(f"client closed (peer {client.peer})")
            chunk = sock.recv(_RECV_BYTES)
            if not chunk:
                raise ProtocolError(
                    f"connection closed mid-response (peer {client.peer})"
                )
            state.buffer += chunk
            total = frame_length(
                state.buffer, peer=client.peer, limit=client.frame_limit
            )
            if total is None or len(state.buffer) < total:
                return False  # frame still incomplete; wait for more
            result = client.finish_call(state.pending, state.buffer[:total])
        except (ProtocolError, RemoteError, ConnectionError, OSError) as exc:
            outcomes[state.name] = PollOutcome(state.name, error=exc)
            return True
        outcomes[state.name] = PollOutcome(
            state.name, result=result,
            rtt_s=time.perf_counter() - state.sent_at,
        )
        return True
