"""A JSON-only peer for interop tests, and a strict result comparison."""

import itertools
import socket
import struct

import numpy as np

from repro.rpc.codec import read_frame
from repro.rpc.protocol import MetricRow, encode_frame, make_hello, make_request


class JsonPeer:
    """Says hello without a ``codecs`` key, then calls in plain JSON.

    It hands ``read_frame`` no catalog, so a binary sample frame from
    the server would raise rather than decode.
    """

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.sock.sendall(encode_frame(make_hello("json-peer")))
        self.welcome, _ = read_frame(self.sock)
        self.rx_payload = 0
        self._ids = itertools.count(1)

    def call(self, method, **params):
        request = make_request(next(self._ids), method, params)
        self.sock.sendall(encode_frame(request))
        response, consumed = read_frame(self.sock)
        self.rx_payload += consumed
        return response["result"]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.sock.close()


def bits(value):
    return struct.pack(">d", value)


def assert_same(got, want, where="result"):
    """``==`` with NaN compared bit for bit, and the same types all the
    way down: a plan must hand back what the general path did."""
    assert type(got) is type(want), (where, type(got), type(want))
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for at, (a, b) in enumerate(zip(got, want)):
            assert_same(a, b, f"{where}[{at}]")
    elif isinstance(want, MetricRow):
        assert got.names is want.names, where
        assert got.row.dtype == want.row.dtype == np.float64, where
        assert got.row.flags.owndata == want.row.flags.owndata, where
        assert got.row.tobytes() == want.row.tobytes(), where
    elif isinstance(want, float):
        assert bits(got) == bits(want), (where, got, want)
    else:
        assert got == want, where
