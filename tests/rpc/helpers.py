"""A JSON-only peer for interop tests: raw socket, public framing."""

import itertools
import socket

from repro.rpc.codec import read_frame
from repro.rpc.protocol import encode_frame, make_hello, make_request


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
