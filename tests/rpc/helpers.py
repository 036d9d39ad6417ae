"""A strict result comparison for the codec tests."""

import struct

import numpy as np

from repro.rpc.protocol import MetricRow


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
