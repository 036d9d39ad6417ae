"""Flight recorder, incident bundles and archive replay for the fpt-core
(DESIGN.md "Flight recorder"): record what flowed through every channel
(:class:`FlightRecorder`), freeze the evidence when an alarm fires
(:func:`build_incident_bundle`), and replay a recorded archive through
any configuration (:class:`ReplayArchive`, :func:`run_replay`).
"""

from .bundle import (
    build_incident_bundle,
    load_bundles,
    render_bundle_text,
    upstream_instances,
)
from .codec import decode_value, encode_value
from .recorder import ArchiveWriter, ChannelRing, FlightRecorder
from .replay import (
    ReplayArchive,
    ReplayRecord,
    ReplayResult,
    ReplaySourceModule,
    make_replay_registry,
    replay_core,
    run_replay,
)

__all__ = [
    "ArchiveWriter",
    "ChannelRing",
    "FlightRecorder",
    "ReplayArchive",
    "ReplayRecord",
    "ReplayResult",
    "ReplaySourceModule",
    "build_incident_bundle",
    "decode_value",
    "encode_value",
    "load_bundles",
    "make_replay_registry",
    "render_bundle_text",
    "replay_core",
    "run_replay",
    "upstream_instances",
]
