"""SCION control plane: beaconing, path segments, path servers, combination."""

from repro.scion.control.segments import (
    ASEntry,
    Beacon,
    PeerEntry,
    SegmentType,
    BeaconError,
)
from repro.scion.control.beaconing import BeaconingEngine, BeaconStore
from repro.scion.control.path_server import SegmentRegistry, LocalPathServer
from repro.scion.control.combinator import (
    CombinatorError,
    CoreHalf,
    combine_paths,
)

__all__ = [
    "ASEntry",
    "Beacon",
    "PeerEntry",
    "SegmentType",
    "BeaconError",
    "BeaconingEngine",
    "BeaconStore",
    "SegmentRegistry",
    "LocalPathServer",
    "combine_paths",
    "CombinatorError",
    "CoreHalf",
]
