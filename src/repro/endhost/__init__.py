"""The SCION end-host stack: daemon, bootstrapper, and application library.

Section 2 of the paper: "The end-host stack for a SCION network can be
broadly divided into three core components: the daemon, bootstrapper, and
application library." All three live here, together with the path policies.
"""

from repro.endhost.daemon import Daemon
from repro.endhost.policy import (
    GeofencePolicy,
    LowestLatencyPolicy,
    PathPolicy,
    PolicyError,
    ShortestPolicy,
    policy_from_commandline,
)
from repro.endhost.pan import AppLibraryMode, PanContext, ScionHost, ScionSocket

__all__ = [
    "Daemon",
    "PathPolicy",
    "PolicyError",
    "ShortestPolicy",
    "LowestLatencyPolicy",
    "GeofencePolicy",
    "policy_from_commandline",
    "AppLibraryMode",
    "PanContext",
    "ScionHost",
    "ScionSocket",
]
