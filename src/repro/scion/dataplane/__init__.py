"""SCION data plane: border routers, delivery, the end-host data path."""

from repro.scion.dataplane.router import BorderRouter, RouterDecision, Verdict
from repro.scion.dataplane.network import ScionDataplane, ProbeResult
from repro.scion.dataplane.dispatcher import EndHostDataPathModel

__all__ = [
    "BorderRouter",
    "RouterDecision",
    "Verdict",
    "ScionDataplane",
    "ProbeResult",
    "EndHostDataPathModel",
]
