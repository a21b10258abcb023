"""Layer boundaries of the traced run: wrap points, tracer, self-time maths.

The benchmark measures every layer *from outside*: `WRAP_POINTS` is the one
table of public callables at layer boundaries, `tracing()` patches them at
run time (class attribute, and every ``repro.*`` module binding where the
callee was imported by name) and restores the original objects on exit.
Nothing under ``src/`` is edited.

A span records (name, start, end, parent span, operation id).  Per-hop
callables get counts only: a Python wrapper costs more than the 0.5 us call
it would time.  A layer's self time is its spans' duration minus the part
their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: Span name of one client operation; parent of every layer span of that op.
ROOT_SPAN = "client.op"


@dataclass(frozen=True)
class WrapPoint:
    target: str               # "package.module:function" or ":Class.method"
    span: str                 # "<layer>.<what>"; metrics are <span>_calls/_self_s
    counts_only: bool = False
    sized: bool = False       # also sum len(result), for per-call ratios


WRAP_POINTS: Tuple[WrapPoint, ...] = (
    WrapPoint("repro.scion.crypto.rsa:RsaKeyPair.generate", "crypto.rsa_keygen"),
    WrapPoint("repro.scion.crypto.rsa:sign", "crypto.rsa_sign"),
    WrapPoint("repro.scion.crypto.rsa:verify", "crypto.rsa_verify"),
    WrapPoint("repro.scion.crypto.mac:verify_hop_mac", "crypto.hop_mac",
              counts_only=True),
    WrapPoint("repro.scion.control.beaconing:BeaconingEngine.run",
              "beaconing.run"),
    WrapPoint("repro.scion.control.path_server:SegmentRegistry.register_core",
              "path_server.register"),
    WrapPoint("repro.scion.control.path_server:SegmentRegistry.register_down",
              "path_server.register"),
    WrapPoint("repro.scion.control.path_server:LocalPathServer.register_up",
              "path_server.register"),
    # LocalPathServer.revoke is the entry point (it verifies, then calls
    # SegmentRegistry.revoke), so one revocation is one span.
    WrapPoint("repro.scion.control.path_server:LocalPathServer.revoke",
              "path_server.revoke"),
    WrapPoint("repro.scion.control.path_server:LocalPathServer.segments_for",
              "path_server.segments_for"),
    WrapPoint("repro.scion.control.combinator:combine_paths",
              "combinator.combine", sized=True),
    WrapPoint("repro.scion.network:ScionNetwork.__init__", "build.network"),
    WrapPoint("repro.scion.network:ScionNetwork.paths", "network.paths"),
    WrapPoint("repro.endhost.daemon:Daemon.lookup", "daemon.lookup"),
    WrapPoint("repro.endhost.policy:LowestLatencyPolicy.order",
              "pan.policy_order"),
    WrapPoint("repro.endhost.pan:ScionSocket.send_to", "pan.send"),
    WrapPoint("repro.endhost.pan:ScionSocket.send_with_failover", "pan.send"),
    WrapPoint("repro.scion.dataplane.network:ScionDataplane.probe",
              "dataplane.probe"),
    WrapPoint("repro.scion.dataplane.network:ScionDataplane.send",
              "dataplane.send"),
    WrapPoint("repro.scion.dataplane.router:BorderRouter.decide",
              "dataplane.router_decide", counts_only=True),
    WrapPoint("repro.netsim.link:Link.transmit", "simulator.link_transmit",
              counts_only=True),
    WrapPoint("repro.netsim.simulator:Simulator.run", "simulator.run"),
    WrapPoint("repro.sciera.build:build_sciera", "build.hosts"),
)

#: (name index, start ns, end ns, parent span index or -1, operation id)
Span = Tuple[int, int, int, int, int]


class Tracer:
    """In-memory span and count store for one traced slice."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT_SPAN]
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.sizes: Dict[str, int] = {}
        self._stack: List[int] = []
        self._op_id = -1

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span_wrapper(self, fn: Callable, name: str, sized: bool = False) -> Callable:
        index = self._name_index(name)
        spans, stack, sizes = self.spans, self._stack, self.sizes
        clock = time.perf_counter_ns
        if sized:
            sizes.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot = len(spans)
            spans.append(None)  # children index after their parent
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    sizes[name] += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self._op_id)

        return wrapper

    def count_wrapper(self, fn: Callable, name: str) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, fn: Callable) -> Callable:
        """Wrap the client's operation: one root span and a fresh op id."""
        inner = self.span_wrapper(fn, ROOT_SPAN)

        def wrapper(item):
            self._op_id += 1
            return inner(item)

        return wrapper


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Per span: its duration minus the duration of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Span name -> {"calls", "self_s", "total_s"}; count-only names -> {"calls"}."""
    calls = [0] * len(tracer.names)
    self_ns = [0] * len(tracer.names)
    total_ns = [0] * len(tracer.names)
    for (index, start, end, _, _), own in zip(
        tracer.spans, self_times_ns(tracer.spans)
    ):
        calls[index] += 1
        self_ns[index] += own
        total_ns[index] += end - start
    out: Dict[str, Dict[str, float]] = {
        name: {"calls": calls[i], "self_s": self_ns[i] / 1e9, "total_s": total_ns[i] / 1e9}
        for i, name in enumerate(tracer.names)
    }
    for name, count in tracer.counts.items():
        out[name] = {"calls": count}
    return out


# -- patching -----------------------------------------------------------------

#: (owner object, attribute name, original object) — enough to undo a patch.
Patch = Tuple[object, str, object]


def _rewrap(raw: object, wrap: Callable[[Callable], Callable]) -> object:
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    return wrap(raw)


def install(tracer: Tracer, points: Sequence[WrapPoint] = WRAP_POINTS) -> List[Patch]:
    """Patch every wrap point; returns the undo list (apply in reverse)."""
    patches: List[Patch] = []
    for point in points:
        module_name, _, attr_path = point.target.partition(":")
        module = importlib.import_module(module_name)
        if point.counts_only:
            wrap = functools.partial(tracer.count_wrapper, name=point.span)
        else:
            wrap = functools.partial(
                tracer.span_wrapper, name=point.span, sized=point.sized
            )
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = vars(owner)[attr]
            setattr(owner, attr, _rewrap(raw, wrap))
            patches.append((owner, attr, raw))
            continue
        # Module-level function: rebind every `from x import f` copy too.
        raw = getattr(module, attr)
        wrapped = wrap(raw)
        for name, other in list(sys.modules.items()):
            if other is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is raw:
                    setattr(other, key, wrapped)
                    patches.append((other, key, raw))
    return patches


def uninstall(patches: Sequence[Patch]) -> None:
    for owner, attr, raw in reversed(patches):
        setattr(owner, attr, raw)


@contextlib.contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    patches = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patches)
