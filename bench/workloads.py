"""The five workloads: what one operation is, its inputs, and its oracle.

Every workload is a closed loop of one client on one thread.  A *slice* is a
fixed list of operations made from ``--seed`` (the program is handed the
generated inputs, never the seed); the harness runs whole slices until
``--seconds`` have been measured, so a slice's counts and digest repeat
exactly while the number of slices follows the clock.

Except for ``churn_failover`` every slice covers the same set of inputs in a
seeded order, and its digest is taken over the *sorted* outputs — so the
measured work and the pinned digest are the same for every seed and only the
order differs.  ``churn_failover`` is stateful (sim time advances, revocations
come and go): slice k must follow slice k-1, and only slice 0 of the pinned
seed has a pinned digest.
"""

from __future__ import annotations

import collections
import hashlib
import math
import random
import statistics
from typing import Dict, List, Sequence, Tuple

import layers
from repro.netsim.simulator import Simulator
from repro.scion.addr import HostAddr
from repro.scion.crypto import mac as mac_mod
from repro.scion.packet import ScionPacket
from repro.sciera import build as build_mod

PAYLOAD = b"x" * 256
ECHO_PORT = 7
#: `--smoke` divides every slice's operation count by this.
SMOKE_DIVISOR = 50


def digest_of(rows: object) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


class Workload:
    name = ""
    why = ""
    #: Slices the run completes even if ``--seconds`` is already used up.
    min_slices = 1
    #: Upper bound on slices (None = only the clock stops the run).
    max_slices = None
    #: Slice the traced run traces (after running slice 0 untraced).
    traced_slice = 0
    #: True when every slice covers the same inputs, so all digests agree.
    same_every_slice = True
    #: True when the digest does not depend on ``--seed``.
    seed_independent_digest = True

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.divisor = SMOKE_DIVISOR if smoke else 1
        self.world = None
        self.extra: Dict[str, float] = collections.Counter()

    def rng(self, *key: object) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + key)))

    def prepare(self, world) -> None:
        """Workload-specific part of set-up (timed as part of ``setup_s``)."""
        self.world = world
        self.now = float(world.network.timestamp)
        self.hosts = sorted(world.hosts)

    def run_slice(self, k: int, rec) -> None:
        raise NotImplementedError

    def verify(self, k: int, items: Sequence, outputs: Sequence) -> Tuple[int, str]:
        """(operations whose output is wrong, digest of the slice's outputs)."""
        raise NotImplementedError

    def scale_exponent(self) -> float:
        """Log-log slope of beaconing time against AS count (converge only)."""
        return 0.0

    def counters(self) -> Dict[str, float]:
        """Cumulative counts kept by the program itself (and by the client)."""
        net = self.world.network
        registry = net.registry.stats
        mac = mac_mod.mac_cache_info()
        out = {
            "registry.lookups": registry.lookups,
            "registry.cache_hits": registry.cache_hits,
            "registry.segments_quarantined": registry.segments_quarantined,
            "mac.hits": mac.hits,
            "mac.misses": mac.misses,
        }
        for field in ("lookups", "cache_hits", "revocations_received", "paths_evicted"):
            out[f"daemon.{field}"] = sum(
                getattr(host.daemon.stats, field) for host in self.world.hosts.values()
            )
        out.update(self.extra)
        return out

    # -- shared helpers -------------------------------------------------------

    def shuffled_passes(self, rng: random.Random, population: Sequence, passes: int) -> List:
        """`passes` seeded shuffles of the whole population, cut for `--smoke`:
        every slice covers every input equally often, only the order is seeded."""
        count = max(1, passes * len(population) // self.divisor)
        items: List = []
        while len(items) < count:
            items.extend(rng.sample(population, len(population)))
        return items[:count]

    def host_pairs(self) -> List[Tuple[str, str]]:
        return [(s, d) for s in self.hosts for d in self.hosts if s != d]

    def open_sockets(self) -> None:
        """One client socket per host plus an echo socket every host answers on."""
        self.clients, self.echo_addr, self._echoes = {}, {}, []
        for name in self.hosts:
            context = self.world.pan(name)
            echo = context.open_socket(ECHO_PORT)
            echo.on_message(lambda payload, src, path: payload)
            self._echoes.append(echo)
            self.clients[name] = context.open_socket()
            host = self.world.hosts[name]
            self.echo_addr[name] = HostAddr(host.ia, host.ip, ECHO_PORT)

    def flush_lookup_memos(self) -> None:
        net = self.world.network
        net.flush_path_cache()
        for service in net.services.values():
            service.path_server.invalidate_cache()

    def drain_echoes(self) -> None:
        for echo in self._echoes:
            echo.received.clear()


class Converge(Workload):
    name = "converge"
    why = ("Control-plane write side: RSA keygen/sign/verify, core and intra-ISD "
           "beaconing to a fixed point, segment registration - what every world "
           "build pays; crypto and beaconing do almost all the work.")
    min_slices = 3
    traced_slice = 1  # another PKI seed than slice 0, so no MAC memo carries over

    def run_slice(self, k, rec):
        # One build per slice; PKI seeds cycle in a fixed order so the set of
        # builds in a run does not depend on --seed (key generation time does
        # depend on the PKI seed).
        rec.loop(self._op, [1 + k % 6])

    def _op(self, pki_seed):
        return build_mod.build_sciera(seed=pki_seed)

    def verify(self, k, items, outputs):
        rows, failed = [], 0
        for world in outputs:
            net = world.network
            stats = net.beaconing.stats
            core = len(net.registry.core_segments())
            down = sum(
                len(net.registry.down_segments(ia)) for ia in sorted(net.topology.ases)
            )
            rows.append((stats.rounds, stats.beacons_sent, stats.beacons_accepted,
                         core, down, len(world.hosts)))
            if not (0 < stats.beacons_accepted <= stats.beacons_sent and core and down):
                failed += 1
            self.extra["beaconing.rounds"] += stats.rounds
            self.extra["beaconing.beacons_sent"] += stats.beacons_sent
            self.extra["beaconing.beacons_accepted"] += stats.beacons_accepted
        return failed, digest_of(rows)

    def scale_exponent(self):
        # The ROADMAP's scaling column: flooding-based core beaconing should
        # grow faster than linearly in AS count.  Recorded, not gated.
        from repro.scion.network import ScionNetwork
        from repro.scion.topology import random_topology

        sizes = (8, 16, 32) if self.divisor > 1 else (16, 64, 128)
        seconds = []
        for n_ases in sizes:
            tracer = layers.Tracer()
            with layers.tracing(tracer):
                ScionNetwork(random_topology(n_ases, seed=5), seed=1)
            seconds.append(layers.summarize(tracer)["beaconing.run"]["total_s"])
        return statistics.linear_regression(
            [math.log(n) for n in sizes], [math.log(s) for s in seconds]
        ).slope


class ColdLookup(Workload):
    name = "cold_lookup"
    why = ("Control-plane read side with every cache empty (first contact, TTL "
           "expiry, registry version bump): pan -> daemon -> path server -> "
           "registry -> combinator over all 812 host pairs.")

    def prepare(self, world):
        super().prepare(world)
        contexts = {name: world.pan(name) for name in self.hosts}
        self.pairs = [
            (contexts[s], world.hosts[d].ia, s, d) for s, d in self.host_pairs()
        ]

    def run_slice(self, k, rec):
        items = self.shuffled_passes(self.rng(k), self.pairs, 1)
        for host in self.world.hosts.values():
            host.daemon.flush_cache()
        self.flush_lookup_memos()
        rec.loop(self._op, items)

    def _op(self, item):
        return item[0].paths(item[1], self.now)

    def verify(self, k, items, outputs):
        rows, failed = [], 0
        for (context, dst, s, d), metas in zip(items, outputs):
            ends_ok = bool(metas) and all(
                m.as_sequence[0] == context.host.ia and m.as_sequence[-1] == dst
                for m in metas
            )
            failed += not ends_ok
            rows.append((s, d, tuple(m.fingerprint for m in metas)))
        return failed, digest_of(sorted(rows))


class WarmSend(Workload):
    name = "warm_send"
    why = ("Application steady state, all caches warm: daemon cache hit -> policy "
           "best() -> analytic dataplane probe with memoised MACs -> echo reply. "
           "Bypasses combinator, path server, beaconing and RSA.")
    passes_per_slice = 6

    def prepare(self, world):
        super().prepare(world)
        self.open_sockets()
        self.pairs = [
            (self.clients[s], self.echo_addr[d], s, d) for s, d in self.host_pairs()
        ]
        for item in self.pairs:  # fill daemon, path-server and MAC caches
            if not self._op(item).success:
                raise RuntimeError(f"warm-up send {item[2]} -> {item[3]} failed")
        self.drain_echoes()

    def run_slice(self, k, rec):
        rec.loop(self._op, self.shuffled_passes(
            self.rng(k), self.pairs, self.passes_per_slice
        ))
        self.drain_echoes()

    def _op(self, item):
        return item[0].send_to(item[1], PAYLOAD, now=self.now)

    def verify(self, k, items, outputs):
        rows, failed = set(), 0
        for (_, _, s, d), result in zip(items, outputs):
            ok = result.success and result.reply == PAYLOAD
            failed += not ok
            self.extra["client.paths_tried"] += result.paths_tried
            rows.add((s, d, ok, result.path.fingerprint if result.path else "",
                      result.rtt_s))
        return failed, digest_of(sorted(rows))


class PacketEvents(Workload):
    name = "packet_events"
    why = ("Event-driven dataplane: per-hop BorderRouter.decide + Link.transmit + "
           "kernel timers for a burst of 28 packets, not the analytic walk; "
           "simulator and netsim.link dominate, end-host stack bypassed.")
    rounds_per_slice = 4  # bursts per slice = rounds x 29 source hosts
    #: Bursts start on whole seconds of one simulator clock: links keep
    #: per-direction transmit state, so the clock must never go back, and an
    #: exactly representable start keeps `arrival - start` bit-identical from
    #: burst to burst.  The cap keeps the clock below 2**20 s, where the
    #: spacing of floats (and with it the last bit of every arrival) changes.
    burst_gap_s = 1.0
    max_slices = 380

    def prepare(self, world):
        super().prepare(world)
        self.sim = Simulator(start_time=self.now)
        self.addr = {
            name: HostAddr(host.ia, host.ip, 4000) for name, host in world.hosts.items()
        }
        contexts = {name: world.pan(name) for name in self.hosts}
        self.routes = {
            s: [
                (d, contexts[s].select_path(world.hosts[d].ia, now=self.now).path)
                for d in self.hosts if d != s
            ]
            for s in self.hosts
        }

    def run_slice(self, k, rec):
        rec.loop(self._op, self.shuffled_passes(
            self.rng(k), self.hosts, self.rounds_per_slice
        ))

    def _op(self, src):
        sim = self.sim
        self.now += self.burst_gap_s
        sim.run(until=self.now)
        start, events_before = sim.now, sim.events_processed
        arrivals, drops = [], []
        dataplane = self.world.network.dataplane
        src_addr, addr = self.addr[src], self.addr

        def delivered(packet):
            arrivals.append((packet.dst, sim.now - start))

        def dropped(packet, reason, location):
            drops.append(reason)

        for dst, path in self.routes[src]:
            packet = ScionPacket(src=src_addr, dst=addr[dst], path=path, payload=PAYLOAD)
            dataplane.send(sim, packet, delivered, dropped)
        sim.run_until_idle()
        return arrivals, drops, sim.events_processed - events_before

    def verify(self, k, items, outputs):
        rows, failed = set(), 0
        for src, (arrivals, drops, events) in zip(items, outputs):
            failed += bool(drops) or len(arrivals) != len(self.routes[src])
            self.extra["client.packets"] += len(self.routes[src])
            self.extra["simulator.events"] += events
            self.extra["client.drops"] += len(drops)
            rows.update((src, str(dst.ia), at) for dst, at in arrivals)
        return failed, digest_of(sorted(rows))


class ChurnFailover(Workload):
    name = "churn_failover"
    why = ("Writes beside reads: 2 seeded parallel links go down per round, "
           "send_with_failover mints and verifies signed revocations, the registry "
           "quarantines and bumps versions, memos die, combinator re-runs.")
    same_every_slice = False
    seed_independent_digest = False
    traced_slice = 1  # stateful: slice 1 can only follow slice 0
    sends_per_round = 30
    send_gap_s = 0.05
    #: Past the revocation (10 s), down-interface (60 s) and daemon-cache
    #: (300 s) TTLs, so every round starts from expired end-host state.
    round_gap_s = 305.0
    #: Keeps total sim time under the 24 h hop-field expiry.
    max_slices = 25

    def prepare(self, world):
        super().prepare(world)
        self.open_sockets()
        # Only links with a parallel sibling go down, and never a whole
        # group at once: every pair stays reachable, so no send may fail.
        groups = collections.defaultdict(list)
        for name, link in sorted(world.network.topology.links.items()):
            groups[frozenset((link.a, link.b))].append(name)
        self.groups = [set(names) for names in groups.values() if len(names) > 1]
        self.pool = sorted(name for names in self.groups for name in names)
        # Steady state from slice 0 on: every daemon already holds an entry
        # per destination (evictions scan them), all of them expired, and the
        # lookup memos as empty as every registry version bump leaves them.
        for s, d in self.host_pairs():
            if not self._op((self.clients[s], self.echo_addr[d], self.now)).success:
                raise RuntimeError(f"warm-up send {s} -> {d} failed")
        self.drain_echoes()
        self.now += self.round_gap_s
        self.flush_lookup_memos()

    def _rounds(self, rng) -> List[Tuple[str, str]]:
        """The pool cut into pairs: in one slice every link goes down once,
        so slices differ in order and host pairs but not in which links fail."""
        while True:
            links = rng.sample(self.pool, len(self.pool))
            rounds = list(zip(links[::2], links[1::2]))
            if not any(set(down) == group for down in rounds for group in self.groups):
                return rounds

    def run_slice(self, k, rec):
        net = self.world.network
        rng = self.rng(k)
        rounds = self._rounds(rng)
        remaining = max(1, len(rounds) * self.sends_per_round // self.divisor)
        for down in rounds:
            sends = min(self.sends_per_round, remaining)
            if not sends:
                break
            items = []
            for i in range(sends):
                s, d = rng.sample(self.hosts, 2)
                items.append((self.clients[s], self.echo_addr[d],
                              self.now + i * self.send_gap_s))
            for name in down:
                net.set_link_state(name, False)
            rec.loop(self._op, items)
            for name in down:
                net.set_link_state(name, True)
            self.now += sends * self.send_gap_s + self.round_gap_s
            remaining -= sends
        self.drain_echoes()

    def _op(self, item):
        return item[0].send_with_failover(item[1], PAYLOAD, now=item[2])

    def verify(self, k, items, outputs):
        rows, failed = [], 0
        for result in outputs:
            ok = result.success and result.reply == PAYLOAD and result.paths_tried >= 1
            failed += not ok
            self.extra["client.paths_tried"] += result.paths_tried
            rows.append((result.success, result.paths_tried, result.failure))
        return failed, digest_of(rows)


WORKLOADS = {
    cls.name: cls
    for cls in (Converge, ColdLookup, WarmSend, PacketEvents, ChurnFailover)
}
