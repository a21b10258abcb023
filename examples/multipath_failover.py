#!/usr/bin/env python3
"""Multipath resilience: the submarine cable cut (paper §5.5, §4.7).

In August 2024 a submarine cable between Korea and Singapore was cut;
"communication seamlessly continued without any disruption" because SCION
end hosts switch among path options instantly. This example reproduces the
event: a latency-sensitive application (the paper's competitive-gaming
pitch) keeps a session running from Korea University to NUS Singapore
while the whole Korea-HK-Singapore corridor goes dark.

Run:  python examples/multipath_failover.py
"""

from repro.endhost.pan import PanContext
from repro.endhost.policy import LowestLatencyPolicy
from repro.scion.addr import HostAddr
from repro.sciera.build import build_sciera

CORRIDOR_LEGS = (
    "kreonet-dj-hk", "kreonet-dj-hk-2", "kreonet-dj-hk-3", "kreonet-dj-hk-4",
    "kreonet-hk-sg", "kreonet-hk-sg-2", "kreonet-hk-sg-3", "kreonet-hk-sg-4",
)


def main() -> None:
    print("Building SCIERA...")
    world = build_sciera(seed=7)
    network = world.network

    korea = world.host("71-2:0:4d")   # Korea University
    nus = world.host("71-2:0:61")     # NUS Singapore
    game_server = PanContext(nus).open_socket(27015)
    game_server.on_message(lambda payload, src, path: b"tick:" + payload)
    player = PanContext(korea).open_socket()
    target = HostAddr(nus.ia, nus.ip, 27015)
    policy = LowestLatencyPolicy()

    print(f"\nActive paths Korea University -> NUS: "
          f"{len(network.active_paths(korea.ia, nus.ia))}")
    before = player.send_with_failover(target, b"move#1", policy=policy)
    route = " -> ".join(str(ia) for ia in before.path.as_sequence)
    print(f"  in-game RTT: {before.rtt_s*1000:.0f} ms via {route}")

    print("\n*** submarine cable cut: the Korea-HK-Singapore corridor dies ***")
    for leg in CORRIDOR_LEGS:
        network.set_link_state(leg, False)
    remaining = network.active_paths(korea.ia, nus.ia)
    print(f"  active paths remaining: {len(remaining)} "
          "(westward, around the globe)")

    after = player.send_with_failover(target, b"move#2", policy=policy)
    assert after.success, "multipath failover must keep the session alive"
    route = " -> ".join(str(ia) for ia in after.path.as_sequence)
    print(f"  session continues! RTT now {after.rtt_s*1000:.0f} ms via")
    print(f"    {route}")
    print(f"  (tried {after.paths_tried} path(s) before succeeding)")

    print("\n*** cable repaired ***")
    for leg in CORRIDOR_LEGS:
        network.set_link_state(leg, True)
    repaired = player.send_with_failover(target, b"move#3", policy=policy)
    print(f"  RTT back to {repaired.rtt_s*1000:.0f} ms")

    # Single-path networking would have dropped the session outright:
    single_path_survives = before.path.fingerprint in {
        meta.fingerprint for meta in remaining
    }
    print(f"\nWould the original (single) path have survived the cut? "
          f"{single_path_survives}")


if __name__ == "__main__":
    main()
