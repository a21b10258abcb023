#!/usr/bin/env python3
"""Quickstart: stand up the SCIERA deployment and use it from an end host.

This walks the whole story of the paper in a couple of minutes:

1. build the Figure-1 topology with a converged SCION control plane
   (TRCs, CAs, certificates, beaconing, path servers) and live data plane;
2. bootstrap a brand-new laptop into an AS automatically (Section 4.1) —
   no manual configuration, hint discovered from the network;
3. look up paths to a remote AS and inspect the multipath options;
4. exchange messages over authenticated SCION paths with a path policy.

Run:  python examples/quickstart.py
"""

import random

from repro.endhost.pan import PanContext
from repro.endhost.policy import GeofencePolicy, LowestLatencyPolicy
from repro.scion.addr import HostAddr, IA
from repro.sciera.build import build_sciera


def main() -> None:
    print("Building SCIERA (29 ASes, 2 ISDs, 5 continents)...")
    world = build_sciera(seed=7)
    network = world.network
    stats = network.beaconing.stats
    print(f"  beaconing converged in {stats.rounds} rounds, "
          f"{stats.beacons_accepted} beacons accepted, "
          f"{stats.beacons_rejected_invalid} invalid\n")

    # -- 2. automatic bootstrapping ------------------------------------------------
    print("A new laptop joins the OVGU campus network (71-2:0:42):")
    bootstrapper = world.bootstrapper_for(
        "71-2:0:42", os_name="Linux", rng=random.Random(1)
    )
    result = bootstrapper.bootstrap()
    print(f"  hint via {result.mechanism.value} "
          f"in {result.hint_latency_s*1000:.1f} ms")
    print(f"  signed topology + TRC fetched and validated "
          f"in {result.config_latency_s*1000:.1f} ms")
    print(f"  total time to connectivity: "
          f"{result.total_latency_s*1000:.1f} ms "
          f"(the paper's Figure 4: median < 150 ms)\n")

    # -- 3. path lookup ---------------------------------------------------------------
    src, dst = IA.parse("71-2:0:42"), IA.parse("71-2:0:5c")
    paths = network.paths(src, dst)
    print(f"Paths from OVGU ({src}) to UFMS in Brazil ({dst}): {len(paths)}")
    for meta in paths[:5]:
        route = " -> ".join(str(ia) for ia in meta.as_sequence)
        print(f"  {2000*meta.latency_estimate_s:6.1f} ms RTT  {route}")
    print("  ...\n")

    # -- 4. sockets with path policies ---------------------------------------------------
    server_host = world.host("71-2:0:5c")
    client_host = world.host("71-2:0:42")
    server = PanContext(server_host).open_socket(7777)
    server.on_message(lambda payload, src_addr, path: b"ACK:" + payload)

    client = PanContext(client_host).open_socket()
    fast = client.send_to(
        HostAddr(server_host.ia, server_host.ip, 7777),
        b"hello UFMS",
        policy=LowestLatencyPolicy(),
    )
    print(f"Lowest-latency send: rtt {fast.rtt_s*1000:.1f} ms, "
          f"reply {fast.reply!r}")
    route = " -> ".join(str(ia) for ia in fast.path.as_sequence)
    print(f"  via {route}")

    avoid_bridges = GeofencePolicy(forbidden_ases=[IA.parse("71-2:0:35")])
    fenced = client.send_to(
        HostAddr(server_host.ia, server_host.ip, 7777),
        b"hello again",
        policy=avoid_bridges.then(LowestLatencyPolicy()),
    )
    route = " -> ".join(str(ia) for ia in fenced.path.as_sequence)
    print(f"Geofenced send (avoiding BRIDGES): rtt {fenced.rtt_s*1000:.1f} ms")
    print(f"  via {route}")
    assert IA.parse("71-2:0:35") not in fenced.path.as_sequence


if __name__ == "__main__":
    main()
