"""Section 5.2: application enablement effort (bat, Caddy plugin, netcat)."""

from __future__ import annotations

from repro.endhost.pan import PanContext
from repro.experiments.common import get_world
from repro.experiments.registry import Comparison, ExperimentResult
from repro.scion.addr import HostAddr
from repro.sciera.apps import (
    Bat,
    MiniHttpServer,
    Netcat,
    ReverseProxy,
    ScionDatagramSocket,
    enablement_report,
)


def run(fast: bool = True) -> ExperimentResult:
    world = get_world()
    # Exercise each ported app end to end across the real deployment:
    # client at OVGU, services at UFMS (an intercontinental request).
    client_host = world.host("71-2:0:42")
    server_host = world.host("71-2:0:5c")
    server_ctx = PanContext(server_host)

    web = MiniHttpServer(server_ctx, port=8080)
    web.route("/dataset", lambda headers: b"simulation-results-v1")
    bat = Bat(PanContext(client_host), preference="latency")
    url = f"scion://{server_host.ia},{server_host.ip}:8080/dataset"
    response = bat.get(url)

    proxy = ReverseProxy(PanContext(server_host), web)
    proxied = bat.get(f"scion://{server_host.ia},{server_host.ip}:443/dataset")

    nc_server = Netcat(lambda: ScionDatagramSocket(PanContext(server_host), 7))
    nc_client = Netcat(lambda: ScionDatagramSocket(PanContext(client_host)))
    nc_client.send_line(HostAddr(server_host.ia, server_host.ip, 7), "ping")

    comparisons = []
    for entry in enablement_report():
        comparisons.append(
            Comparison(
                entry.application,
                entry.paper_claim,
                f"{entry.lines_of_code} LoC adapter",
            )
        )
    comparisons.append(
        Comparison(
            "bat end-to-end", "fetches over SCION with path policy",
            f"HTTP {response.status}, rtt {response.rtt_s*1000:.0f} ms "
            f"via {response.via_path}",
        )
    )
    comparisons.append(
        Comparison(
            "caddy plugin", "X-SCION headers on proxied requests",
            f"HTTP {proxied.status}, Via={proxied.headers.get('Via')}",
        )
    )
    comparisons.append(
        Comparison(
            "netcat", "drop-in DatagramSocket swap",
            f"received {nc_server.received_lines()!r}",
        )
    )
    # Clean up sockets so repeated runs don't collide on ports.
    web.socket.close()
    proxy.plugin.socket.close()
    nc_server.socket._socket.close()
    return ExperimentResult(
        "sec52", "Application enablement effort", comparisons=comparisons,
    )
