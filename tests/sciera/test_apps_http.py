"""Unit tests for the mini-HTTP substrate and the ported applications."""

import pytest

from repro.endhost.pan import HostRegistry, PanContext, ScionHost
from repro.endhost.daemon import Daemon
from repro.scion.addr import HostAddr, IA
from repro.scion.network import ScionNetwork
from repro.sciera.apps import (
    AppError,
    Bat,
    MiniHttpServer,
    ReverseProxy,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    enablement_report,
)
from tests.conftest import make_diamond_topology

A = IA.parse("71-100")
B = IA.parse("71-200")


@pytest.fixture(scope="module")
def web_world():
    network = ScionNetwork(make_diamond_topology(), seed=9)
    registry = HostRegistry()
    host_a = ScionHost(network, A, "10.1.0.1", registry, daemon=Daemon(network, A))
    host_b = ScionHost(network, B, "10.2.0.1", registry, daemon=Daemon(network, B))
    return network, host_a, host_b


class TestHttpCodec:
    def test_request_round_trip(self):
        raw = encode_request("GET", "/data", {"Accept": "text/plain"})
        method, path, headers = decode_request(raw)
        assert (method, path) == ("GET", "/data")
        assert headers["Accept"] == "text/plain"

    def test_response_round_trip(self):
        raw = encode_response(200, b"body", {"Server": "mini/1.0"})
        response = decode_response(raw)
        assert response.status == 200
        assert response.body == b"body"
        assert response.headers["Server"] == "mini/1.0"
        assert response.ok

    def test_malformed_request_rejected(self):
        with pytest.raises(AppError):
            decode_request(b"NONSENSE")

    def test_malformed_response_rejected(self):
        with pytest.raises(AppError):
            decode_response(b"NOT-HTTP\r\n\r\n")

    def test_error_status_not_ok(self):
        assert not decode_response(encode_response(404, b"", {})).ok


class TestBatUrlParsing:
    def test_scion_url(self):
        addr = Bat._parse_url("scion://71-200,10.2.0.1:80/index")
        assert addr == HostAddr(B, "10.2.0.1", 80)
        assert Bat._path_of("scion://71-200,10.2.0.1:80/index") == "/index"

    def test_missing_path_defaults_to_root(self):
        assert Bat._path_of("scion://71-200,10.2.0.1:80") == "/"

    def test_non_scion_url_rejected(self):
        with pytest.raises(AppError, match="not a SCION URL"):
            Bat._parse_url("https://example.com/")

    def test_bad_authority_rejected(self):
        for url in ("scion://banana/", "scion://71-200,10.2.0.1:http/",
                    "scion://7x-200,10.2.0.1:80/"):
            with pytest.raises(AppError, match="bad SCION authority"):
                Bat._parse_url(url)


class TestAppsEndToEnd:
    def test_404_for_unknown_route(self, web_world):
        _, host_a, host_b = web_world
        server = MiniHttpServer(PanContext(host_b), port=8001)
        server.route("/known", lambda headers: b"yes")
        bat = Bat(PanContext(host_a))
        response = bat.get(f"scion://{B},{host_b.ip}:8001/unknown")
        assert response.status == 404
        server.socket.close()

    def test_proxy_marks_non_scion_local_traffic(self, web_world):
        network, host_a, host_b = web_world
        backend = MiniHttpServer(PanContext(host_b), port=8002)
        backend.route("/x", lambda headers: b"ok")
        proxy = ReverseProxy(PanContext(host_b), backend)
        # A request from a host in the SAME AS travels intra-AS: no SCION
        # path is involved, and the plugin marks it X-SCION: off.
        registry = host_b.registry
        local = ScionHost(network, B, "10.2.0.99", registry,
                          daemon=host_b.daemon)
        sock = PanContext(local).open_socket()
        from repro.sciera.apps import encode_request as enc

        result = sock.send_to(
            HostAddr(B, host_b.ip, 443), enc("GET", "/x", {})
        )
        assert result.success
        assert backend.requests_seen[-1][1].get("X-SCION") == "off"
        proxy.plugin.socket.close()
        backend.socket.close()

    def test_enablement_report_all_small(self):
        for entry in enablement_report():
            assert entry.lines_of_code < 20, entry.application

