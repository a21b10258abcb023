"""SCION-enabled applications (paper Section 5.2).

The paper's application-enablement case study ports three apps with
minimal diffs: the ``bat`` HTTP client (<20 lines), a Caddy reverse-proxy
plugin, and a Java netcat whose ``DatagramSocket`` is swapped for JPAN's
drop-in replacement. We reproduce the same structure over our PAN library:

* each application is written against a minimal transport seam,
* the SCION adapters below are the *entire* integration diff,
* :func:`enablement_report` measures their size in actual lines of code,
  reproducing the "<20 lines for bat" claim mechanically.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.endhost.pan import PanContext, ScionSocket, SendResult
from repro.endhost.policy import PathPolicy, policy_from_commandline
from repro.scion.addr import AddrError, HostAddr


class AppError(Exception):
    """Raised for malformed URLs or unreachable services."""


# --------------------------------------------------------------------------------
# A tiny HTTP/1.0-over-datagram implementation (the "web" substrate).
# --------------------------------------------------------------------------------


@dataclass(frozen=True)
class HttpResponse:
    status: int
    body: bytes
    headers: Dict[str, str]
    rtt_s: float = 0.0
    via_path: Optional[str] = None   # AS-level route, for display

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def encode_request(method: str, path: str, headers: Dict[str, str]) -> bytes:
    lines = [f"{method} {path} HTTP/1.0"]
    lines += [f"{k}: {v}" for k, v in sorted(headers.items())]
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


def decode_request(raw: bytes) -> Tuple[str, str, Dict[str, str]]:
    text = raw.decode(errors="replace")
    head, _, _ = text.partition("\r\n\r\n")
    lines = head.split("\r\n")
    try:
        method, path, _ = lines[0].split(" ", 2)
    except ValueError:
        raise AppError(f"malformed request line {lines[0]!r}") from None
    headers = {}
    for line in lines[1:]:
        if ": " in line:
            key, value = line.split(": ", 1)
            headers[key] = value
    return method, path, headers


def encode_response(status: int, body: bytes, headers: Dict[str, str]) -> bytes:
    lines = [f"HTTP/1.0 {status}"]
    lines += [f"{k}: {v}" for k, v in sorted(headers.items())]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def decode_response(raw: bytes, rtt_s: float = 0.0,
                    via_path: Optional[str] = None) -> HttpResponse:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode(errors="replace").split("\r\n")
    try:
        status = int(lines[0].split(" ", 1)[1])
    except (IndexError, ValueError):
        raise AppError(f"malformed status line {lines[0]!r}") from None
    headers = {}
    for line in lines[1:]:
        if ": " in line:
            key, value = line.split(": ", 1)
            headers[key] = value
    return HttpResponse(status, body, headers, rtt_s=rtt_s, via_path=via_path)


class MiniHttpServer:
    """A toy web server bound to a PAN socket."""

    def __init__(self, context: PanContext, port: int = 80):
        self.socket = context.open_socket(port)
        self.routes: Dict[str, Callable[[Dict[str, str]], bytes]] = {}
        self.requests_seen: List[Tuple[str, Dict[str, str]]] = []
        self.socket.on_message(self._serve)

    @property
    def address(self) -> HostAddr:
        return self.socket.local_address

    def route(self, path: str, handler: Callable[[Dict[str, str]], bytes]) -> None:
        self.routes[path] = handler

    def _serve(self, payload, src, path_meta):
        try:
            method, path, headers = decode_request(payload)
        except AppError:
            return encode_response(400, b"bad request", {})
        self.requests_seen.append((path, headers))
        handler = self.routes.get(path)
        if handler is None:
            return encode_response(404, b"not found", {})
        return encode_response(200, handler(headers), {"Server": "mini/1.0"})


# --------------------------------------------------------------------------------
# bat: the cURL-like client. ScionTransport below is the whole "diff".
# --------------------------------------------------------------------------------


class ScionBatTransport:
    """The SCION enablement diff for bat (paper: fewer than 20 LoC).

    Mirrors the real port: parse the PAN policy flags, swap the transport
    to a SCION-enabled one, mangle SCION addresses in URLs.
    """

    def __init__(self, context, sequence="", preference="", interactive=False,
                 chooser=None):
        self.policy = policy_from_commandline(sequence, preference,
                                              interactive, chooser)
        self.socket = context.open_socket()

    def round_trip(self, dst, payload):
        result = self.socket.send_to(dst, payload, policy=self.policy)
        if not result.success or result.reply is None:
            raise AppError(f"request failed: {result.failure or 'no reply'}")
        return result


class Bat:
    """``bat`` — a cURL-like web client with SCION CLI flags."""

    def __init__(
        self,
        context: PanContext,
        sequence: str = "",
        preference: str = "",
        interactive: bool = False,
        chooser=None,
    ):
        self._transport = ScionBatTransport(
            context, sequence, preference, interactive, chooser
        )

    def get(self, url: str, headers: Optional[Dict[str, str]] = None) -> HttpResponse:
        dst = self._parse_url(url)
        request = encode_request("GET", self._path_of(url), headers or {})
        result = self._transport.round_trip(dst, request)
        via = "->".join(str(ia) for ia in result.path.as_sequence) if result.path else None
        return decode_response(result.reply, rtt_s=result.rtt_s, via_path=via)

    @staticmethod
    def _parse_url(url: str) -> HostAddr:
        """Parse 'scion://ISD-AS,host:port/path' (the mangled-URL scheme)."""
        if not url.startswith("scion://"):
            raise AppError(f"not a SCION URL: {url!r}")
        rest = url[len("scion://"):]
        authority = rest.split("/", 1)[0]
        try:
            return HostAddr.parse(authority)
        except AddrError as exc:
            raise AppError(f"bad SCION authority {authority!r}: {exc}") from exc

    @staticmethod
    def _path_of(url: str) -> str:
        rest = url.split("://", 1)[-1]
        slash = rest.find("/")
        return rest[slash:] if slash >= 0 else "/"


# --------------------------------------------------------------------------------
# Caddy-style reverse proxy: the plugin is the SCION diff.
# --------------------------------------------------------------------------------


class ScionCaddyPlugin:
    """The SCION enablement diff for the Caddy reverse proxy.

    Like the real plugin (Appendix F): registers the 'scion' network,
    tags proxied requests with X-SCION headers so backends can tell how
    the request arrived.
    """

    def __init__(self, context):
        self.socket = context.open_socket(443)

    def annotate(self, headers, src, path_meta):
        if path_meta is not None:
            headers["X-SCION"] = "on"
            headers["X-SCION-Remote-Addr"] = str(src)
        else:
            headers["X-SCION"] = "off"
        return headers


class ReverseProxy:
    """A Caddy-like reverse proxy serving SCION clients from an IP backend."""

    def __init__(self, context: PanContext, backend: MiniHttpServer):
        self.plugin = ScionCaddyPlugin(context)
        self.backend = backend
        self.proxied = 0
        self.plugin.socket.on_message(self._proxy)

    @property
    def address(self) -> HostAddr:
        return self.plugin.socket.local_address

    def _proxy(self, payload, src, path_meta):
        try:
            method, path, headers = decode_request(payload)
        except AppError:
            return encode_response(502, b"bad gateway", {})
        headers = self.plugin.annotate(headers, src, path_meta)
        handler = self.backend.routes.get(path)
        self.backend.requests_seen.append((path, headers))
        self.proxied += 1
        if handler is None:
            return encode_response(404, b"not found", {})
        return encode_response(200, handler(headers), {"Via": "scion-caddy"})


# --------------------------------------------------------------------------------
# netcat: the datagram socket swap (the JPAN DatagramSocket trick).
# --------------------------------------------------------------------------------


class ScionDatagramSocket:
    """Drop-in DatagramSocket replacement (the whole netcat diff)."""

    def __init__(self, context, port=0):
        self._socket = context.open_socket(port)
        self._socket.on_message(self._receive)
        self.inbox = []

    def _receive(self, payload, src, path_meta):
        self.inbox.append((payload, src))
        return None

    @property
    def address(self):
        return self._socket.local_address

    def send(self, dst, payload):
        return self._socket.send_to(dst, payload)


class Netcat:
    """A minimal UDP netcat over whatever datagram socket it is given."""

    def __init__(self, socket_factory: Callable[[], ScionDatagramSocket]):
        self.socket = socket_factory()

    def send_line(self, dst: HostAddr, line: str) -> SendResult:
        return self.socket.send(dst, (line + "\n").encode())

    def received_lines(self) -> List[str]:
        return [
            payload.decode(errors="replace").rstrip("\n")
            for payload, _ in self.socket.inbox
        ]


# --------------------------------------------------------------------------------
# The Section 5.2 measurement: how big is each integration diff, really?
# --------------------------------------------------------------------------------


@dataclass(frozen=True)
class EnablementEntry:
    application: str
    adapter: str
    lines_of_code: int
    paper_claim: str


def _loc(obj) -> int:
    """Lines of actual code in an object: statements minus docstrings."""
    import ast
    import textwrap

    tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    lines: set = set()

    def visit(node) -> None:
        body = getattr(node, "body", [])
        for index, child in enumerate(body):
            is_docstring = (
                index == 0
                and isinstance(child, ast.Expr)
                and isinstance(child.value, ast.Constant)
                and isinstance(child.value.value, str)
            )
            if is_docstring:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                lines.add(child.lineno)  # the def/class line itself
                visit(child)
            else:
                for line in range(child.lineno, (child.end_lineno or child.lineno) + 1):
                    lines.add(line)

    visit(tree.body[0])
    lines.add(tree.body[0].lineno)
    return len(lines)


def enablement_report() -> List[EnablementEntry]:
    """Measured size of each SCION integration adapter in this codebase."""
    return [
        EnablementEntry(
            application="bat (cURL-like web client)",
            adapter="ScionBatTransport",
            lines_of_code=_loc(ScionBatTransport),
            paper_claim="fewer than 20 lines of code",
        ),
        EnablementEntry(
            application="Caddy reverse proxy",
            adapter="ScionCaddyPlugin",
            lines_of_code=_loc(ScionCaddyPlugin),
            paper_claim="a small plugin registering the scion network",
        ),
        EnablementEntry(
            application="netcat (Java/JPAN style)",
            adapter="ScionDatagramSocket",
            lines_of_code=_loc(ScionDatagramSocket),
            paper_claim="drop-in DatagramSocket replacement",
        ),
    ]
