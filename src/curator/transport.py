"""One HTTP/1.1 POST over a socket: the client under llm_client.post_json.

Each call opens one connection, sends the request with `Connection:
close`, reads one response and closes the connection. The request is the
one urllib.request sends: the same request line, headers, header order
and User-Agent. The response may carry a Content-Length, a chunked body or
a body that runs to the close; 1xx interim responses are skipped, and a
3xx is returned like any other status, never followed. Header lines are
capped at 65536 bytes and a head at 100 lines, as http.client caps them.

`ssl` is imported only for a connection that needs TLS, an https URL or
an https proxy, so a plain-http endpoint never loads OpenSSL. TLS uses
`ssl.create_default_context()` with the server's hostname, so
certificates and hostnames are verified against the system CA store.

Proxies follow urllib's environment rule: `getproxies_environment` and
`proxy_bypass_environment` are ported below. A plain-http URL is sent to
its proxy as an absolute URL; an https URL goes through a CONNECT tunnel.
Credentials in the proxy URL are sent as `Proxy-Authorization: Basic`.
No system proxy setting (macOS, Windows) is read.

Every failure is an OSError: a failed connection or handshake, a timeout,
a response that is not HTTP/1.x, a body shorter than it declared, a
refused tunnel or a proxy URL that cannot be used.
"""

from __future__ import annotations

import os
import socket
import sys
from urllib.parse import unquote, urlsplit

#: urllib.request's User-Agent, so that the wire stays what it sent
USER_AGENT = "Python-urllib/%d.%d" % sys.version_info[:2]

_MAX_LINE = 65536  # http.client's _MAXLINE
_MAX_HEAD_LINES = 100  # http.client's _MAXHEADERS, the blank line included
_PORTS = {"http": 80, "https": 443}


def getproxies_environment() -> dict[str, str]:
    """{scheme: proxy URL} from the <scheme>_proxy variables, as urllib
    reads them: a lower-case name wins over any other case, an empty
    lower-case value removes the scheme, and HTTP_PROXY is ignored when
    REQUEST_METHOD is set (a CGI request can set it from a header)."""
    proxies = {}
    for name, value in os.environ.items():
        if value and name[-6:].lower() == "_proxy":
            proxies[name[:-6].lower()] = value
    if "REQUEST_METHOD" in os.environ:
        proxies.pop("http", None)
    for name, value in os.environ.items():
        if name[-6:] == "_proxy":
            if value:
                proxies[name[:-6].lower()] = value
            else:
                proxies.pop(name[:-6].lower(), None)
    return proxies


def proxy_bypass_environment(host: str, proxies: dict[str, str]) -> bool:
    """Whether no_proxy names host (`host` or `host:port`): `*` names every
    host, and each comma-separated entry, a leading dot ignored, names
    itself and its subdomains, with or without the port."""
    no_proxy = proxies.get("no")
    if no_proxy is None:
        return False
    if no_proxy == "*":
        return True
    host = host.lower()
    hostonly, colon, port = host.rpartition(":")
    if not colon or port.strip("0123456789"):  # a port is digits or nothing
        hostonly = host
    for name in no_proxy.split(","):
        name = name.strip().lstrip(".").lower()
        if name and (name in (hostonly, host)
                     or hostonly.endswith("." + name) or host.endswith("." + name)):
            return True
    return False


def _parse_proxy(proxy: str) -> tuple[str | None, str | None, str | None, str]:
    """(scheme, user, password, host[:port]) of a proxy URL or of a bare
    authority, as urllib's _parse_proxy reads it (scheme None for an
    authority)."""
    scheme, colon, rest = proxy.partition(":")
    if not colon or not scheme or "/" in scheme or not rest.startswith("/"):
        scheme, authority = None, proxy
    elif not rest.startswith("//"):
        raise OSError(f"proxy URL with no authority: {proxy!r}")
    else:
        end = rest.find("/", rest.find("@") if "@" in rest else 2)
        authority = rest[2:end] if end != -1 else rest[2:]
        scheme = scheme.lower()
    userinfo, at, hostport = authority.rpartition("@")
    user, colon, password = userinfo.partition(":")
    return scheme, user if at else None, password if at and colon else None, hostport


def _address(hostport: str, default_port: int) -> tuple[str, int]:
    try:
        parts = urlsplit("//" + hostport)
        return parts.hostname or "", parts.port or default_port
    except ValueError as exc:
        raise OSError(f"bad proxy address {hostport!r}: {exc}") from None


def _tls(sock: socket.socket, hostname: str) -> socket.socket:
    import ssl  # OpenSSL, loaded only for a connection that needs TLS

    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])
    return context.wrap_socket(sock, server_hostname=hostname)


def _read_head(f) -> tuple[int, bytes, dict[bytes, bytes]]:
    """(status, reason, headers) of one response head; a header's name is
    lower-cased and its first value kept."""
    line = f.readline(_MAX_LINE + 1)
    if not line:
        raise OSError("remote end closed the connection without a response")
    fields = line.split(None, 2)
    if (len(line) > _MAX_LINE or len(fields) < 2 or not fields[0].startswith(b"HTTP/1.")
            or not fields[1].isdigit() or not 100 <= int(fields[1]) <= 999):
        raise OSError(f"bad status line {line[:200]!r}")
    headers: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEAD_LINES):
        line = f.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise OSError("header line longer than %d bytes" % _MAX_LINE)
        if line in (b"\r\n", b"\n"):
            return int(fields[1]), fields[2].strip() if len(fields) > 2 else b"", headers
        if not line:
            raise OSError("connection closed inside the response headers")
        name, _, value = line.partition(b":")
        headers.setdefault(name.strip().lower(), value.strip())
    raise OSError("got more than %d headers" % _MAX_HEAD_LINES)


def _read_exactly(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) < n:
        raise OSError(f"connection closed {n - len(data)} bytes short of the body")
    return data


def _read_body(f, headers: dict[bytes, bytes]) -> bytes:
    """The body by Transfer-Encoding: chunked, else by Content-Length, else
    to the close."""
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        chunks = []
        while True:
            line = f.readline(_MAX_LINE + 1)
            try:
                size = int(line.partition(b";")[0], 16)
                if size < 0 or len(line) > _MAX_LINE:
                    raise ValueError
            except ValueError:
                raise OSError(f"bad chunk size line {line[:200]!r}") from None
            if size == 0:  # the trailer is not read: the connection closes
                return b"".join(chunks)
            chunks.append(_read_exactly(f, size + 2)[:size])  # each chunk ends in CRLF
    try:
        length = int(headers.get(b"content-length", b""))
    except ValueError:
        length = -1
    return _read_exactly(f, length) if length >= 0 else f.read()


def _head(line: str, fields: dict[str, str]) -> bytes:
    return "".join([line, "\r\n", *(f"{name}: {value}\r\n" for name, value in fields.items()),
                    "\r\n"]).encode("latin-1")


def post(url: str, data: bytes, headers: dict[str, str], timeout: float) -> tuple[int, bytes]:
    """POST data to an http or https url and return the (status, body) of
    its final response. headers go after Accept-Encoding, Content-Length,
    Host and User-Agent, in their order; timeout bounds each connect, send
    and receive. Raises OSError on any failure (see the module docstring)."""
    target = urlsplit(url)
    host, port = target.hostname or "", target.port or _PORTS[target.scheme]
    netloc = target.netloc.rpartition("@")[2]
    selector = (target.path or "/") + (f"?{target.query}" if target.query else "")
    fields = {"Accept-Encoding": "identity", "Content-Length": str(len(data)), "Host": netloc,
              "User-Agent": USER_AGENT, **headers}
    server_name = host if target.scheme == "https" else None  # TLS to the target
    tunnel = None
    proxies = getproxies_environment()
    proxy = proxies.get(target.scheme)
    if proxy is not None and not proxy_bypass_environment(netloc, proxies):
        proxy_scheme, user, password, hostport = _parse_proxy(proxy)
        proxy_fields = {}
        if user and password:
            import base64

            credentials = base64.b64encode(f"{unquote(user)}:{unquote(password)}".encode())
            proxy_fields["Proxy-Authorization"] = "Basic " + credentials.decode()
        if target.scheme == "https":
            authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
            tunnel = _head(f"CONNECT {authority} HTTP/1.1", {"Host": authority, **proxy_fields})
            host, port = _address(unquote(hostport), 443)
        elif proxy_scheme in (None, "http", "https"):
            host, port = _address(unquote(hostport), _PORTS[proxy_scheme or "http"])
            selector = url.partition("#")[0]  # a proxy is sent the absolute URL
            server_name = host if proxy_scheme == "https" else None
            fields.update(proxy_fields)
        else:
            raise OSError(f"unsupported proxy scheme {proxy_scheme!r} in {proxy!r}")
    fields["Connection"] = "close"
    sock = socket.create_connection((host, port), timeout)
    try:
        if tunnel is not None:
            sock.sendall(tunnel)
            with sock.makefile("rb") as f:
                status, reason, _ = _read_head(f)
            if status != 200:
                raise OSError(
                    f"tunnel connection failed: {status} {reason.decode('latin-1')}")
        if server_name is not None:
            sock = _tls(sock, server_name)
        sock.sendall(_head(f"POST {selector} HTTP/1.1", fields) + data)
        with sock.makefile("rb") as f:
            status, _, response_headers = _read_head(f)
            while 100 <= status < 200:  # interim responses: 100 Continue and the like
                status, _, response_headers = _read_head(f)
            return status, _read_body(f, response_headers)
    finally:
        sock.close()
