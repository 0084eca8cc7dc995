"""Minimal asyncio HTTP/1.1 front end for :class:`SimulationService`.

Stdlib only: a hand-rolled request parser over ``asyncio.start_server``
(the repo bakes in no third-party web framework, and the protocol subset
a simulation service needs is tiny).  One connection = one request =
one response (``Connection: close``), which keeps the parser honest and
the drain logic trivial.

Routes:

* ``POST /submit`` — admit a simulation request (JSON body);
* ``GET /status/<request-id>`` — lifecycle state of one request;
* ``GET /result/<request-id>`` — terminal state + deterministic result body;
* ``GET /healthz`` — liveness (200 while the process runs, even draining);
* ``GET /readyz`` — readiness (503 once draining: take me out of rotation);
* ``GET /metrics`` — Prometheus text exposition.

Failure answers are structured JSON: 400 malformed, 404 unknown id/route,
405 wrong method, 413 oversized body, 429 queue full (with
``Retry-After``), 503 draining (with ``Retry-After``).
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from .service import Rejected, SimulationService

__all__ = ["HttpFrontend"]

#: Submission bodies are small JSON documents; anything bigger is abuse.
MAX_BODY_BYTES = 1 << 20

#: Upper bound on the request line + headers (the stream reader's limit).
MAX_HEADER_BYTES = 64 * 1024


class _BadRequest(Exception):
    """Protocol-level parse failure -> 400."""

    status = 400


class _BodyTooLarge(_BadRequest):
    """Declared body over :data:`MAX_BODY_BYTES` -> 413."""

    status = 413


class HttpFrontend:
    """Routes HTTP connections onto one :class:`SimulationService`."""

    def __init__(self, service: SimulationService):
        self.service = service
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str, port: int) -> tuple[str, int]:
        """Bind and serve; returns the bound (host, port) — port 0 works."""
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=MAX_HEADER_BYTES
        )
        sock = self._server.sockets[0]
        bound_host, bound_port = sock.getsockname()[:2]
        return bound_host, bound_port

    async def stop(self) -> None:
        """Close the listening socket and wait for it."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer) -> None:
        route, status = "other", 0
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _BadRequest as exc:
                route, status = "bad", exc.status
                await self._respond(writer, exc.status, {}, {"error": str(exc)})
                return
            except (asyncio.IncompleteReadError, ConnectionError, TimeoutError):
                return  # client went away mid-request; nothing to answer
            route, status, headers, payload = await self._route(method, path, body)
            await self._respond(writer, status, headers, payload)
        except (ConnectionError, BrokenPipeError):  # client gone mid-response
            status = status or 0
        finally:
            if status:
                self.service.m_http.inc(route=route, code=str(status))
            try:
                # Half-close first: a worker forked meanwhile holds a copy of
                # this socket, so close() alone would keep the client from
                # seeing end-of-stream until that worker exits.
                writer.write_eof()
            except OSError:
                pass  # the client is gone; close() below still runs
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader) -> tuple[str, str, Optional[dict]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _BadRequest("headers too large") from None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, _version = parts
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        body: Optional[dict] = None
        length = headers.get("content-length")
        if length is not None:
            # 1*DIGIT (RFC 9110): int() alone would also take "-1", "+5"
            # and "1_0".
            if not (length.isascii() and length.isdigit()):
                raise _BadRequest("malformed Content-Length")
            n = int(length)
            if n > MAX_BODY_BYTES:
                raise _BodyTooLarge(f"body exceeds {MAX_BODY_BYTES} bytes")
            raw = await reader.readexactly(n) if n else b""
            if raw:
                try:
                    body = json.loads(raw)
                except (ValueError, RecursionError):  # nesting too deep
                    raise _BadRequest("body is not valid JSON") from None
        return method, target.split("?", 1)[0], body

    # -- routing -------------------------------------------------------------

    async def _route(self, method: str, path: str, body):
        """Dispatch; returns ``(route_label, status, extra_headers, doc)``.

        ``doc`` is a JSON-able dict, or a ``(content_type, text)`` tuple
        for non-JSON answers (/metrics).
        """
        service = self.service
        if path == "/healthz":
            if method != "GET":
                return "healthz", 405, {}, {"error": "GET only"}
            return "healthz", 200, {}, {"status": "ok"}
        if path == "/readyz":
            if method != "GET":
                return "readyz", 405, {}, {"error": "GET only"}
            if service.accepting:
                return "readyz", 200, {}, {"status": "ready"}
            return (
                "readyz",
                503,
                {"Retry-After": _fmt_retry(service.config.retry_after_s)},
                {"status": "draining"},
            )
        if path == "/metrics":
            if method != "GET":
                return "metrics", 405, {}, {"error": "GET only"}
            text = service.metrics_text()
            return "metrics", 200, {}, (service.registry.CONTENT_TYPE, text)
        if path == "/submit":
            if method != "POST":
                return "submit", 405, {}, {"error": "POST only"}
            try:
                status, doc = await service.submit(body if body is not None else {})
            except Rejected as exc:
                headers = {}
                if exc.retry_after_s is not None:
                    headers["Retry-After"] = _fmt_retry(exc.retry_after_s)
                return "submit", exc.status, headers, {"error": exc.reason}
            return "submit", status, {}, doc
        if path.startswith("/status/"):
            if method != "GET":
                return "status", 405, {}, {"error": "GET only"}
            doc = service.status(path[len("/status/"):])
            if doc is None:
                return "status", 404, {}, {"error": "unknown request id"}
            return "status", 200, {}, doc
        if path.startswith("/result/"):
            if method != "GET":
                return "result", 405, {}, {"error": "GET only"}
            doc = service.result(path[len("/result/"):])
            if doc is None:
                return "result", 404, {}, {"error": "unknown request id"}
            return "result", 200, {}, doc
        return "other", 404, {}, {"error": f"no route for {path}"}

    # -- responses -----------------------------------------------------------

    async def _respond(self, writer, status: int, headers: dict, payload) -> None:
        if isinstance(payload, tuple):
            content_type, text = payload
            body = text.encode()
        else:
            content_type = "application/json"
            body = json.dumps(payload).encode()
        reason = _REASONS.get(status, "")
        head = [f"HTTP/1.1 {status} {reason}".rstrip()]
        head.append(f"Content-Type: {content_type}")
        head.append(f"Content-Length: {len(body)}")
        head.append("Connection: close")
        for name, value in headers.items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _fmt_retry(seconds: float) -> str:
    """Retry-After must be an integer number of seconds (ceil, min 1)."""
    return str(max(1, int(seconds + 0.999)))
