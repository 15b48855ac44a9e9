"""Transports for the JSON-RPC dispatcher.

Two implementations of the same tiny contract — ``request(obj, now_us)
-> response dict``:

* :class:`SimTransport` — the deterministic in-process transport every
  test, chaos scenario and CI job uses.  It round-trips each request
  through JSON text (so serialization bugs cannot hide) and charges a
  fixed simulated cost per request; no sockets, no threads, no wall
  clock.
* :func:`serve_http` — an optional real asyncio HTTP server, built on the
  standard library only.  One POST = one JSON-RPC request.  It is how
  ``repro serve`` reaches the node from outside the process; nothing else
  in the library depends on it.
"""

from __future__ import annotations

import asyncio
import json

from .dispatcher import RpcDispatcher


class SimTransport:
    """Deterministic in-process transport with a simulated per-call cost."""

    def __init__(self, dispatcher: RpcDispatcher, request_us: float = 50.0) -> None:
        self.dispatcher = dispatcher
        self.request_us = request_us
        self.requests = 0

    def request(self, payload, now_us: float = 0.0) -> dict:
        """Serve one request object, via the full text round trip."""
        self.requests += 1
        raw = json.dumps(payload, sort_keys=True)
        return json.loads(self.dispatcher.handle(raw, now_us))


async def _serve_connection(dispatcher: RpcDispatcher, reader, writer) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                return
            # Minimal HTTP/1.1: swallow headers, honour Content-Length.
            content_length = 0
            while line not in (b"\r\n", b"\n", b""):
                if line.lower().startswith(b"content-length:"):
                    content_length = int(line.split(b":", 1)[1])
                line = await reader.readline()
            body = await reader.readexactly(content_length) if content_length else b""
            response = dispatcher.handle(body.decode("utf-8", "replace"))
            payload = response.encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(payload)).encode() + b"\r\n"
                b"\r\n" + payload
            )
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def serve_http(
    dispatcher: RpcDispatcher, host: str = "127.0.0.1", port: int = 8545
):
    """Start an asyncio HTTP server around ``dispatcher``; returns it.

    The caller owns the server's lifetime (``server.close()`` /
    ``await server.wait_closed()``).  Demo quality by design: no TLS, no
    keep-alive edge cases, no batching — the simulated transport is the
    contractual surface.
    """
    return await asyncio.start_server(
        lambda r, w: _serve_connection(dispatcher, r, w), host, port
    )
