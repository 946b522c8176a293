"""An asyncio client for the query service.

The client speaks the same minimal HTTP/1.1 subset the server does,
over one keep-alive connection per instance. Load generation lives in
``perfbench/``, which drives the service from its own closed-loop
client.
"""

from __future__ import annotations

import asyncio
import json

from ..errors import ReproError
from .http import HttpProtocolError


class ServiceClient:
    """One keep-alive connection to a running query service."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "ServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def request(
        self, method: str, path: str, payload=None
    ) -> tuple[int, object]:
        """One round trip; returns (status, decoded JSON or raw text)."""
        if self._reader is None or self._writer is None:
            await self.connect()
        body = b""
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n"
            "Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        parts = status_line.decode("latin-1").split(maxsplit=2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise HttpProtocolError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        content_type = headers.get("content-type", "")
        if content_type.startswith("application/json"):
            return status, json.loads(raw) if raw else None
        return status, raw.decode("utf-8", "replace")

    # -- convenience wrappers -------------------------------------------

    async def register(self, name: str, relations: list[dict]) -> dict:
        status, payload = await self.request(
            "POST", "/databases", {"name": name, "relations": relations}
        )
        if status != 200:
            raise ReproError(f"registration failed ({status}): {payload}")
        return payload

    async def query(
        self,
        database: str,
        atoms: list[dict],
        free=None,
        mode: str = "enumerate",
        semiring: str | None = None,
    ) -> tuple[int, dict]:
        payload = {"database": database, "atoms": atoms, "mode": mode}
        if free is not None:
            payload["free"] = list(free)
        if semiring is not None:
            payload["semiring"] = semiring
        return await self.request("POST", "/query", payload)

    async def solve(
        self,
        domain: list,
        constraints: list[dict],
        method: str = "auto",
        variables: list | None = None,
    ) -> tuple[int, dict]:
        """POST one CSP instance to ``/solve``.

        ``constraints`` entries are ``{"scope": [...], "allowed":
        [[...], ...]}`` objects, the wire form of ⟨scope, relation⟩.
        """
        payload: dict = {
            "domain": domain,
            "constraints": constraints,
            "method": method,
        }
        if variables is not None:
            payload["variables"] = list(variables)
        return await self.request("POST", "/solve", payload)

    async def get_json(self, path: str):
        status, payload = await self.request("GET", path)
        if status != 200:
            raise ReproError(f"GET {path} failed ({status}): {payload}")
        return payload
