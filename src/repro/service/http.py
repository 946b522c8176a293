"""A minimal HTTP/1.1 layer over asyncio streams — stdlib only.

Just enough protocol for the query service: request line, headers,
``Content-Length``-delimited bodies, JSON in and out, keep-alive by
default. Deliberately not a general web server — no chunked encoding,
no TLS, no multipart; anything outside the subset is a 400.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

from ..errors import ReproError

#: Refuse bodies larger than this (a registration payload of a few MB
#: is plenty; anything bigger is a client bug or abuse).
MAX_BODY_BYTES = 16 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpProtocolError(ReproError):
    """Malformed or unsupported HTTP from the client (maps to 400)."""


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        """The body as JSON (raises :class:`HttpProtocolError` on junk)."""
        if not self.body:
            raise HttpProtocolError("expected a JSON body")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpProtocolError(f"invalid JSON body: {exc}") from exc
        except RecursionError as exc:
            raise HttpProtocolError("JSON nested too deeply") from exc

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"


def _parse_target(target: str) -> tuple[str, dict[str, str]]:
    path, _, raw_query = target.partition("?")
    query: dict[str, str] = {}
    if raw_query:
        for pair in raw_query.split("&"):
            key, _, value = pair.partition("=")
            if key:
                query[key] = value
    return path, query


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on clean EOF."""
    try:
        request_line = await reader.readline()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpProtocolError(f"malformed request line: {request_line!r}")
    method, target, _version = parts
    path, query = _parse_target(target)
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpProtocolError("header section too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError as exc:
            raise HttpProtocolError(
                f"bad Content-Length {length_text!r}"
            ) from exc
        if length < 0 or length > MAX_BODY_BYTES:
            raise HttpProtocolError(f"unacceptable Content-Length {length}")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise HttpProtocolError("body shorter than Content-Length") from exc
    return HttpRequest(
        method=method.upper(), path=path, query=query, headers=headers, body=body
    )


def response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialize one response, Content-Length framed."""
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_response_bytes(
    status: int,
    payload,
    keep_alive: bool = True,
    indent: int | None = None,
    answers: str | None = None,
) -> bytes:
    """One response whose body is ``payload`` as sorted-key JSON.

    ``answers``, when given, is the JSON text of the payload's
    ``answers`` list, encoded already (the service writes enumerate
    answers straight from interned codes). It is spliced in as the
    first key, which is where ``sort_keys`` puts it: every other key of
    a response with answers sorts after ``"answers"``. Not with
    ``indent``.
    """
    body = json.dumps(payload, sort_keys=True, indent=indent, default=repr)
    if answers is not None:
        rest = body[1:] if body == "{}" else ", " + body[1:]
        body = '{"answers": ' + answers + rest
    return response_bytes(status, body.encode(), keep_alive=keep_alive)
