"""Wire protocol of the plan-serving daemon: length-prefixed JSON.

Every message — in both directions — is one *frame*: a 4-byte
big-endian unsigned length followed by that many bytes of UTF-8 JSON.
Length-prefixing (rather than newline-delimiting) lets query text and
portable term payloads contain anything JSON can spell, keeps the
reader allocation-bounded (:data:`MAX_FRAME`), and makes partial reads
detectable: a connection that dies mid-frame surfaces as a truncated
read, never as a half-parsed request.

Requests are JSON objects::

    {"id": 7, "op": "optimize", "oql":  "select p.age from p in P ..."}
    {"id": 8, "op": "optimize", "kola": "iterate(Kp(T), age) ! P"}
    {"id": 9, "op": "optimize", "term": <portable term payload>}
    {"id": 10, "op": "stats"}
    {"id": 11, "op": "ping"}

``id`` is an opaque client token echoed on the response; responses on
one connection may arrive **out of order** (completion order), so
clients must correlate by id.  ``term`` carries the PR 4 portable wire
form (:meth:`repro.core.terms.Term.to_portable`); its tuples survive
the JSON round-trip as lists, which :func:`~repro.core.terms
.from_portable` accepts directly.  An optional ``"search"`` field must
match the daemon's search mode (workers are built for one mode; a
mismatch is an error, not a silent re-plan).

Responses::

    {"id": 7, "ok": true,  "worker": 3, "result": <encoded result>}
    {"id": 10, "ok": true, "stats": <snapshot>}
    {"id": 11, "ok": true, "pong": true}
    {"id": 9, "ok": false, "error": "..."}
    {"id": 9, "ok": false, "shed": true, "error": "overloaded",
     "retry_after": 0.05}

``result`` is the batch layer's result encoding
(:func:`repro.parallel.portable.encode_result`), so a client decodes
with the same :func:`~repro.parallel.portable.decode_result` the batch
parent uses.  It carries one node table, ``table``, with every
distinct node of the result's terms once; ``initial``,
``simplified``, the plan's terms and each step's before and after are
indices into it, while ``untangled`` and ``chosen`` are standalone
portable payloads and each step is ``[rule name, before, after,
path]`` — the best form and the rule sequence read without decoding.  A ``shed`` response is the admission-control path: the
request was *not* queued, and the client should retry after
``retry_after`` seconds.
"""

from __future__ import annotations

import json
import struct

from repro.core.errors import KolaError

#: Frame length header: 4-byte big-endian unsigned.
HEADER = struct.Struct(">I")

#: Upper bound on one frame's body, both directions.  Generous for
#: query terms and encoded plans; small enough that a corrupt length
#: prefix cannot make the reader allocate gigabytes.
MAX_FRAME = 8 * 1024 * 1024


class FrameError(KolaError):
    """A frame violated the protocol (bad length, bad JSON, truncation).

    Connection-fatal: after a framing error the byte stream cannot be
    resynchronized, so the peer closes the connection."""


class ServeError(KolaError):
    """A request-level failure reported by the daemon."""


class ShedError(ServeError):
    """The daemon load-shed the request (admission control).

    Carries ``retry_after`` — the daemon's suggested backoff in
    seconds."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def encode_frame(message: dict) -> bytes:
    """One wire frame for ``message`` (header + UTF-8 JSON body)."""
    body = json.dumps(message, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame body of {len(body)} bytes exceeds the "
                         f"{MAX_FRAME}-byte limit")
    return HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """Parse one frame body; raises :class:`FrameError` on bad JSON."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"frame body is not valid JSON: {error}") from None
    return message


def frame_length(header: bytes) -> int:
    """Decode and validate a frame header."""
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"frame length {length} exceeds the "
                         f"{MAX_FRAME}-byte limit")
    return length


async def read_frame(reader) -> dict | None:
    """Read one frame from an asyncio stream reader.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`FrameError` for an over-long frame, bad JSON, or an EOF
    mid-frame (truncation)."""
    import asyncio

    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise FrameError("connection closed mid-header") from None
    length = frame_length(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise FrameError("connection closed mid-frame") from None
    return decode_body(body)


def read_frame_sock(sock) -> dict | None:
    """Blocking :func:`read_frame` over a plain socket (sync client)."""
    header = _recv_exactly(sock, HEADER.size)
    if header is None:
        return None
    length = frame_length(header)
    body = _recv_exactly(sock, length)
    if body is None:
        raise FrameError("connection closed mid-frame")
    return decode_body(body)


def _recv_exactly(sock, count: int) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None if remaining == count else _truncated()
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _truncated():
    raise FrameError("connection closed mid-frame")


# -- request bodies ------------------------------------------------------


def query_body(query: object) -> dict:
    """The request fields for a caller-side query object.

    Mirrors the batch layer's input convention
    (:func:`repro.parallel.batch._initial_term`): strings are OQL,
    terms ship in portable form.  KOLA *text* is sent explicitly via
    ``{"kola": ...}`` (the CLI's ``--kola`` flag)."""
    from repro.aqua.terms import AquaExpr
    from repro.core.terms import Term
    from repro.translate.aqua_to_kola import translate_query

    if isinstance(query, str):
        return {"oql": query}
    if isinstance(query, Term):
        return {"term": query.to_portable()}
    if isinstance(query, AquaExpr):
        return {"term": translate_query(query).to_portable()}
    raise TypeError(f"cannot serve {query!r}")


def resolve_query(body: dict):
    """Server-side: the canonical initial :class:`Term` for a request.

    Accepts exactly one of ``term`` / ``oql`` / ``kola``; raises
    :class:`ServeError` (with a client-presentable message) otherwise.
    """
    from repro.core.parser import parse_obj
    from repro.core.terms import from_portable
    from repro.rewrite.pattern import canon
    from repro.translate.aqua_to_kola import translate_query
    from repro.translate.oql import parse_oql

    present = [key for key in ("term", "oql", "kola") if key in body]
    if len(present) != 1:
        raise ServeError("optimize request needs exactly one of "
                         "'term', 'oql' or 'kola'")
    try:
        if present[0] == "term":
            return canon(from_portable(body["term"]))
        if present[0] == "oql":
            return canon(translate_query(parse_oql(body["oql"])))
        return canon(parse_obj(body["kola"]))
    except KolaError as error:
        raise ServeError(f"bad query: {error}") from error
