"""Clients for the plan-serving daemon.

:class:`ServeClient` is a small blocking client (one request
outstanding at a time) for the CLI and scripts; :class:`AsyncServeClient`
is an asyncio client that pipelines many requests over one connection
and correlates the daemon's out-of-order responses by id — the shape
load generators and the serving benchmark need.

Both decode optimize responses with the batch layer's
:func:`~repro.parallel.portable.decode_result`, so a served plan
rehydrates into the same :class:`~repro.optimizer.optimizer
.OptimizedQuery` a local optimizer would have produced (rules resolve
by name against the client's rulebase).
"""

from __future__ import annotations

import itertools
import socket
import time
from dataclasses import dataclass

from repro.optimizer.optimizer import OptimizedQuery
from repro.parallel.portable import decode_result
from repro.rules.registry import standard_rulebase
from repro.serve.protocol import (ServeError, ShedError, encode_frame,
                                  query_body, read_frame_sock)

#: Default connect/request timeout, seconds.
DEFAULT_TIMEOUT = 60.0


@dataclass
class ServeResult:
    """One decoded optimize response."""

    result: OptimizedQuery | None   # None when decode=False
    worker: int                     # worker id that served the plan
    elapsed_ms: float               # server-side queue+optimize time
    raw: dict                       # the full response message


def _raise_for(response: dict) -> None:
    if response.get("ok"):
        return
    if response.get("shed"):
        raise ShedError(response.get("error", "overloaded"),
                        float(response.get("retry_after", 0.05)))
    raise ServeError(response.get("error", "request failed"))


class ServeClient:
    """A blocking client: connect, one request at a time.

    Address is either TCP (``host``/``port``) or a unix socket path.
    Usable as a context manager; :meth:`optimize` optionally retries
    shed responses after the daemon's suggested backoff.
    """

    def __init__(self, host: str | None = None, port: int | None = None,
                 unix_path: str | None = None,
                 timeout: float = DEFAULT_TIMEOUT) -> None:
        if (host is None) == (unix_path is None):
            raise ValueError("ServeClient needs host/port or unix_path")
        self.host, self.port, self.unix_path = host, port, unix_path
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._ids = itertools.count(1)
        self._rulebase = None

    def __enter__(self) -> "ServeClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def connect(self) -> None:
        if self._sock is not None:
            return
        if self.unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.timeout)
                sock.connect(self.unix_path)
            except OSError:
                sock.close()
                raise
        else:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
        self._sock = sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def request(self, message: dict) -> dict:
        """Send one request and block for its response."""
        self.connect()
        message = dict(message)
        message.setdefault("id", next(self._ids))
        self._sock.sendall(encode_frame(message))
        response = read_frame_sock(self._sock)
        if response is None:
            raise ServeError("daemon closed the connection")
        return response

    def ping(self) -> float:
        """Round-trip one ping; returns seconds."""
        started = time.perf_counter()
        response = self.request({"op": "ping"})
        _raise_for(response)
        return time.perf_counter() - started

    def stats(self) -> dict:
        response = self.request({"op": "stats"})
        _raise_for(response)
        return response["stats"]

    def optimize(self, query: object, *, kola: bool = False,
                 search: str | None = None, decode: bool = True,
                 shed_retries: int = 0) -> ServeResult:
        """Serve one query (OQL string, KOLA text with ``kola=True``,
        or a :class:`~repro.core.terms.Term`).

        ``shed_retries`` > 0 sleeps the daemon's ``retry_after`` and
        retries after a load-shed response.
        """
        body = ({"kola": query} if kola and isinstance(query, str)
                else query_body(query))
        if search is not None:
            body["search"] = search
        body["op"] = "optimize"
        attempts = max(1, 1 + shed_retries)
        for attempt in range(attempts):
            response = self.request(dict(body))
            if response.get("shed") and attempt + 1 < attempts:
                time.sleep(float(response.get("retry_after", 0.05)))
                continue
            break
        _raise_for(response)
        return self._decoded(response, query if decode else None,
                             decode)

    def _decoded(self, response: dict, source, decode: bool) -> ServeResult:
        result = None
        if decode:
            if self._rulebase is None:
                self._rulebase = standard_rulebase()
            result = decode_result(response["result"], self._rulebase,
                                   source=source)
        return ServeResult(result=result,
                           worker=response.get("worker", -1),
                           elapsed_ms=response.get("elapsed_ms", 0.0),
                           raw=response)


class AsyncServeClient:
    """An asyncio client that pipelines requests over one connection.

    Any number of :meth:`request`/:meth:`optimize` calls may be in
    flight concurrently; a reader task matches the daemon's
    out-of-order responses back to their futures by id.
    """

    def __init__(self, host: str | None = None, port: int | None = None,
                 unix_path: str | None = None) -> None:
        if (host is None) == (unix_path is None):
            raise ValueError("AsyncServeClient needs host/port or "
                             "unix_path")
        self.host, self.port, self.unix_path = host, port, unix_path
        self._ids = itertools.count(1)
        self._reader = None
        self._writer = None
        self._reader_task = None
        self._pending: dict[object, object] = {}   # id -> Future
        self._send_lock = None
        self._rulebase = None

    async def __aenter__(self) -> "AsyncServeClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def connect(self) -> None:
        import asyncio

        if self._writer is not None:
            return
        if self.unix_path is not None:
            self._reader, self._writer = \
                await asyncio.open_unix_connection(self.unix_path)
        else:
            self._reader, self._writer = \
                await asyncio.open_connection(self.host, self.port)
        self._send_lock = asyncio.Lock()
        self._reader_task = asyncio.create_task(self._read_loop())

    async def close(self) -> None:
        if self._writer is None:
            return
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except BaseException:
                pass
        self._fail_pending(ServeError("client closed"))
        self._reader = self._writer = self._reader_task = None

    def _fail_pending(self, error: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _read_loop(self) -> None:
        import asyncio

        from repro.serve.protocol import FrameError, read_frame

        # Whatever stops the loop fails every pending request: an
        # exception no handler names propagates with this message.
        error = ServeError("client read loop failed")
        try:
            while True:
                response = await read_frame(self._reader)
                if response is None:
                    error = ServeError("daemon closed the connection")
                    return
                if not isinstance(response, dict):
                    error = ServeError(
                        f"protocol error: response frame must be a JSON "
                        f"object, got {type(response).__name__}")
                    return
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except FrameError as frame_error:
            error = ServeError(f"protocol error: {frame_error}")
        except (ConnectionError, OSError):
            error = ServeError("daemon closed the connection")
        except asyncio.CancelledError:
            error = ServeError("client closed")
            raise
        finally:
            self._fail_pending(error)

    async def request(self, message: dict) -> dict:
        import asyncio

        await self.connect()
        if self._reader_task.done():
            # Nothing would ever resolve this request's future.
            raise ServeError("connection is unusable: its read loop "
                             "has stopped")
        message = dict(message)
        request_id = message.setdefault("id", next(self._ids))
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        async with self._send_lock:
            self._writer.write(encode_frame(message))
            await self._writer.drain()
        return await future

    async def ping(self) -> float:
        started = time.perf_counter()
        _raise_for(await self.request({"op": "ping"}))
        return time.perf_counter() - started

    async def stats(self) -> dict:
        response = await self.request({"op": "stats"})
        _raise_for(response)
        return response["stats"]

    async def optimize(self, query: object, *, kola: bool = False,
                       search: str | None = None, decode: bool = True,
                       shed_retries: int = 0) -> ServeResult:
        """Serve one query, as :meth:`ServeClient.optimize` does.

        ``shed_retries`` > 0 awaits the daemon's ``retry_after`` and
        retries after a load-shed response.
        """
        import asyncio

        body = ({"kola": query} if kola and isinstance(query, str)
                else query_body(query))
        if search is not None:
            body["search"] = search
        body["op"] = "optimize"
        attempts = max(1, 1 + shed_retries)
        for attempt in range(attempts):
            response = await self.request(dict(body))
            if response.get("shed") and attempt + 1 < attempts:
                await asyncio.sleep(float(response.get("retry_after",
                                                       0.05)))
                continue
            break
        _raise_for(response)
        result = None
        if decode:
            if self._rulebase is None:
                self._rulebase = standard_rulebase()
            result = decode_result(response["result"], self._rulebase,
                                   source=query)
        return ServeResult(result=result,
                           worker=response.get("worker", -1),
                           elapsed_ms=response.get("elapsed_ms", 0.0),
                           raw=response)
