"""Blocking client for the experiment service.

A thin stdlib-socket counterpart to the asyncio broker: connect,
``submit`` a :class:`~repro.service.schema.SweepRequest`, then
``stream`` the per-point results in completion order (or ``collect``
them back into request order).  One client drives one connection;
for concurrent load, run one client per thread -- exactly what
``benchmarks/serve_load.py`` does.

Messages for other in-flight requests arriving while you stream one
request are buffered per request id, so interleaved submissions on a
single connection behave.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .schema import (PointResult, SchemaError, SweepRequest, decode_line,
                     encode_line)


class ServiceError(RuntimeError):
    """The server rejected a message or the connection broke."""


class Client:
    """One blocking connection to a broker.

    Usable as a context manager; connects lazily on first use.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 socket_path: Optional[str] = None,
                 timeout: Optional[float] = 600.0):
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None
        #: request id -> buffered messages not yet consumed
        self._buffered: Dict[int, List[Dict[str, Any]]] = {}

    # -- plumbing --------------------------------------------------------

    def connect(self) -> "Client":
        if self._sock is not None:
            return self
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
        else:
            sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        self._sock = sock
        self._file = sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "Client":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    def _send(self, obj: Dict[str, Any]) -> None:
        self.connect()
        assert self._file is not None
        try:
            self._file.write(encode_line(obj))
            self._file.flush()
        except OSError as exc:
            raise ServiceError(f"send failed: {exc}") from None

    def _recv(self) -> Dict[str, Any]:
        assert self._file is not None, "not connected"
        try:
            line = self._file.readline()
        except socket.timeout:
            raise ServiceError("timed out waiting for the server") \
                from None
        except OSError as exc:
            raise ServiceError(f"receive failed: {exc}") from None
        if not line:
            raise ServiceError("server closed the connection")
        try:
            return decode_line(line)
        except SchemaError as exc:
            raise ServiceError(str(exc)) from None

    def _await_type(self, wanted: Tuple[str, ...],
                    request_id: Optional[int] = None
                    ) -> Dict[str, Any]:
        """Read until a wanted message arrives; buffer the rest.

        Messages carrying a different ``request_id`` are queued for
        their own stream; an ``error`` message raises."""
        if request_id is not None:
            queue = self._buffered.get(request_id)
            while queue:
                msg = queue.pop(0)
                if msg.get("type") in wanted:
                    if not queue:
                        self._buffered.pop(request_id, None)
                    return msg
        while True:
            msg = self._recv()
            mtype = msg.get("type")
            if mtype == "error":
                raise ServiceError(msg.get("error", "unknown error"))
            rid = msg.get("request_id")
            if mtype in wanted and (request_id is None
                                    or rid == request_id):
                return msg
            if rid is not None:
                self._buffered.setdefault(rid, []).append(msg)

    # -- protocol --------------------------------------------------------

    def ping(self) -> Dict[str, Any]:
        self._send({"type": "ping"})
        return self._await_type(("pong",))

    def stats(self) -> Dict[str, Any]:
        """The broker's ``service.*`` / ``tasks.*`` counters, its
        ``parallel`` setting and its job/store/session counts."""
        self._send({"type": "stats"})
        return self._await_type(("stats",))

    def submit(self, request: SweepRequest) -> int:
        """Send one sweep; returns the server-assigned request id."""
        self._send({"type": "submit", "request": request.to_wire()})
        msg = self._await_type(("accepted",))
        return int(msg["request_id"])

    def stream(self, request_id: int
               ) -> Iterator[Tuple[int, PointResult]]:
        """Yield ``(point index, result)`` in completion order.

        Ends at the request's ``done`` (or ``cancelled``) message.
        """
        while True:
            msg = self._await_type(("result", "done", "cancelled"),
                                   request_id=request_id)
            mtype = msg.get("type")
            if mtype in ("done", "cancelled"):
                return
            yield (int(msg["index"]),
                   PointResult.from_wire(msg["result"]))

    def collect(self, request: SweepRequest) -> List[PointResult]:
        """Submit and gather a whole sweep, back in request order."""
        rid = self.submit(request)
        slots: Dict[int, PointResult] = {}
        for index, result in self.stream(rid):
            slots[index] = result
        missing = [i for i in range(len(request.points))
                   if i not in slots]
        if missing:
            raise ServiceError(
                f"request {rid} finished without results for point "
                f"indexes {missing}")
        return [slots[i] for i in range(len(request.points))]

    def cancel(self, request_id: int) -> None:
        """Ask the server to stop streaming a request.

        The acknowledgement arrives in-stream; a concurrent
        :meth:`stream` of the same id consumes it as its terminator,
        otherwise the next read for this id does.
        """
        self._send({"type": "cancel", "request_id": request_id})

    def shutdown(self) -> None:
        """Stop the server (it acknowledges, then closes)."""
        self._send({"type": "shutdown"})
        self._await_type(("bye",))
