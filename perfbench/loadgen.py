"""Load generator for the serve-zipf workload.

Usage (started by ``run.py``, never by hand)::

    python3 perfbench/loadgen.py SPEC OUT SOCKET PHASES

Runs in its own process, so the daemon's event loop never shares its
time slices with the generator.  It imports nothing from the program:
requests are length-prefixed JSON frames written here, and replies are
reduced to a plan digest only after the last phase.

The spec's request stream is consumed in order by its first ``PHASES``
phases:

* ``closed`` — one connection, the next request sent when the previous
  reply arrives (the warm-up and the throughput phase).  The timed
  closed phase times host-speed probes in between (``probe_marks``, see
  ``measure.SpeedMarks``);
* ``open`` — requests sent on a fixed schedule (request ``i`` due at
  ``start + i/rate``) over two connections, alternating, without
  waiting for replies.  Each request is timed from when it was *due*,
  so a stall also charges the requests queued behind it.  A phase
  drains completely before the next one starts.

A final ``stats`` request records the daemon's own counters.
"""

from __future__ import annotations

import json
import selectors
import socket
import struct
import sys
import time
from pathlib import Path

from digest import plan_digest
from measure import SpeedMarks

HEADER = struct.Struct(">I")

#: Delay between scheduling an open-loop phase and its first due time.
LEAD_S = 0.05


class Connection:
    """One unix-socket connection with a reassembly buffer."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buffer = bytearray()

    def send(self, message: dict) -> None:
        body = json.dumps(message, separators=(",", ":")).encode("utf-8")
        self.sock.sendall(HEADER.pack(len(body)) + body)

    def receive(self) -> list[dict]:
        """Read what is available; return every complete frame."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buffer += chunk
        messages = []
        while len(self.buffer) >= HEADER.size:
            (length,) = HEADER.unpack_from(self.buffer)
            if len(self.buffer) < HEADER.size + length:
                break
            body = bytes(self.buffer[HEADER.size:HEADER.size + length])
            del self.buffer[:HEADER.size + length]
            messages.append(json.loads(body))
        return messages

    def call(self, message: dict) -> dict:
        """Send one request and block for its reply."""
        self.send(message)
        while True:
            replies = self.receive()
            if replies:
                return replies[0]

    def close(self) -> None:
        self.sock.close()


def optimize(request_id: int, text: str) -> dict:
    return {"id": request_id, "op": "optimize", "kola": text}


def run_closed(conn: Connection, texts: list[str], first_id: int,
               probes: SpeedMarks | None = None) -> list:
    clock = time.monotonic
    records = []
    for offset, text in enumerate(texts):
        if probes is not None:
            probes.before(offset)
        sent = clock()
        reply = conn.call(optimize(first_id + offset, text))
        records.append({"due": sent, "sent": sent, "received": clock(),
                        "reply": reply})
    if probes is not None:
        probes.after(len(texts))
    return records


def run_open(connections: list[Connection], texts: list[str], rate: float,
             first_id: int) -> list:
    selector = selectors.DefaultSelector()
    for conn in connections:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    clock = time.monotonic
    start = clock() + LEAD_S
    records = [{"due": start + index / rate} for index in range(len(texts))]
    outstanding: dict[int, int] = {}
    sent = 0
    while sent < len(texts) or outstanding:
        now = clock()
        if sent < len(texts) and now >= records[sent]["due"]:
            connections[sent % len(connections)].send(
                optimize(first_id + sent, texts[sent]))
            records[sent]["sent"] = clock()
            outstanding[first_id + sent] = sent
            sent += 1
            continue
        timeout = records[sent]["due"] - now if sent < len(texts) else None
        for key, _ in selector.select(timeout):
            for reply in key.data.receive():
                record = records[outstanding.pop(reply["id"])]
                record["received"] = clock()
                record["reply"] = reply
    selector.close()
    return records


def summarize_reply(record: dict) -> dict:
    reply = record.pop("reply")
    if reply.get("ok"):
        record["status"] = "ok"
        record["elapsed_ms"] = reply["elapsed_ms"]
        record["plan"] = plan_digest(reply["result"])
    else:
        record["status"] = "shed" if reply.get("shed") else "error"
        record["error"] = reply.get("error")
    return record


def main(argv: list[str]) -> int:
    spec_path, out_path, socket_path, phase_count = argv
    spec = json.loads(Path(spec_path).read_text())
    connections = [Connection(socket_path), Connection(socket_path)]
    warmup = run_closed(connections[0],
                        [req["text"] for req in spec["warmup"]], 1 << 30)
    texts = [req["text"] for req in spec["requests"]]
    phases = []
    position = 0
    for phase in spec["phases"][:int(phase_count)]:
        batch = texts[position:position + phase["count"]]
        probes = SpeedMarks()
        if phase["rate"] is None:
            records = run_closed(connections[0], batch, position, probes)
        else:
            records = run_open(connections, batch, phase["rate"], position)
        phases.append({**phase, "records": records,
                       "probe_marks": probes.marks})
        position += phase["count"]
    stats = connections[0].call({"id": 0, "op": "stats"})
    for conn in connections:
        conn.close()
    for phase in phases:
        phase["records"] = [summarize_reply(rec) for rec in phase["records"]]
    warm_errors = [rec["reply"].get("error") for rec in warmup
                   if not rec["reply"].get("ok")]
    Path(out_path).write_text(json.dumps({
        "phases": phases, "warmup_errors": warm_errors,
        "server": stats.get("stats", {}).get("server", {})}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
