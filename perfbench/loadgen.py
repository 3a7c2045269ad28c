"""Open-loop HTTP/1.1 load generator for the /v1 serving workload.

One process drives a fixed schedule of requests over a few keep-alive
connections, pipelining requests so it can keep the schedule while earlier
responses are still outstanding.  Each request is timed from the moment it
was *due*, so a stall in the server delays every request queued behind it
and shows in the latency (no coordinated omission); how late the generator
itself sent each request is recorded beside it.

The generator acknowledges every response at once (``TCP_QUICKACK``).  The
server does not set ``TCP_NODELAY`` on its connections, so with delayed
acknowledgements a response written while the previous one is unacknowledged
waits for the client's next request: on a 2-core host that added one
inter-arrival time (3.3 ms at 300 req/s) to the median, an artifact of
driving many users' traffic over one connection.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from typing import Dict, List, Sequence

import numpy as np

#: Most requests one connection may have outstanding.  Kept under the
#: server's per-worker in-flight bound, so the server never sheds because
#: of the generator's pipelining.
MAX_PIPELINE = 16


class _Connection:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.pending = deque()  # request indices awaiting a response, in order
        self.outbox = bytearray()
        self.inbox = bytearray()


def _parse_responses(conn: _Connection, now: float, received: np.ndarray,
                     status: np.ndarray, bodies: Dict[int, bytes],
                     sampled: np.ndarray) -> int:
    """Consume every complete response in ``conn.inbox``; returns how many."""
    done = 0
    buffer = conn.inbox
    while True:
        head_end = buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return done
        head = bytes(buffer[:head_end]).decode("latin-1")
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        end = head_end + 4 + length
        if len(buffer) < end:
            return done
        index = conn.pending.popleft()
        received[index] = now
        status[index] = int(head.split(" ", 2)[1])
        if sampled[index]:
            bodies[index] = bytes(buffer[head_end + 4:end])
        del buffer[:end]
        done += 1


def drive(host: str, port: int, requests: Sequence[bytes], due: np.ndarray,
          sampled: np.ndarray, n_connections: int, timeout: float) -> Dict[str, object]:
    """Send ``requests[i]`` at ``start + due[i]``; collect the responses.

    Returns arrays of due/sent/received times (seconds since the start),
    HTTP status per request (0 = no response before ``timeout``), and the
    bodies of the ``sampled`` requests.
    """
    n = len(requests)
    sent = np.full(n, np.nan)
    received = np.full(n, np.nan)
    status = np.zeros(n, dtype=np.int32)
    bodies: Dict[int, bytes] = {}
    conns: List[_Connection] = [_Connection(host, port) for _ in range(n_connections)]
    # select(2) takes microsecond timeouts (epoll rounds up to milliseconds).
    selector = selectors.SelectSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    start = time.perf_counter() + 0.02
    give_up = start + (due[-1] if n else 0.0) + timeout
    next_index = done = 0
    try:
        while done < n:
            now = time.perf_counter()
            if now > give_up:
                break
            while next_index < n and start + due[next_index] <= now:
                conn = min(conns, key=lambda c: len(c.pending))
                if len(conn.pending) >= MAX_PIPELINE:
                    break
                conn.pending.append(next_index)
                conn.outbox += requests[next_index]
                sent[next_index] = now - start
                next_index += 1
            for conn in conns:
                if conn.outbox:
                    try:
                        written = conn.sock.send(conn.outbox)
                    except BlockingIOError:
                        written = 0
                    del conn.outbox[:written]
            if next_index < n:
                wait = max(0.0, start + due[next_index] - time.perf_counter())
            else:
                wait = 0.05
            for key, _events in selector.select(min(wait, 0.05)):
                conn = key.data
                try:
                    chunk = conn.sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise ConnectionError("server closed a keep-alive connection")
                conn.inbox += chunk
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
                done += _parse_responses(conn, time.perf_counter() - start, received,
                                         status, bodies, sampled)
    finally:
        for conn in conns:
            selector.unregister(conn.sock)
            conn.sock.close()
        selector.close()
    return {"due": np.asarray(due, dtype=float), "sent": sent, "received": received,
            "status": status, "bodies": bodies}
