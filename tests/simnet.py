"""A simulated network for scans on virtual clocks, through the real wire
and scanner.

The `simulate` fixture of conftest.py replaces only
`socket.create_connection` and `wire.time`: every connection the scan opens
is a `SimConnection`, and the real `wire.connect`, `FtpSession` and
`scanner._SessionPool` run on it.  Each connection keeps its own virtual
clock, and `wire`'s `time.monotonic()` reads the clock of the calling
thread's last-used connection, so a scan waits on no timer: a receive
timeout moves the clock to its deadline at once.  The peer of a connection
is a `LabSession` (`lab_peer`) or a raw byte schedule (`raw_peer`); it
reads one request line at a time, once its writes for the previous one are
out, as the lab server does.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import Counter

from fingerfuzz.labserver import LabSession, ServerScript
from fingerfuzz.wire import ANONYMOUS_PASSWORD, ANONYMOUS_USER

EOF = b""    # a write that ends the connection
RESET = None  # a write that resets it

# Virtual clocks start at 1 s, above every timeout here: then a deadline
# minus the clock is exact, and a reply due at the deadline is a timeout.
EPOCH = 1.0

LOGIN_LINES = {f"USER {ANONYMOUS_USER}".encode(), f"PASS {ANONYMOUS_PASSWORD}".encode()}


class SimNet:
    """The simulated network of one scan.  `open_peer()` gives a new
    connection's greeting writes and its answer function, which maps a
    request line to writes: (seconds after the peer reads the line, bytes,
    EOF or RESET).  Like a server that caps connections per address, it
    greets a connection beyond `limit` open ones with 421 and ends it, and
    it refuses the next `refusals` connects outright.  `on_send(line)` runs
    on each request sent and may raise OSError, a local failure.  `split`
    delivers every write one byte at a time.  `requests` holds the request
    lines the peers read, the login lines left out."""

    def __init__(self, open_peer, split=False, limit=None, on_send=None):
        self.open_peer = open_peer
        self.split = split
        self.limit = limit
        self.on_send = on_send
        self.refusals = 0
        self.connections = 0
        self.requests: list[bytes] = []
        self._open = 0
        self._lock = threading.Lock()
        self._used = threading.local()

    def monotonic(self) -> float:
        return self._used.conn.now

    def create_connection(self, address, timeout=None):
        with self._lock:  # a peer swapped under the lock serves every later connect
            self.connections += 1
            if self.refusals:
                self.refusals -= 1
                raise ConnectionRefusedError("connection refused (simulated)")
            capped = self.limit is not None and self._open >= self.limit
            self._open += not capped
            peer = None if capped else self.open_peer()
        conn = SimConnection(self, counted=not capped)
        self._used.conn = conn
        if capped:
            conn.write([(0.0, b"421 too many connections\r\n"), (0.0, EOF)], EPOCH)
        else:
            greeting, conn.answer = peer
            conn.write(greeting, EPOCH)
        return conn

    def closed(self, conn: "SimConnection") -> None:
        with self._lock:
            self._open -= conn.counted

    def sent_once(self, collection) -> bool:
        return Counter(self.requests) == Counter(r.bytes for r in collection.records)


class SimConnection:
    """The client end of one simulated connection: the socket calls `wire`
    makes, on this connection's virtual clock."""

    def __init__(self, net: SimNet, counted: bool):
        self.net = net
        self.counted = counted
        self.now = EPOCH
        self.answer = None
        self._arrivals: list[tuple[float, bytes | None]] = []  # by time, stable
        self._free = EPOCH  # when the peer reads its next line
        self._ended = False  # the peer wrote EOF or RESET
        self._pending = b""
        self._timeout = None
        self._closed = False

    def write(self, writes, start: float) -> None:
        for offset, data in writes:
            at = start + offset
            self._free = max(self._free, at)
            self._ended |= not data
            chunks = [data[i:i + 1] for i in range(len(data))] if data and self.net.split else [data]
            self._arrivals += [(at, chunk) for chunk in chunks]
        self._arrivals.sort(key=lambda arrival: arrival[0])

    def sendall(self, data: bytes) -> None:
        self.net._used.conn = self
        if self._closed:
            raise OSError("send on a closed socket")
        if self.net.on_send is not None:
            self.net.on_send(data.rstrip(b"\r\n"))
        self._pending += data
        while not self._ended and b"\n" in self._pending:
            line, _, self._pending = self._pending.partition(b"\n")
            line = line.rstrip(b"\r")
            if line not in LOGIN_LINES:
                with self.net._lock:
                    self.net.requests.append(line)
            # the peer reads the line once its writes for the last one are out
            self.write(self.answer(line), max(self.now, self._free))

    def settimeout(self, timeout: float) -> None:
        self._timeout = timeout

    def recv(self, size: int) -> bytes:
        self.net._used.conn = self
        if self._closed:
            raise OSError("receive on a closed socket")
        limit = self.now + self._timeout
        if not self._arrivals or self._arrivals[0][0] >= limit:
            self.now = limit
            raise socket.timeout("timed out")
        at, chunk = self._arrivals[0]
        self.now = max(self.now, at)
        if chunk is RESET:
            raise ConnectionResetError("connection reset (simulated)")
        if chunk:  # an end stays, for every later receive
            del self._arrivals[0]
        return chunk

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.net.closed(self)


def lab_peer(script: ServerScript, faults=None):
    """Connections served by the target's own LabSession, as LabServer does.
    `faults` maps a request line to a function of the writes the script
    gives it, which returns what the target writes instead."""
    faults = faults or {}

    def open_peer():
        session = LabSession(script)

        def answer(line):
            action, payload, delay = session.respond(line)
            if action == "DROP":
                writes = [(0.0, EOF)]
            else:
                writes = [] if payload is None else [(delay, payload)]
            return faults[line](writes) if line in faults else writes
        return [(0.0, session.greeting)], answer
    return open_peer


def raw_peer(schedule, greeting=b"220 hi\r\n"):
    """Connections that greet with `greeting` (None: no greeting at all),
    log any USER and PASS in, and write schedule(n, line) for the n-th
    request after the login (from 0)."""
    def open_peer():
        seen = [-2]

        def answer(line):
            n = seen[0]
            seen[0] += 1
            if n < 0:
                return [(0.0, b"331 user ok\r\n" if n == -2 else b"230 logged in\r\n")]
            return schedule(n, line)
        return [] if greeting is None else [(0.0, greeting)], answer
    return open_peer


def counted(n, line):
    """A stateful reply: the n-th request after the login on a connection
    gets code 200 + n, so a code shows where its connection began."""
    return [(0.0, f"{200 + n} reply\r\n".encode())]


def codes(collection, fresh=()) -> list[str]:
    """The codes `counted` gives a scan of `collection` when a connection
    begins at every run and at each index in `fresh`."""
    step = collection.config.block_length
    out = []
    for i in range(len(collection.records)):
        n = 0 if i % step == 0 or i in fresh else n + 1
        out.append(str(200 + n))
    return out


def shrinks(caplog) -> list[int]:
    """The sessions left after each shrink the pool logged."""
    lefts = []
    for record in caplog.records:
        assert record.name == "fingerfuzz.scanner" and record.levelname == "WARNING"
        assert record.getMessage().startswith("127.0.0.1:21 refused a new session")
        lefts.append(int(record.getMessage().split("scanning on with ")[1].split(":")[0]))
    return lefts


def wait_for_connections(net: SimNet, count: int, line: bytes) -> None:
    """Hold a request until `count` connections were made, so that many
    sessions are open at once, as on a network: a capped target then
    refuses all but its limit, and no later connect finds the limit open.
    Overlap by chance leaves the shrink to luck."""
    deadline = time.monotonic() + 5
    while line not in LOGIN_LINES and net.connections < count and time.monotonic() < deadline:
        time.sleep(0.001)
