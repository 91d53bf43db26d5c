"""Scans simulated on virtual clocks, through the real wire and scanner.

Only `socket.create_connection` and `wire.time` are replaced: every
connection the scan opens is a `SimConnection`, and the real `wire.connect`,
`FtpSession` and `scanner._SessionPool` run on it.  Each connection keeps
its own virtual clock, and `wire`'s `time.monotonic()` reads the clock of
the calling thread's last-used connection, so a scan waits on no timer: a
receive timeout moves the clock to its deadline at once.  The peer of a
connection is a `LabSession` or a raw byte schedule; it reads one request
line at a time, once its writes for the previous one are out, as the lab
server does.

The alignment contract, fault by fault: is position i guaranteed to hold
the reply to request i?

- A reply split at any byte, or late by less than the reply timeout: yes.
- A reply at or after the reply timeout, or none: TMO, the session closes
  and the rest of the run goes out on a fresh login, so yes.
- A reply cut off by the reply timeout: GBL, then a fresh login, so yes.
- A reset or end of the connection before the reply: DRP, then a fresh
  login, so yes.  During the drain: the reply is kept, then a fresh login.
- A stray line inside the drain window: discarded, so yes.
- A stray line after the window: no.  It is read as the next reply if that
  has not come first, as when the next request gets no reply (SILENCE).
  This is the known gap; its wrong positions are counted, not asserted.
- A 1xx reply whose final reply comes after the drain window: no, the
  final reply answers the next request (a known defect, kept as a strict
  xfail until the 1xx read-on of ROADMAP.md lands).
- A refused connect or login, or a local send or receive error: no
  observation is made.  The request goes out once more on a fresh login;
  a refusal while other sessions still work retires its session instead.
  The RECONNECT_ATTEMPTS-th failure at one index ends the scan with
  PartialScanError, so no fingerprint is ever misaligned.
"""

from __future__ import annotations

import logging
import os
import random
import socket
import threading
import time
import types
from collections import Counter

import pytest

from fingerfuzz import wire
from fingerfuzz.errors import PartialScanError
from fingerfuzz.fuzzgen import DEFAULT_COMMANDS, FuzzConfig, build_collection
from fingerfuzz.labserver import LabSession, Rule, ServerScript
from fingerfuzz.scanner import RECONNECT_ATTEMPTS, fingerprint_target
from fingerfuzz.wire import ANONYMOUS_PASSWORD, ANONYMOUS_USER, DRP, GBL, TMO

from conftest import FAST_DRAIN_WINDOW, FAST_REPLY_TIMEOUT, fast_target, lab_oracle
from test_labserver import CONFORMANCE_CONFIG, random_script

# CI sweeps more seeds through this variable
SIM_SEEDS = int(os.environ.get("SIM_CONFORMANCE_SEEDS", "40"))

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
        with self._lock:
            self.connections += 1
            if self.refusals:
                self.refusals -= 1
                raise ConnectionRefusedError("connection refused (simulated)")
            capped = self.limit is not None and self._open >= self.limit
            self._open += not capped
        conn = SimConnection(self, counted=not capped)
        self._used.conn = conn
        if capped:
            conn.write([(0.0, b"421 too many connections\r\n"), (0.0, EOF)], EPOCH)
        else:
            greeting, conn.answer = self.open_peer()
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


def lab_peer(script: ServerScript):
    """Connections served by the target's own LabSession, as LabServer does."""
    def open_peer():
        session = LabSession(script)

        def answer(line):
            action, payload, delay = session.respond(line)
            if action == "DROP":
                return [(0.0, EOF)]
            return [] if payload is None else [(delay, payload)]
        return [(0.0, session.greeting)], answer
    return open_peer


def raw_peer(schedule):
    """Connections that greet with 220, log any USER and PASS in, and write
    schedule(n, line) for the n-th request after the login (from 0)."""
    def open_peer():
        seen = [-2]

        def answer(line):
            n = seen[0]
            seen[0] += 1
            if n < 0:
                return [(0.0, b"331 user ok\r\n" if n == -2 else b"230 logged in\r\n")]
            return schedule(n, line)
        return [(0.0, b"220 hi\r\n")], answer
    return open_peer


@pytest.fixture
def simulate(monkeypatch):
    """Route every connection of the test's scans to a new SimNet."""
    def install(open_peer, **options) -> SimNet:
        net = SimNet(open_peer, **options)
        monkeypatch.setattr(socket, "create_connection", net.create_connection)
        monkeypatch.setattr(wire, "time", types.SimpleNamespace(monotonic=net.monotonic))
        return net
    return install


def sim_target(sessions=1, **overrides):
    return fast_target(21, sessions=sessions, **overrides)


# --- random lab scripts ------------------------------------------------------------

@pytest.mark.parametrize("sessions", (1, 4))
@pytest.mark.parametrize("split", (False, True), ids=("whole", "split"))
@pytest.mark.parametrize("seed", range(SIM_SEEDS))
def test_simulated_scan_of_random_script_equals_session_oracle(seed, split, sessions,
                                                               simulate):
    script = random_script(random.Random(seed))
    collection = build_collection(CONFORMANCE_CONFIG)
    net = simulate(lab_peer(script), split=split)
    fp = fingerprint_target(collection, sim_target(sessions))
    assert fp.observations == lab_oracle(script, collection)
    assert net.sent_once(collection)


# --- one fault at a time -----------------------------------------------------------

# 4 runs of 6 requests; the reply to request i is 200 + i
COLLECTION = build_collection(FuzzConfig(commands=("NOOP", "SYST", "HELP", "STAT"),
                                         max_arg_len=2, instances=1, mutations=1, seed=7))
STEP = COLLECTION.config.block_length
RUNS = len(COLLECTION.records) // STEP
INDEX_OF = {record.bytes: record.index for record in COLLECTION.records}
CHOSEN = COLLECTION.records[STEP + 2]  # mid-run, so a fault there leaves a rest
assert [r.bytes for r in COLLECTION.records].count(CHOSEN.bytes) == 1


def reply(line: bytes) -> bytes:
    return f"{200 + INDEX_OF[line]} reply\r\n".encode()


def aligned() -> list[str]:
    return [str(200 + INDEX_OF[r.bytes]) for r in COLLECTION.records]


def at_chosen(fault_writes):
    """A schedule: `fault_writes(line)` for the chosen request, the reply
    for every other."""
    return raw_peer(lambda n, line: fault_writes(line) if line == CHOSEN.bytes
                    else [(0.0, reply(line))])


@pytest.mark.parametrize("sessions", (1, 4))
def test_byte_split_multiline_replies(simulate, sessions):
    def multiline(n, line):
        code = reply(line)[:3]
        # a line that opens with another code does not close the block
        return [(0.0, code + b"-first\r\n299 inner\r\n" + code + b" end\r\n")]
    net = simulate(raw_peer(multiline), split=True)
    fp = fingerprint_target(COLLECTION, sim_target(sessions))
    assert list(fp.observations) == aligned()
    assert net.connections == RUNS and net.sent_once(COLLECTION)


@pytest.mark.parametrize("split", (False, True), ids=("whole", "split"))
@pytest.mark.parametrize("delay_ms, token, logins", [
    (round(FAST_REPLY_TIMEOUT * 1000) - 1, "215", RUNS),
    (round(FAST_REPLY_TIMEOUT * 1000), TMO, RUNS + 1),  # at the timeout: a fresh login
])
def test_delay_around_the_reply_timeout(simulate, split, delay_ms, token, logins):
    script = ServerScript(name="slow", rules=(
        Rule("SYST", "EMPTY", f"DELAY:{delay_ms}:215:late"),
        Rule("*", "ANY", "REPLY:200:ok")))
    net = simulate(lab_peer(script), split=split)
    fp = fingerprint_target(COLLECTION, sim_target())
    assert fp.observations == lab_oracle(script, COLLECTION)
    assert fp.observations[STEP] == token  # the unmutated, empty SYST opens its run
    assert net.connections == logins and net.sent_once(COLLECTION)


@pytest.mark.parametrize("split", (False, True), ids=("whole", "split"))
@pytest.mark.parametrize("fraction", (0.0, 0.5, 0.99))
def test_stray_line_inside_the_drain_window_is_discarded(simulate, split, fraction):
    net = simulate(at_chosen(lambda line: [(0.0, reply(line)),
                                           (fraction * FAST_DRAIN_WINDOW, b"299 stray\r\n")]),
                   split=split)
    fp = fingerprint_target(COLLECTION, sim_target())
    assert list(fp.observations) == aligned()
    assert net.connections == RUNS and net.sent_once(COLLECTION)


@pytest.mark.parametrize("split", (False, True), ids=("whole", "split"))
@pytest.mark.parametrize("fault, token", [
    ([(0.0, RESET)], DRP),
    ([(0.0, EOF)], DRP),
    ([(0.0, b"2"), (FAST_REPLY_TIMEOUT, b"22 late\r\n")], GBL),  # cut off by the timeout
    ([], TMO),
])
def test_fault_instead_of_a_reply_gets_a_fresh_login(simulate, split, fault, token):
    net = simulate(at_chosen(lambda line: fault), split=split)
    fp = fingerprint_target(COLLECTION, sim_target())
    expected = aligned()
    expected[CHOSEN.index] = token
    assert list(fp.observations) == expected
    assert net.connections == RUNS + 1 and net.sent_once(COLLECTION)


@pytest.mark.parametrize("split", (False, True), ids=("whole", "split"))
@pytest.mark.parametrize("end", (RESET, EOF))
def test_end_during_the_drain_keeps_the_reply(simulate, split, end):
    net = simulate(at_chosen(lambda line: [(0.0, reply(line)),
                                           (FAST_DRAIN_WINDOW / 2, end)]), split=split)
    fp = fingerprint_target(COLLECTION, sim_target())
    assert list(fp.observations) == aligned()
    assert net.connections == RUNS + 1 and net.sent_once(COLLECTION)


def test_known_gap_stray_line_after_the_window_then_silence(simulate, request):
    # the request after the chosen one gets no reply; the stray line, late
    # for the drain, is read as its reply
    after = COLLECTION.records[CHOSEN.index + 1]

    def schedule(n, line):
        if line == CHOSEN.bytes:
            return [(0.0, reply(line)), (1.5 * FAST_DRAIN_WINDOW, b"299 stray\r\n")]
        return [] if line == after.bytes else [(0.0, reply(line))]
    net = simulate(raw_peer(schedule))
    fp = fingerprint_target(COLLECTION, sim_target())
    expected = aligned()
    expected[after.index] = TMO
    wrong = [i for i, (got, want) in enumerate(zip(fp.observations, expected)) if got != want]
    request.node.user_properties.append(("known_gap_positions", len(wrong)))
    assert set(wrong) <= {after.index}  # only the position after the stray line
    assert net.sent_once(COLLECTION)


@pytest.mark.parametrize("split", (False, True), ids=("whole", "split"))
@pytest.mark.parametrize("limit", (1, 3))
def test_capped_target_shrinks_the_pool(simulate, caplog, split, limit):
    collection = build_collection(FuzzConfig(commands=DEFAULT_COMMANDS[:9], max_arg_len=1,
                                             instances=1, mutations=1, seed=7))

    def overlap(line):
        # every request waits until each session has connected once, so
        # they are open at once, as on a network: the cap then refuses all
        # but `limit`, and no later connect finds `limit` open
        deadline = time.monotonic() + 5
        while (line not in LOGIN_LINES and net.connections < 4
               and time.monotonic() < deadline):
            time.sleep(0.001)
    net = simulate(lab_peer(ServerScript(name="capped", default_code=200)),
                   split=split, limit=limit, on_send=overlap)
    with caplog.at_level(logging.WARNING, logger="fingerfuzz.scanner"):
        fp = fingerprint_target(collection, sim_target(sessions=4))
    assert fp.observations == ("200",) * len(collection.records)
    assert net.sent_once(collection)
    lefts = [int(r.getMessage().split("scanning on with ")[1].split(":")[0])
             for r in caplog.records]
    assert lefts == list(range(3, limit - 1, -1))


def failing_sends(times: int, then=None):
    """on_send that fails the chosen request locally `times` times, and
    calls `then()` after the last."""
    left = [times]

    def on_send(line):
        if line == CHOSEN.bytes and left[0]:
            left[0] -= 1
            if not left[0] and then is not None:
                then()
            raise OSError("injected")
    return on_send


@pytest.mark.parametrize("sessions", (1, 4))
def test_local_failures_resend_the_request(simulate, sessions):
    net = simulate(raw_peer(lambda n, line: [(0.0, reply(line))]),
                   on_send=failing_sends(RECONNECT_ATTEMPTS - 1))
    fp = fingerprint_target(COLLECTION, sim_target(sessions))
    assert list(fp.observations) == aligned()
    assert net.connections == RUNS + RECONNECT_ATTEMPTS - 1 and net.sent_once(COLLECTION)


@pytest.mark.parametrize("sessions", (1, 4))
def test_local_failures_at_one_request_end_the_scan(simulate, sessions):
    simulate(raw_peer(lambda n, line: [(0.0, reply(line))]),
             on_send=failing_sends(RECONNECT_ATTEMPTS))
    with pytest.raises(PartialScanError) as err:
        fingerprint_target(COLLECTION, sim_target(sessions))
    assert str(err.value) == (f"request {CHOSEN.index} to 127.0.0.1:21 failed "
                              f"{RECONNECT_ATTEMPTS} times: send failed: injected")


def test_refused_reconnects_share_the_budget_of_a_local_failure(simulate):
    # one local failure, then RECONNECT_ATTEMPTS - 1 refused connects: the
    # last session's refusals count at the same index as the failure
    def refuse_next():
        net.refusals = RECONNECT_ATTEMPTS - 1
    net = simulate(raw_peer(lambda n, line: [(0.0, reply(line))]),
                   on_send=failing_sends(1, then=refuse_next))
    with pytest.raises(PartialScanError) as err:
        fingerprint_target(COLLECTION, sim_target())
    assert str(err.value).startswith(
        f"request {CHOSEN.index} to 127.0.0.1:21 failed {RECONNECT_ATTEMPTS} times: "
        "cannot connect to 127.0.0.1:21: ")
    # the first two runs' logins, then the refused connects
    assert net.connections == 2 + RECONNECT_ATTEMPTS - 1 and net.refusals == 0


# --- a 1xx reply taken as final -----------------------------------------------------

@pytest.mark.xfail(strict=True, reason="a 1xx reply is taken as final, so a final reply "
                   "after the drain window answers the next request: 150, 425, 200")
def test_final_reply_after_a_1xx_answers_its_own_request(simulate):
    # LIST gets 150, then 425 50 ms later; the server answers each later
    # request 20 ms after it reads it
    collection = build_collection(FuzzConfig(commands=("LIST",), max_arg_len=2,
                                             instances=1, mutations=0, seed=7))
    schedule = {0: [(0.0, b"150 opening\r\n"), (0.05, b"425 no data connection\r\n")],
                1: [(0.02, b"200 ok\r\n")], 2: [(0.02, b"215 UNIX\r\n")]}
    simulate(raw_peer(lambda n, line: schedule[n]))
    fp = fingerprint_target(collection, sim_target(drain_window=0.01))
    assert fp.observations == ("150", "200", "215")
