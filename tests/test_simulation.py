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
  A next reply later than the drain window is then read as the reply to
  the request after it.  This is the known gap; its wrong positions are
  counted, not asserted.
- A 1xx reply whose final reply comes after the drain window: no, the
  final reply answers the next request (a known defect, kept as a strict
  xfail until the 1xx read-on of ROADMAP.md lands).
- A refused connect or login, or a local send or receive error: no
  observation is made.  The request goes out once more on a fresh login;
  a refusal while other sessions still work retires its session instead.
  The RECONNECT_ATTEMPTS-th failure at one index ends the scan with
  PartialScanError, so no fingerprint is ever misaligned.

The cases: random lab scripts, whole and split at every byte, at 1 and 4
sessions, each plain and under a seeded schedule of the faults above;
each fault alone at one request; the session pool, where every run starts
a fresh session, 32 sessions under fast thread switching with and without
drops, a target that dies mid-run, targets that cap connections (4 and 32
sessions), a refused reconnect after a drop and on the last queued run,
refused reconnects until the scan ends, local send failures, a refused
first connection and a greeting without a code (none, or garbage).
"""

from __future__ import annotations

import logging
import os
import random
import socket
import sys
import threading
import time
import types
from collections import Counter

import pytest

from fingerfuzz import wire
from fingerfuzz.errors import PartialScanError, ScanRefusedError
from fingerfuzz.fuzzgen import DEFAULT_COMMANDS, FuzzConfig, build_collection
from fingerfuzz.labserver import LabSession, Rule, ServerScript
from fingerfuzz.scanner import RECONNECT_ATTEMPTS, fingerprint_target
from fingerfuzz.wire import ANONYMOUS_PASSWORD, ANONYMOUS_USER, DRP, GBL, TMO

from conftest import FAST_DRAIN_WINDOW, FAST_REPLY_TIMEOUT, fast_target, lab_oracle, logged_in
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


@pytest.fixture
def simulate(monkeypatch):
    """Route every connection of the test's scans to a new SimNet."""
    def install(open_peer, **options) -> SimNet:
        net = SimNet(open_peer, **options)
        monkeypatch.setattr(socket, "create_connection", net.create_connection)
        monkeypatch.setattr(wire, "time", types.SimpleNamespace(monotonic=net.monotonic))
        return net
    return install


@pytest.fixture
def fast_switching():
    """Switch threads every 10 us, so a race in the pool shows more often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def sim_target(sessions=1, **overrides):
    return fast_target(21, sessions=sessions, **overrides)


def small_collection(commands, max_arg_len=1, mutations=1):
    return build_collection(FuzzConfig(commands=commands, max_arg_len=max_arg_len,
                                       instances=1, mutations=mutations, seed=7))


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


STRAY = b"299 stray\r\n"
KEEP, GAP = "keep", "gap"  # lab_oracle is not told; the known gap

# fault -> (what the target writes instead of the scripted `writes` of a
# reply, given a draw u in [0, 1); what lab_oracle is told of it)
FAULTS = {
    "stray line inside the drain window": (
        lambda w, u: w + [(w[-1][0] + 0.99 * u * FAST_DRAIN_WINDOW, STRAY)], KEEP),
    "reset before the reply": (lambda w, u: [(0.0, RESET)], DRP),
    "end before the reply": (lambda w, u: [(0.0, EOF)], DRP),
    "reset during the drain": (
        lambda w, u: w + [(w[-1][0] + 0.99 * u * FAST_DRAIN_WINDOW, RESET)], None),
    "end during the drain": (
        lambda w, u: w + [(w[-1][0] + 0.99 * u * FAST_DRAIN_WINDOW, EOF)], None),
    "silence": (lambda w, u: [], TMO),
    "reply 1 ms under the reply timeout": (
        lambda w, u: [(FAST_REPLY_TIMEOUT - 0.001, w[-1][1])], KEEP),
    "reply at or after the reply timeout": (
        lambda w, u: [(FAST_REPLY_TIMEOUT + u * FAST_DRAIN_WINDOW, w[-1][1])], TMO),
    "stray line after the drain window": (
        lambda w, u: w + [(w[-1][0] + (1.1 + u) * FAST_DRAIN_WINDOW, STRAY)], GAP),
}
NO_REPLY_NEEDED = ("reset before the reply", "end before the reply", "silence")


def fault_schedule(rng: random.Random, script: ServerScript, collection):
    """Faults at seeded requests, each a request the collection holds once:
    the `faults` of lab_peer, what lab_oracle is told (index -> token or
    None) and the positions after a stray line late for the drain window.
    Such a position holds no fault and gets its scripted reply, if any,
    within the drain window: a slower reply would be read as the reply to
    the request after it."""
    session = logged_in(script)
    scripted = [session.respond(record.bytes) for record in collection.records]
    replied = [action != "DROP" and payload is not None and delay < FAST_REPLY_TIMEOUT
               for action, payload, delay in scripted]
    quick = [action == "DROP" or payload is None or delay < FAST_DRAIN_WINDOW
             for action, payload, delay in scripted]
    copies = Counter(record.bytes for record in collection.records)
    chosen = sorted(rng.sample([r.index for r in collection.records if copies[r.bytes] == 1],
                               rng.randint(4, 12)))
    step = collection.config.block_length
    faults, told, after_gaps = {}, {}, set()
    for i in chosen:
        after = i + 1
        kinds = [kind for kind in FAULTS if replied[i] or kind in NO_REPLY_NEEDED]
        if not (after % step and after not in chosen and quick[after]):
            kinds = [kind for kind in kinds if FAULTS[kind][1] != GAP]
        write, effect = FAULTS[rng.choice(kinds)]
        faults[collection.records[i].bytes] = lambda w, write=write, u=rng.random(): write(w, u)
        if effect == GAP:
            after_gaps.add(after)
        elif effect != KEEP:
            told[i] = effect
    return faults, told, after_gaps


@pytest.mark.parametrize("sessions", (1, 4))
@pytest.mark.parametrize("split", (False, True), ids=("whole", "split"))
@pytest.mark.parametrize("seed", range(SIM_SEEDS))
def test_random_script_under_a_seeded_fault_schedule(seed, split, sessions, simulate,
                                                     request):
    script = random_script(random.Random(seed))
    collection = build_collection(CONFORMANCE_CONFIG)
    faults, told, after_gaps = fault_schedule(random.Random(f"faults {seed}"), script,
                                              collection)
    net = simulate(lab_peer(script, faults), split=split)
    fp = fingerprint_target(collection, sim_target(sessions))
    expected = lab_oracle(script, collection, told)
    wrong = {i for i, (got, want) in enumerate(zip(fp.observations, expected)) if got != want}
    request.node.user_properties.append(("known_gap_positions", len(wrong & after_gaps)))
    assert wrong <= after_gaps
    assert net.sent_once(collection)


# --- one fault at a time -----------------------------------------------------------

# 4 runs of 6 requests
COLLECTION = small_collection(("NOOP", "SYST", "HELP", "STAT"), max_arg_len=2)
STEP = COLLECTION.config.block_length
RUNS = len(COLLECTION.records) // STEP
CHOSEN = COLLECTION.records[STEP + 2]  # mid-run, so a fault there leaves a rest
assert [r.bytes for r in COLLECTION.records].count(CHOSEN.bytes) == 1


def at_chosen(fault):
    """Connections that give `counted` replies, and `fault(writes)` for the
    chosen request, where `writes` is the reply it would get."""
    return raw_peer(lambda n, line: fault(counted(n, line)) if line == CHOSEN.bytes
                    else counted(n, line))


@pytest.mark.parametrize("sessions", (1, 4))
def test_byte_split_multiline_replies(simulate, sessions):
    def multiline(n, line):
        code = str(200 + n).encode()
        # a line that opens with another code does not close the block
        return [(0.0, code + b"-first\r\n299 inner\r\n" + code + b" end\r\n")]
    net = simulate(raw_peer(multiline), split=True)
    fp = fingerprint_target(COLLECTION, sim_target(sessions))
    assert list(fp.observations) == codes(COLLECTION)
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
    net = simulate(at_chosen(lambda writes: writes + [(fraction * FAST_DRAIN_WINDOW, STRAY)]),
                   split=split)
    fp = fingerprint_target(COLLECTION, sim_target())
    assert list(fp.observations) == codes(COLLECTION)
    assert net.connections == RUNS and net.sent_once(COLLECTION)


@pytest.mark.parametrize("split", (False, True), ids=("whole", "split"))
@pytest.mark.parametrize("fault, token", [
    ([(0.0, RESET)], DRP),
    ([(0.0, EOF)], DRP),
    ([(0.0, b"2"), (FAST_REPLY_TIMEOUT, b"22 late\r\n")], GBL),  # cut off by the timeout
    ([], TMO),
])
def test_fault_instead_of_a_reply_gets_a_fresh_login(simulate, split, fault, token):
    net = simulate(at_chosen(lambda writes: fault), split=split)
    fp = fingerprint_target(COLLECTION, sim_target())
    # the rest of the run is numbered from 200 again: it went out on a new login
    expected = codes(COLLECTION, fresh={CHOSEN.index + 1})
    expected[CHOSEN.index] = token
    assert list(fp.observations) == expected
    assert net.connections == RUNS + 1 and net.sent_once(COLLECTION)


@pytest.mark.parametrize("split", (False, True), ids=("whole", "split"))
@pytest.mark.parametrize("end", (RESET, EOF))
def test_end_during_the_drain_keeps_the_reply(simulate, split, end):
    net = simulate(at_chosen(lambda writes: writes + [(FAST_DRAIN_WINDOW / 2, end)]),
                   split=split)
    fp = fingerprint_target(COLLECTION, sim_target())
    assert list(fp.observations) == codes(COLLECTION, fresh={CHOSEN.index + 1})
    assert net.connections == RUNS + 1 and net.sent_once(COLLECTION)


def test_known_gap_stray_line_after_the_window_then_silence(simulate, request):
    # the request after the chosen one gets no reply; the stray line, late
    # for the drain, is read as its reply.  Each reply's code is 200 plus
    # its request's index, whatever the connection.
    index_of = {record.bytes: record.index for record in COLLECTION.records}
    after = COLLECTION.records[CHOSEN.index + 1]

    def schedule(n, line):
        reply = [(0.0, f"{200 + index_of[line]} reply\r\n".encode())]
        if line == CHOSEN.bytes:
            return reply + [(1.5 * FAST_DRAIN_WINDOW, STRAY)]
        return [] if line == after.bytes else reply
    net = simulate(raw_peer(schedule))
    fp = fingerprint_target(COLLECTION, sim_target())
    expected = [str(200 + record.index) for record in COLLECTION.records]
    expected[after.index] = TMO
    wrong = [i for i, (got, want) in enumerate(zip(fp.observations, expected)) if got != want]
    request.node.user_properties.append(("known_gap_positions", len(wrong)))
    assert set(wrong) <= {after.index}  # only the position after the stray line
    assert net.sent_once(COLLECTION)


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
    net = simulate(raw_peer(counted), on_send=failing_sends(RECONNECT_ATTEMPTS - 1))
    fp = fingerprint_target(COLLECTION, sim_target(sessions))
    # the chosen request and the rest of its run go out on a fresh login
    assert list(fp.observations) == codes(COLLECTION, fresh={CHOSEN.index})
    assert net.connections == RUNS + RECONNECT_ATTEMPTS - 1 and net.sent_once(COLLECTION)


@pytest.mark.parametrize("sessions", (1, 4))
def test_local_failures_at_one_request_end_the_scan(simulate, sessions):
    simulate(raw_peer(counted), on_send=failing_sends(RECONNECT_ATTEMPTS))
    threads_before = threading.active_count()
    with pytest.raises(PartialScanError) as err:
        fingerprint_target(COLLECTION, sim_target(sessions))
    assert str(err.value) == (f"request {CHOSEN.index} to 127.0.0.1:21 failed "
                              f"{RECONNECT_ATTEMPTS} times: send failed: injected")
    assert threading.active_count() == threads_before


def test_refused_reconnects_share_the_budget_of_a_local_failure(simulate):
    # one local failure, then RECONNECT_ATTEMPTS - 1 refused connects: the
    # last session's refusals count at the same index as the failure
    def refuse_next():
        net.refusals = RECONNECT_ATTEMPTS - 1
    net = simulate(raw_peer(counted), on_send=failing_sends(1, then=refuse_next))
    with pytest.raises(PartialScanError) as err:
        fingerprint_target(COLLECTION, sim_target())
    assert str(err.value).startswith(
        f"request {CHOSEN.index} to 127.0.0.1:21 failed {RECONNECT_ATTEMPTS} times: "
        "cannot connect to 127.0.0.1:21: ")
    # the first two runs' logins, then the refused connects
    assert net.connections == 2 + RECONNECT_ATTEMPTS - 1 and net.refusals == 0


def test_reconnect_exhaustion_aborts(simulate):
    # the target drops the first request, then refuses every connect
    def drops_then_gone(n, line):
        net.refusals = RECONNECT_ATTEMPTS
        return [(0.0, EOF)]
    net = simulate(raw_peer(drops_then_gone))
    threads_before = threading.active_count()
    with pytest.raises(PartialScanError) as err:
        fingerprint_target(COLLECTION, sim_target())
    assert str(err.value) == (
        f"request 1 to 127.0.0.1:21 failed {RECONNECT_ATTEMPTS} times: "
        "cannot connect to 127.0.0.1:21: connection refused (simulated)")
    assert net.connections == 1 + RECONNECT_ATTEMPTS and net.refusals == 0
    assert threading.active_count() == threads_before


# --- the session pool --------------------------------------------------------------

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


@pytest.mark.parametrize("sessions", (1, 8))
def test_each_segment_starts_a_fresh_session(simulate, sessions):
    commands = DEFAULT_COMMANDS[:12]
    collection = small_collection(commands, max_arg_len=2)
    net = simulate(raw_peer(counted))
    fp = fingerprint_target(collection, sim_target(sessions))
    assert list(fp.observations) == codes(collection)
    assert net.connections == len(commands) and net.sent_once(collection)


def test_many_sessions_under_fast_thread_switching(simulate, fast_switching):
    collection = small_collection(DEFAULT_COMMANDS, mutations=2)
    net = simulate(raw_peer(counted))
    fp = fingerprint_target(collection, sim_target(32))
    assert list(fp.observations) == codes(collection)
    assert net.connections == len(DEFAULT_COMMANDS) and net.sent_once(collection)


def test_drops_under_fast_thread_switching(simulate, fast_switching):
    # every fifth request on a connection drops it; each rest is queued as
    # a run of its own and may go out in any session
    collection = small_collection(DEFAULT_COMMANDS, mutations=2)
    step = collection.config.block_length
    assert step == 6  # one drop and a rest of one request per run
    net = simulate(raw_peer(lambda n, line: [(0.0, EOF)] if n == 4 else counted(n, line)))
    fp = fingerprint_target(collection, sim_target(32))
    assert fp.observations == tuple(
        DRP if i % step % 5 == 4 else str(200 + i % step % 5)
        for i in range(len(collection.records)))
    assert net.connections == 2 * len(DEFAULT_COMMANDS) and net.sent_once(collection)


def test_target_death_stops_the_scan(simulate):
    # at the sixth of twelve requests, on the first run to get there, the
    # target dies: every open connection ends at its next request, and every
    # new one at once, before its greeting
    collection = small_collection(DEFAULT_COMMANDS[:12], max_arg_len=5)
    sessions = 2
    at_death = []  # the connections made before it

    def dies_mid_run(n, line):
        if not at_death and n == 5:
            with net._lock:
                at_death.append(net.connections)
                net.open_peer = raw_peer(None, greeting=EOF)
        return [(0.0, EOF)] if at_death else counted(n, line)
    net = simulate(raw_peer(dies_mid_run))
    threads_before = threading.active_count()
    with pytest.raises(PartialScanError, match=f"failed {RECONNECT_ATTEMPTS} times: "
                       r"127\.0\.0\.1:21 refused the connection \(greeting DRP\)"):
        fingerprint_target(collection, sim_target(sessions))
    assert threading.active_count() == threads_before
    # only the sessions at work connect again, and none of the waiting runs
    # starts: one refusal retires each session but the last, whose run is
    # refused RECONNECT_ATTEMPTS times
    assert net.connections - at_death[0] == sessions - 1 + RECONNECT_ATTEMPTS


@pytest.mark.parametrize("split", (False, True), ids=("whole", "split"))
@pytest.mark.parametrize("limit", (1, 3))
def test_capped_target_shrinks_the_pool(simulate, caplog, split, limit):
    collection = small_collection(DEFAULT_COMMANDS[:9])
    net = simulate(raw_peer(counted), split=split, limit=limit,
                   on_send=lambda line: wait_for_connections(net, 4, line))
    threads_before = threading.active_count()
    with caplog.at_level(logging.WARNING, logger="fingerfuzz.scanner"):
        fp = fingerprint_target(collection, sim_target(sessions=4))
    assert threading.active_count() == threads_before
    assert list(fp.observations) == codes(collection)
    assert net.sent_once(collection)
    assert shrinks(caplog) == list(range(3, limit - 1, -1))
    # one login per run, and one refused connect per shrink
    assert net.connections == 9 + 4 - limit


def test_many_sessions_against_a_cap_under_fast_thread_switching(simulate, caplog,
                                                                   fast_switching):
    collection = small_collection(DEFAULT_COMMANDS, mutations=2)
    workers = min(32, len(DEFAULT_COMMANDS))  # one per run at most
    net = simulate(raw_peer(counted), limit=3,
                   on_send=lambda line: wait_for_connections(net, workers, line))
    with caplog.at_level(logging.WARNING, logger="fingerfuzz.scanner"):
        fp = fingerprint_target(collection, sim_target(32))
    assert list(fp.observations) == codes(collection)
    assert net.sent_once(collection)
    assert shrinks(caplog) == list(range(workers - 1, 2, -1))
    assert net.connections == len(DEFAULT_COMMANDS) + workers - 3


def test_refused_reconnect_after_a_drop_hands_the_rest_back(simulate, caplog):
    def drops_chosen(n, line):
        if line != CHOSEN.bytes:
            return counted(n, line)
        net.refusals = 1  # the next connect
        return [(0.0, EOF)]
    net = simulate(raw_peer(drops_chosen))
    with caplog.at_level(logging.WARNING, logger="fingerfuzz.scanner"):
        fp = fingerprint_target(COLLECTION, sim_target(2))
    expected = codes(COLLECTION, fresh={CHOSEN.index + 1})
    expected[CHOSEN.index] = DRP
    assert list(fp.observations) == expected
    assert net.sent_once(COLLECTION)
    assert shrinks(caplog) == [1]
    # a login per run and for the rest after the drop, and the refused connect
    assert net.connections == RUNS + 2 and net.refusals == 0


def test_refusal_on_the_last_queued_run(simulate, caplog):
    # the other session has sent everything else, closed its connection and
    # waits on the empty queue while the last run is held; it must still
    # take the handed-back rest instead of leaving
    last = COLLECTION.records[-2]
    assert [r.bytes for r in COLLECTION.records].count(last.bytes) == 1

    def others_done(line):
        if line == last.bytes:
            deadline = time.monotonic() + 5
            while ((len(net.requests) < last.index or net._open > 1)
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            time.sleep(0.01)  # for the other session to reach the queue

    def drops_last(n, line):
        if line != last.bytes:
            return counted(n, line)
        net.refusals = 1
        return [(0.0, EOF)]
    net = simulate(raw_peer(drops_last), on_send=others_done)
    with caplog.at_level(logging.WARNING, logger="fingerfuzz.scanner"):
        fp = fingerprint_target(COLLECTION, sim_target(2))
    expected = codes(COLLECTION, fresh={last.index + 1})
    expected[last.index] = DRP
    assert list(fp.observations) == expected
    assert net.sent_once(COLLECTION)
    assert shrinks(caplog) == [1]
    assert net.connections == RUNS + 2 and net.refusals == 0


def test_refused_first_connection_names_target_and_greeting(simulate):
    net = simulate(raw_peer(counted), limit=0)
    with pytest.raises(ScanRefusedError) as err:
        fingerprint_target(COLLECTION, sim_target(4))
    assert str(err.value) == "127.0.0.1:21 refused the connection (greeting 421)"
    assert net.connections == 1


@pytest.mark.parametrize("greeting, token", [(None, TMO), (b"hello there\r\n", GBL)],
                         ids=("none", "garbage"))
def test_greeting_without_a_code_is_no_refusal(simulate, greeting, token):
    # sentinel tokens sort after "400" as strings; only a 4xx or 5xx code refuses
    net = simulate(raw_peer(counted, greeting=greeting))
    fp = fingerprint_target(COLLECTION, sim_target())
    assert fp.greeting == token
    assert list(fp.observations) == codes(COLLECTION)
    assert net.connections == RUNS and net.sent_once(COLLECTION)


# --- a 1xx reply taken as final -----------------------------------------------------

@pytest.mark.xfail(strict=True, reason="a 1xx reply is taken as final, so a final reply "
                   "after the drain window answers the next request: 150, 425, 200")
def test_final_reply_after_a_1xx_answers_its_own_request(simulate):
    # LIST gets 150, then 425 50 ms later; the server answers each later
    # request 20 ms after it reads it
    collection = small_collection(("LIST",), max_arg_len=2, mutations=0)
    schedule = {0: [(0.0, b"150 opening\r\n"), (0.05, b"425 no data connection\r\n")],
                1: [(0.02, b"200 ok\r\n")], 2: [(0.02, b"215 UNIX\r\n")]}
    simulate(raw_peer(lambda n, line: schedule[n]))
    fp = fingerprint_target(collection, sim_target(drain_window=0.01))
    assert fp.observations == ("150", "200", "215")
