"""Scans simulated on virtual clocks, through the real wire and scanner.

The network is `simnet.SimNet`, installed by the `simulate` fixture of
conftest.py: the real `wire.connect`, `FtpSession` and
`scanner._SessionPool` run on its connections, each with its own virtual
clock, against a `LabSession` (`lab_peer`) or a raw byte schedule
(`raw_peer`).

The alignment contract, fault by fault: is position i guaranteed to hold
the reply to request i?

- A reply split at any byte, or late by less than the reply timeout: yes.
- A reply at or after the reply timeout, or none: TMO, the session closes
  and the rest of the run goes out on a fresh login, so yes.
- A reply cut off by the reply timeout: GBL, then a fresh login, so yes.
- A reset or end of the connection before the reply, or a send the peer
  resets: DRP, then a fresh login, so yes.  During the drain: the reply
  is kept, then a fresh login.
- A stray line inside the drain window: discarded, so yes.
- A stray line after the window: no.  It is read as the next reply if that
  has not come first, as when the next request gets no reply (SILENCE).
  A next reply later than the drain window is then read as the reply to
  the request after it.  This is the known gap; its wrong positions are
  counted, not asserted.  A stray line after the window followed by a
  late reply shifts more than one position.  In the pinned case, a stray
  15 ms after reply i and reply i + 1 sent 15 ms late with a 10 ms drain,
  the stray is recorded at i + 1 and reply i + 1 at i + 2; reply i + 2
  comes inside that drain and is discarded, and the run is aligned again.
- A 1xx reply whose final reply comes after the drain window: no, the
  final reply answers the next request (a known defect, kept as a strict
  xfail until the 1xx read-on of ROADMAP.md lands).
- A refused connect or login, or a local send or receive error: no
  observation is made.  The request goes out once more on a fresh login;
  a refusal while other sessions still work retires its session instead.
  The RECONNECT_ATTEMPTS-th failure at one index ends the scan with
  PartialScanError, so no fingerprint is ever misaligned.

The cases: random lab scripts, whole and split at every byte, at 1, 4 and 9
sessions, each plain and under a seeded schedule of the faults above; each
fault alone at one request; a stop set mid-scan; the session pool, where
every run starts a fresh session, 32 sessions under fast thread switching
with and without drops, the default session count on 27 command blocks,
every one open at once, plain and with drops and silence, a target that
dies mid-run, targets that cap connections (4 and 32 sessions), a refused
reconnect after a drop and on the last queued run, a refused first connect
followed by that, refused reconnects until the scan ends, local send
failures, a failed scan that stops sending, a refused first connection and
a greeting without a code (none, or garbage).
"""

from __future__ import annotations

import logging
import os
import random
import threading
import time
from collections import Counter

import pytest

from fingerfuzz.errors import PartialScanError, ScanRefusedError
from fingerfuzz.fuzzgen import DEFAULT_COMMANDS, FuzzConfig, build_collection
from fingerfuzz.labserver import Rule, ServerScript
from fingerfuzz.scanner import RECONNECT_ATTEMPTS, fingerprint_target
from fingerfuzz.wire import DRP, GBL, TMO, TargetSpec

from conftest import (
    CONFORMANCE_CONFIG,
    CONFORMANCE_SESSIONS,
    FAST_DRAIN_WINDOW,
    FAST_REPLY_TIMEOUT,
    lab_oracle,
    logged_in,
    random_script,
    sim_target,
)
from simnet import (
    EOF,
    LOGIN_LINES,
    RESET,
    codes,
    counted,
    lab_peer,
    raw_peer,
    shrinks,
    wait_for_connections,
)

# CI sweeps more seeds through this variable
SIM_SEEDS = int(os.environ.get("SIM_CONFORMANCE_SEEDS", "40"))


def small_collection(commands, max_arg_len=1, mutations=1):
    return build_collection(FuzzConfig(commands=commands, max_arg_len=max_arg_len,
                                       instances=1, mutations=mutations, seed=7))


# --- random lab scripts ------------------------------------------------------------

@pytest.mark.parametrize("sessions", CONFORMANCE_SESSIONS)
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


@pytest.mark.parametrize("sessions", CONFORMANCE_SESSIONS)
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
    ([(0.0, b"211-a\r\n")], GBL),  # cut off by the timeout at a line end
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
def test_reply_opening_with_a_bare_lf_is_garbled_at_once(simulate, split):
    # decided at the LF, so the reply after it is drained and the session
    # stays open; waiting for more bytes would close it at the reply timeout
    net = simulate(at_chosen(lambda writes: [(0.0, b"\n" + writes[0][1])]), split=split)
    fp = fingerprint_target(COLLECTION, sim_target())
    expected = codes(COLLECTION)
    expected[CHOSEN.index] = GBL
    assert list(fp.observations) == expected
    assert net.connections == RUNS and net.sent_once(COLLECTION)


@pytest.mark.parametrize("sessions", (1, 4))
def test_send_reset_by_the_peer_reads_drp(simulate, sessions):
    # the chosen request never reaches the peer; the rest of its run goes
    # out on a fresh login
    def resets_chosen(line):
        if line == CHOSEN.bytes:
            raise ConnectionResetError("connection reset (simulated)")
    net = simulate(raw_peer(counted), on_send=resets_chosen)
    fp = fingerprint_target(COLLECTION, sim_target(sessions))
    expected = codes(COLLECTION, fresh={CHOSEN.index + 1})
    expected[CHOSEN.index] = DRP
    assert list(fp.observations) == expected
    assert net.connections == RUNS + 1
    assert Counter(net.requests) == Counter(r.bytes for r in COLLECTION.records
                                            if r is not CHOSEN)


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


def test_known_gap_late_stray_line_then_late_replies(simulate, request):
    # a stray line 15 ms after reply 8 and reply 9 sent 15 ms late, both
    # after a 10 ms drain: the stray is read as reply 9 and reply 9 as reply
    # 10, whose own reply then comes inside the drain and is discarded.
    # Two positions shift, not one; reply 11 is its own again
    index_of = {record.bytes: record.index for record in COLLECTION.records}

    def schedule(n, line):
        index = index_of[line]
        reply = f"{200 + index} reply\r\n".encode()
        if index == 8:
            return [(0.0, reply), (0.015, STRAY)]
        return [(0.015 if index == 9 else 0.0, reply)]
    net = simulate(raw_peer(schedule))
    fp = fingerprint_target(COLLECTION, sim_target(drain_window=0.01))
    expected = [str(200 + record.index) for record in COLLECTION.records]
    wrong = {i: fp.observations[i] for i, want in enumerate(expected)
             if fp.observations[i] != want}
    request.node.user_properties.append(("known_gap_positions", len(wrong)))
    assert wrong == {9: "299", 10: "209"}
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


PLAIN_SCRIPT = ServerScript(name="plain", rules=(
    Rule("*", "NONPRINT", "REPLY:501:junk"), Rule("SYST", "ANY", "REPLY:215:UNIX")))
DROPS_AND_SILENCE = ServerScript(name="faulty", rules=(
    Rule("QUIT", "ANY", "DROP"),
    Rule("NOOP", "LEN_GT:0", "DROP"),
    Rule("SYST", "EMPTY", "SILENCE"),
    Rule("STAT", "NONPRINT", "SILENCE"),
    Rule("*", "NONPRINT", "REPLY:501:junk"),
    Rule("HELP", "ANY", "MULTI:214:a|b")), default_code=502)


@pytest.mark.parametrize("script", (PLAIN_SCRIPT, DROPS_AND_SILENCE),
                         ids=("plain", "drops-and-silence"))
def test_default_sessions_scan_every_command_block_at_once(simulate, script):
    # each request waits until every block's session is open, or 5 s have
    # passed; then no session has closed yet, so the peak is every block
    collection = small_collection(DEFAULT_COMMANDS, mutations=2)
    blocks = len(collection.records) // collection.config.block_length
    assert blocks == len(DEFAULT_COMMANDS) == 27
    simulate(lab_peer(script))
    alone = fingerprint_target(collection, sim_target(1))
    peak = [0]
    deadline = time.monotonic() + 5

    def all_open(line):
        while True:
            with net._lock:
                peak[0] = max(peak[0], net._open)
            if line in LOGIN_LINES or peak[0] >= blocks or time.monotonic() > deadline:
                return
            time.sleep(0.001)
    net = simulate(lab_peer(script), on_send=all_open)
    fp = fingerprint_target(collection, sim_target(TargetSpec.sessions))
    assert peak[0] == blocks
    assert fp.observations == alone.observations == lab_oracle(script, collection)
    assert net.sent_once(collection)
    assert {DRP, TMO} & set(fp.observations) == (
        {DRP, TMO} if script is DROPS_AND_SILENCE else set())


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


@pytest.mark.parametrize("refusals", (1, RECONNECT_ATTEMPTS, RECONNECT_ATTEMPTS + 1))
def test_refusal_on_the_last_queued_run(simulate, caplog, refusals):
    # the other session has sent everything else and closed its connection
    # when the last run's reconnect is refused: the handed-back rest must
    # still go out.  The first refusal shrinks the pool to one session; each
    # later one counts at the rest's first request, and the
    # RECONNECT_ATTEMPTS-th count ends the scan
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
        net.refusals = refusals
        return [(0.0, EOF)]
    net = simulate(raw_peer(drops_last), on_send=others_done)
    with caplog.at_level(logging.WARNING, logger="fingerfuzz.scanner"):
        if refusals > RECONNECT_ATTEMPTS:
            with pytest.raises(PartialScanError) as err:
                fingerprint_target(COLLECTION, sim_target(2))
        else:
            fp = fingerprint_target(COLLECTION, sim_target(2))
    assert shrinks(caplog) == [1]
    assert net.refusals == 0
    if refusals > RECONNECT_ATTEMPTS:
        assert str(err.value) == (
            f"request {last.index + 1} to 127.0.0.1:21 failed {RECONNECT_ATTEMPTS} times: "
            "cannot connect to 127.0.0.1:21: connection refused (simulated)")
        assert net.connections == RUNS + refusals
        return
    expected = codes(COLLECTION, fresh={last.index + 1})
    expected[last.index] = DRP
    assert list(fp.observations) == expected
    assert net.sent_once(COLLECTION)
    # a login per run and for the rest after the drop, and the refused connects
    assert net.connections == RUNS + 1 + refusals


@pytest.mark.parametrize("sessions", (1, 4))
def test_stop_ends_the_scan_before_the_next_request(simulate, sessions):
    # set while the chosen request is sent: that one is answered, and no
    # session sends another; the scan names the first position left unobserved
    stop = threading.Event()
    net = simulate(raw_peer(counted),
                   on_send=lambda line: stop.set() if line == CHOSEN.bytes else None)
    threads_before = threading.active_count()
    with pytest.raises(PartialScanError) as err:
        fingerprint_target(COLLECTION, sim_target(sessions), stop=stop)
    assert threading.active_count() == threads_before
    assert CHOSEN.bytes in net.requests
    if sessions == 1:
        assert str(err.value) == (f"request {CHOSEN.index + 1} to 127.0.0.1:21 "
                                  "was never observed")
        assert net.requests == [r.bytes for r in COLLECTION.records[:CHOSEN.index + 1]]


def test_refused_first_connect_then_refused_reconnect_on_the_last_run(simulate, caplog):
    # 3 sessions: one worker's first connect is refused, and it leaves.
    # Later the reconnect after a drop in the last run is refused once the
    # other worker has left, so the refused worker takes its own rest again
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
    peer = raw_peer(drops_last)

    def refuses_the_second_connect():
        if net.connections == 1:
            net.refusals = 1
        return peer()
    net = simulate(refuses_the_second_connect, on_send=others_done)
    with caplog.at_level(logging.WARNING, logger="fingerfuzz.scanner"):
        fp = fingerprint_target(COLLECTION, sim_target(3))
    assert shrinks(caplog) == [2, 1]
    expected = codes(COLLECTION, fresh={last.index + 1})
    expected[last.index] = DRP
    assert list(fp.observations) == expected
    assert net.sent_once(COLLECTION)
    # a login per run and for the rest after the drop, and the two refused connects
    assert net.connections == RUNS + 3 and net.refusals == 0


def test_a_failed_scan_stops_sending(simulate):
    # the chosen request fails locally RECONNECT_ATTEMPTS times.  The other
    # session holds its first request until the worker of the last failure
    # has ended; it sends that one request and no other
    failed_in = []  # the worker thread of each failure
    chosen_run = {r.bytes for r in COLLECTION.records[STEP:2 * STEP]}

    def on_send(line):
        if line == CHOSEN.bytes and len(failed_in) < RECONNECT_ATTEMPTS:
            failed_in.append(threading.current_thread())
            raise OSError("injected")
        if line in LOGIN_LINES or line in chosen_run:
            return
        deadline = time.monotonic() + 5
        while len(failed_in) < RECONNECT_ATTEMPTS and time.monotonic() < deadline:
            time.sleep(0.001)
        failed_in[-1].join(5)
    net = simulate(raw_peer(counted), on_send=on_send)
    threads_before = threading.active_count()
    with pytest.raises(PartialScanError, match=f"request {CHOSEN.index} to 127.0.0.1:21 "
                       f"failed {RECONNECT_ATTEMPTS} times: send failed: injected"):
        fingerprint_target(COLLECTION, sim_target(2))
    assert threading.active_count() == threads_before
    assert net.requests == [r.bytes for r in COLLECTION.records[STEP:CHOSEN.index]] + [
        COLLECTION.records[0].bytes]


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
