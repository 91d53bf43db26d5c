from __future__ import annotations

import io
import selectors
import socket
import sys
import threading

import pytest

from fingerfuzz.errors import DatabaseError, ParseError, PartialScanError, ScanRefusedError
from fingerfuzz.fuzzgen import DEFAULT_COMMANDS, FuzzConfig, build_collection
from fingerfuzz.labserver import Rule, ServerScript
from fingerfuzz.matcher import FingerprintDB
from fingerfuzz.scanner import (
    RECONNECT_ATTEMPTS,
    Fingerprint,
    fingerprint_target,
    load_fingerprint,
    read_fingerprint,
    save_fingerprint,
    segment_length,
    write_fingerprint,
)
from fingerfuzz.wire import DROPPED, GARBLED, TIMEOUT, ReplyObservation, of_code

from conftest import constant_script, fast_target


def predict_token(script: ServerScript, request: bytes) -> ReplyObservation:
    """Independent re-statement of the scripted behaviour, for oracles."""
    head, _, arg = request.partition(b" ")
    for rule in script.rules:
        if rule.command != "*" and head.upper() != rule.command.encode():
            continue
        if rule.predicate == "LEN_GT" and not len(arg) > rule.length_gt:
            continue
        if rule.predicate == "NONPRINT" and not any(
            b < 0x20 or b > 0x7E for b in arg
        ):
            continue
        if rule.predicate == "EMPTY" and len(arg) != 0:
            continue
        if rule.action == "DROP":
            return ReplyObservation(DROPPED)
        if rule.action == "SILENCE":
            return ReplyObservation(TIMEOUT)
        return of_code(rule.code)
    return of_code(script.default_code)


def tiny_collection(commands=("NOOP",), max_arg_len=1, mutations=1, seed=7):
    return build_collection(
        FuzzConfig(commands=commands, max_arg_len=max_arg_len, instances=1,
                   mutations=mutations, seed=seed)
    )


def test_constant_script_yields_constant_vector(lab_factory):
    collection = tiny_collection()
    server = lab_factory(constant_script(code=502))
    fp = fingerprint_target(collection, fast_target(server.port), label="const")
    assert fp.observations == (of_code(502),) * 4
    assert fp.collection_digest == collection.digest
    assert fp.label == "const"
    assert fp.greeting == of_code(220)
    assert fp.login == (of_code(331), of_code(230))
    assert fp.target.endswith(f":{server.port}")


def test_scan_matches_script_oracle(lab_factory):
    script = ServerScript(
        name="varied",
        rules=(
            Rule("NOOP", "LEN_GT", "REPLY", length_gt=0, code=500, text="arg"),
            Rule("NOOP", "ANY", "REPLY", code=200, text="ok"),
            Rule("SYST", "ANY", "REPLY", code=215, text="UNIX"),
        ),
        default_code=502,
    )
    collection = tiny_collection(commands=("NOOP", "SYST", "HELP"), mutations=2)
    server = lab_factory(script)
    fp = fingerprint_target(collection, fast_target(server.port))
    expected = tuple(predict_token(script, r.bytes) for r in collection.records)
    assert fp.observations == expected


def test_drop_rule_keeps_alignment(lab_factory):
    script = ServerScript(name="dropper", rules=(Rule("QUIT", "ANY", "DROP"),),
                          default_code=257)
    # mutation-free so every record's first token equals its command
    collection = tiny_collection(commands=("QUIT", "NOOP"), mutations=0)
    server = lab_factory(script)
    fp = fingerprint_target(collection, fast_target(server.port))
    assert len(fp.observations) == len(collection.records)
    for record, obs in zip(collection.records, fp.observations):
        if record.command == "QUIT":
            assert obs == ReplyObservation(DROPPED)
        else:
            assert obs == of_code(257)


def test_silence_rule_records_timeouts(lab_factory):
    script = ServerScript(name="quiet", rules=(Rule("REIN", "ANY", "SILENCE"),),
                          default_code=200)
    collection = tiny_collection(commands=("REIN", "NOOP"), mutations=0)
    server = lab_factory(script)
    fp = fingerprint_target(collection, fast_target(server.port))
    expected = tuple(
        ReplyObservation(TIMEOUT) if r.command == "REIN" else of_code(200)
        for r in collection.records
    )
    assert fp.observations == expected


def test_deterministic_server_gives_identical_scans(lab_factory):
    collection = tiny_collection(commands=("NOOP", "HELP"), mutations=3)
    script = ServerScript(
        name="echoish",
        rules=(Rule("NOOP", "NONPRINT", "REPLY", code=501, text="junk"),
               Rule("NOOP", "ANY", "REPLY", code=200, text="ok")),
    )
    server = lab_factory(script)
    first = fingerprint_target(collection, fast_target(server.port))
    second = fingerprint_target(collection, fast_target(server.port))
    assert first.observations == second.observations


def test_inter_request_delay(lab_factory):
    import time

    collection = tiny_collection(commands=("NOOP",), max_arg_len=0, mutations=1)
    server = lab_factory(constant_script())
    start = time.monotonic()
    fp = fingerprint_target(collection, fast_target(server.port), delay=0.05)
    elapsed = time.monotonic() - start
    assert len(fp.observations) == 2
    assert elapsed >= 0.1  # two requests, 50 ms spacing each


def test_login_failure_refuses_scan(lab_factory):
    server = lab_factory(ServerScript(name="locked", pass_code=530))
    with pytest.raises(ScanRefusedError) as err:
        fingerprint_target(tiny_collection(), fast_target(server.port))
    assert err.value.pass_reply == of_code(530)


def test_late_reply_does_not_shift_alignment(lab_factory):
    # the empty SYST is answered 300 ms late; without a reconnect after the
    # timeout the scan read TMO, TMO, 215 here
    script = ServerScript(
        name="slow",
        rules=(Rule("SYST", "EMPTY", "DELAY", code=215, text="UNIX", delay_ms=300),
               Rule("SYST", "ANY", "REPLY", code=200, text="ok")),
    )
    collection = tiny_collection(commands=("SYST",), max_arg_len=2, mutations=0)
    assert [r.bytes == b"SYST" for r in collection.records] == [True, False, False]
    server = lab_factory(script)
    fp = fingerprint_target(collection, fast_target(server.port, reply_timeout=0.1))
    assert fp.observations == (ReplyObservation(TIMEOUT), of_code(200), of_code(200))
    assert server.connections == 2


def test_reconnect_exhaustion_aborts():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def one_connection_then_gone():
        conn, _ = listener.accept()
        file = conn.makefile("rb")
        conn.sendall(b"220 hi\r\n")
        file.readline()
        conn.sendall(b"331 user ok\r\n")
        file.readline()
        conn.sendall(b"230 in\r\n")
        file.readline()  # first fuzz request
        conn.close()     # drop it, and never accept again
        listener.close()

    thread = threading.Thread(target=one_connection_then_gone, daemon=True)
    thread.start()
    with pytest.raises(PartialScanError):
        fingerprint_target(tiny_collection(), fast_target(port))
    thread.join(timeout=2)


# --- segmented sessions ----------------------------------------------------------

class Responder:
    """A one-thread FTP responder on raw sockets.  After the login on a
    connection, `answer(n, line)` gives the reply to the n-th request (from
    0) on that connection, or None to drop the connection.  Every accepted
    connection is closed at once while `dead` is set."""

    def __init__(self, answer):
        self.answer = answer
        self.connections = 0
        self.dead = False
        self._listener = socket.create_server(("127.0.0.1", 0), backlog=64)
        self.port = self._listener.getsockname()[1]
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            for key, _ in self._selector.select(0.05):
                if key.fileobj is self._listener:
                    self._accept()
                else:
                    self._serve(key.fileobj, key.data)
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()

    def _accept(self):
        conn, _ = self._listener.accept()
        self.connections += 1
        if self.dead:
            conn.close()
            return
        conn.sendall(b"220 hi\r\n")
        self._selector.register(conn, selectors.EVENT_READ, {"buffer": b"", "count": -2})

    def _serve(self, conn, state):
        try:
            chunk = conn.recv(4096)
            state["buffer"] += chunk
            while chunk and b"\n" in state["buffer"]:
                line, _, state["buffer"] = state["buffer"].partition(b"\n")
                count = state["count"]
                state["count"] += 1
                if self.dead:
                    reply = None
                elif count < 0:  # USER, then PASS
                    reply = b"331 user ok" if count == -2 else b"230 logged in"
                else:
                    reply = self.answer(count, line.rstrip(b"\r"))
                if reply is None:
                    chunk = b""
                    break
                conn.sendall(reply + b"\r\n")
        except OSError:
            chunk = b""
        if not chunk:
            self._selector.unregister(conn)
            conn.close()

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


@pytest.fixture
def responder_factory():
    responders = []

    def start(answer):
        responders.append(Responder(answer))
        return responders[-1]

    yield start
    for responder in responders:
        responder.close()


def count_reply(n, line):
    """A stateful reply: the code grows with the requests seen on the connection."""
    return f"{200 + n} reply {n}".encode()


def body_of(fp: Fingerprint) -> bytes:
    return b"".join(line + b"\n" for line in serialize(fp).splitlines()
                    if not line.startswith(b"#"))


def test_segments_are_command_blocks():
    full = tiny_collection(commands=("NOOP", "SYST", "HELP"), max_arg_len=2, mutations=1)
    assert segment_length(full) == 6
    assert all(len({r.command for r in full.records[i:i + 6]}) == 1
               for i in range(0, len(full.records), 6))
    assert segment_length(build_collection(FuzzConfig())) == 170


def test_each_segment_starts_a_fresh_session(responder_factory):
    commands = DEFAULT_COMMANDS[:12]
    collection = tiny_collection(commands=commands, max_arg_len=2, mutations=1)
    step = segment_length(collection)
    expected = tuple(of_code(200 + i % step) for i in range(len(collection.records)))
    bodies = set()
    for sessions in (1, 8):
        responder = responder_factory(count_reply)
        fp = fingerprint_target(collection, fast_target(responder.port, sessions=sessions))
        assert fp.observations == expected
        assert responder.connections == len(commands)
        bodies.add(body_of(fp))
    assert len(bodies) == 1


def test_many_sessions_under_fast_thread_switching(responder_factory):
    collection = tiny_collection(commands=DEFAULT_COMMANDS, max_arg_len=1, mutations=2)
    step = segment_length(collection)
    responder = responder_factory(count_reply)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        fp = fingerprint_target(collection, fast_target(responder.port, sessions=32))
    finally:
        sys.setswitchinterval(interval)
    assert fp.observations == tuple(
        of_code(200 + i % step) for i in range(len(collection.records)))


def test_one_connection_per_segment(lab_factory):
    collection = tiny_collection(commands=("NOOP", "SYST", "HELP", "STAT", "FEAT"),
                                 max_arg_len=1, mutations=1)
    server = lab_factory(constant_script(code=200))
    fp = fingerprint_target(collection, fast_target(server.port, sessions=2))
    assert fp.observations == (of_code(200),) * len(collection.records)
    assert server.connections == 5


def test_target_death_stops_the_scan(responder_factory):
    collection = tiny_collection(commands=DEFAULT_COMMANDS[:12], max_arg_len=5,
                                 mutations=1)
    sessions = 2

    def dies_mid_segment(n, line):
        if n == 5:  # the sixth of twelve requests, on the first segment to get there
            responder.dead = True
            connections_at_death.append(responder.connections)
            return None
        return b"200 ok"

    connections_at_death = []
    responder = responder_factory(dies_mid_segment)
    threads_before = threading.active_count()
    with pytest.raises(PartialScanError):
        fingerprint_target(collection, fast_target(responder.port, sessions=sessions))
    assert threading.active_count() == threads_before
    # only the running segments try to reconnect; none of the ten waiting starts
    assert len(connections_at_death) == 1
    assert responder.connections - connections_at_death[0] <= sessions * RECONNECT_ATTEMPTS


# --- fingerprint files -----------------------------------------------------------

def sample_fingerprint(**overrides) -> Fingerprint:
    params = dict(
        collection_digest="ab" * 32,
        target="127.0.0.1:2121",
        observations=(of_code(220), ReplyObservation(TIMEOUT),
                      ReplyObservation(DROPPED), ReplyObservation(GARBLED),
                      of_code(500)),
        label="sample",
        greeting=of_code(220),
        login=(of_code(331), of_code(230)),
    )
    params.update(overrides)
    return Fingerprint(**params)


def serialize(fp: Fingerprint) -> bytes:
    buf = io.BytesIO()
    write_fingerprint(fp, buf)
    return buf.getvalue()


def test_fingerprint_tokens():
    text = serialize(sample_fingerprint()).decode("ascii")
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body == ["220", "TMO", "DRP", "GBL", "500"]


def test_fingerprint_headers():
    text = serialize(sample_fingerprint()).decode("ascii")
    lines = text.splitlines()
    assert lines[0] == "#fp-version 2"
    assert lines[1] == "#collection " + "ab" * 32
    assert lines[2] == "#target 127.0.0.1:2121"
    assert lines[3] == "#label sample"
    assert lines[4].startswith("#created ") and lines[4].endswith("Z")
    assert lines[5] == "#greeting 220"
    assert lines[6] == "#login 331,230"


def test_fingerprint_round_trip():
    fp = sample_fingerprint()
    assert read_fingerprint(io.BytesIO(serialize(fp))) == fp


def test_fingerprint_round_trip_without_label():
    fp = sample_fingerprint(label=None, login=(of_code(230),))
    assert read_fingerprint(io.BytesIO(serialize(fp))) == fp


@pytest.mark.parametrize("label", ["two\nlines", "cr\rhere", "caf\u00e9"])
def test_write_fingerprint_rejects_unreadable_label(label):
    with pytest.raises(ValueError, match="label"):
        serialize(sample_fingerprint(label=label))


def test_fingerprint_save_load(tmp_path):
    fp = sample_fingerprint()
    path = tmp_path / "x.fp"
    save_fingerprint(fp, path)
    assert load_fingerprint(path) == fp


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("TMO", "WAT"),
        lambda t: t.replace("#fp-version 2", "#fp-version 9"),
        lambda t: t.replace("#greeting 220\n", ""),
        lambda t: t.replace("#login 331,230", "#login 331,230,230"),
        lambda t: t.replace("500", "5000"),
        lambda t: t.replace("#collection " + "ab" * 32, "#collection abcd"),
        lambda t: t.replace("TMO", "T\u00e9O"),
        lambda t: t.replace("#target", "#surprise 1\n#target"),
        lambda t: t.replace("#created", "#label again\n#created"),
        # the header closes with #login; the tool never writes a header after it
        lambda t: t.replace("#greeting 220\n#login 331,230\n", "#login 331,230\n#greeting 220\n"),
    ],
)
def test_fingerprint_parse_errors(mangle):
    text = serialize(sample_fingerprint()).decode("ascii")
    mangled = mangle(text)
    with pytest.raises(ParseError) as err:
        read_fingerprint(io.BytesIO(mangled.encode("latin-1")))
    # every error names the first line the mangling changed
    changed = [a != b for a, b in zip(text.splitlines(), mangled.splitlines())]
    assert err.value.line_no == changed.index(True) + 1


def test_version_1_files_load_but_never_mix_with_version_2(tmp_path):
    text = serialize(sample_fingerprint()).decode("ascii")
    old_text = text.replace("#fp-version 2", "#fp-version 1")
    old = read_fingerprint(io.BytesIO(old_text.encode("ascii")))
    assert old.fp_version == 1 and sample_fingerprint().fp_version == 2
    assert serialize(old).decode("ascii") == old_text
    (tmp_path / "old.fp").write_text(old_text.replace("sample", "old"))
    (tmp_path / "new.fp").write_text(text)
    with pytest.raises(DatabaseError, match="rescan the older ones: old"):
        FingerprintDB.load(tmp_path)
