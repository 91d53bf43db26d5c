from __future__ import annotations

import io
import logging
import selectors
import socket
import sys
import threading
from collections import Counter

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
    write_fingerprint,
)
from fingerfuzz.wire import BY_TOKEN, DEFAULT_SESSIONS, DRP, GBL, TMO

from conftest import ALL_TOKENS, constant_script, fast_target, layout


def predict_token(script: ServerScript, request: bytes) -> str:
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
            return DRP
        if rule.action == "SILENCE":
            return TMO
        return str(rule.code)
    return str(script.default_code)


def tiny_collection(commands=("NOOP",), max_arg_len=1, mutations=1, seed=7):
    return build_collection(
        FuzzConfig(commands=commands, max_arg_len=max_arg_len, instances=1,
                   mutations=mutations, seed=seed)
    )


def test_constant_script_yields_constant_vector(lab_factory):
    collection = tiny_collection()
    server = lab_factory(constant_script(code=502))
    fp = fingerprint_target(collection, fast_target(server.port), label="const")
    assert fp.observations == ("502",) * 4
    assert fp.collection_digest == collection.digest
    assert fp.label == "const"
    assert fp.greeting == "220"
    assert fp.login == ("331", "230")
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
        if layout(collection.config, record.index)[0] == "QUIT":
            assert obs == DRP
        else:
            assert obs == "257"


def test_silence_rule_records_timeouts(lab_factory):
    script = ServerScript(name="quiet", rules=(Rule("REIN", "ANY", "SILENCE"),),
                          default_code=200)
    collection = tiny_collection(commands=("REIN", "NOOP"), mutations=0)
    server = lab_factory(script)
    fp = fingerprint_target(collection, fast_target(server.port))
    expected = tuple(
        TMO if layout(collection.config, r.index)[0] == "REIN" else "200"
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
    assert err.value.pass_reply == "530"


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
    assert fp.observations == (TMO, "200", "200")
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
    connection is closed at once while `dead` is set.  Like a server that
    caps connections per address, it greets a connection beyond `limit`
    open ones, or one of the next `refusals`, with 421 and closes it.
    Other connections get `greeting` (None: no greeting at all).
    `requests` holds every request line received after a login."""

    def __init__(self, answer, limit=None, greeting=b"220 hi"):
        self.answer = answer
        self.limit = limit
        self.greeting = greeting
        self.refusals = 0
        self.connections = 0
        self.requests = []
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
        already_open = len(self._selector.get_map()) - 1
        if self.refusals or (self.limit is not None and already_open >= self.limit):
            self.refusals = max(0, self.refusals - 1)
            conn.sendall(b"421 too many connections\r\n")
            conn.close()
            return
        if self.greeting is not None:
            conn.sendall(self.greeting + b"\r\n")
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
                    self.requests.append(line.rstrip(b"\r"))
                    reply = self.answer(count, self.requests[-1])
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

    def start(answer, limit=None, greeting=b"220 hi"):
        responders.append(Responder(answer, limit, greeting))
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
    assert full.config.block_length == 6
    # every base of block i is the i-th command
    for i in range(0, len(full.records), 6):
        command = full.config.commands[i // 6].encode()
        for base in full.records[i:i + 6:2]:
            assert base.bytes.split(b" ")[0] == command
    assert FuzzConfig().block_length == 170


def test_each_segment_starts_a_fresh_session(responder_factory):
    commands = DEFAULT_COMMANDS[:12]
    collection = tiny_collection(commands=commands, max_arg_len=2, mutations=1)
    step = collection.config.block_length
    expected = tuple(str(200 + i % step) for i in range(len(collection.records)))
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
    step = collection.config.block_length
    responder = responder_factory(count_reply)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        fp = fingerprint_target(collection, fast_target(responder.port, sessions=32))
    finally:
        sys.setswitchinterval(interval)
    assert fp.observations == tuple(
        str(200 + i % step) for i in range(len(collection.records)))


def test_one_connection_per_segment(lab_factory):
    collection = tiny_collection(commands=("NOOP", "SYST", "HELP", "STAT", "FEAT"),
                                 max_arg_len=1, mutations=1)
    server = lab_factory(constant_script(code=200))
    fp = fingerprint_target(collection, fast_target(server.port, sessions=2))
    assert fp.observations == ("200",) * len(collection.records)
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


# --- targets that cap connections per address ------------------------------------

def shrinks(caplog, port) -> list[int]:
    """The sessions left after each shrink the pool logged."""
    lefts = []
    for record in caplog.records:
        assert record.name == "fingerfuzz.scanner" and record.levelname == "WARNING"
        assert record.getMessage().startswith(f"127.0.0.1:{port} refused a new session")
        lefts.append(int(record.getMessage().split("scanning on with ")[1].split(":")[0]))
    assert lefts == sorted(lefts, reverse=True)
    return lefts


def sent_once(responder, collection) -> bool:
    return Counter(responder.requests) == Counter(r.bytes for r in collection.records)


@pytest.mark.parametrize("sessions,limit", [(DEFAULT_SESSIONS, 1), (4, 3)])
def test_capped_target_shrinks_the_pool(responder_factory, caplog, sessions, limit):
    collection = tiny_collection(commands=DEFAULT_COMMANDS[:9], max_arg_len=1, mutations=1)
    step = collection.config.block_length
    uncapped = responder_factory(count_reply)
    reference = fingerprint_target(collection, fast_target(uncapped.port, sessions=1))
    capped = responder_factory(count_reply, limit=limit)
    threads_before = threading.active_count()
    with caplog.at_level(logging.WARNING, logger="fingerfuzz.scanner"):
        fp = fingerprint_target(collection, fast_target(capped.port, sessions=sessions))
    assert threading.active_count() == threads_before
    assert fp.observations == tuple(str(200 + i % step)
                                    for i in range(len(collection.records)))
    assert body_of(fp) == body_of(reference)
    assert sent_once(capped, collection)
    lefts = shrinks(caplog, capped.port)
    assert lefts and lefts[-1] <= limit


def test_refused_reconnect_after_a_drop_hands_the_rest_back(responder_factory, caplog):
    collection = tiny_collection(commands=("NOOP", "SYST"), max_arg_len=3, mutations=1)
    step = collection.config.block_length

    def drops_third_syst(n, line):
        if line.startswith(b"SYST") and n == 2:
            responder.refusals = 1  # the reconnect that follows
            return None
        return b"200 ok"

    responder = responder_factory(drops_third_syst)
    with caplog.at_level(logging.WARNING, logger="fingerfuzz.scanner"):
        fp = fingerprint_target(collection, fast_target(responder.port, sessions=2))
    expected = ["200"] * len(collection.records)
    expected[step + 2] = DRP
    assert fp.observations == tuple(expected)
    assert sent_once(responder, collection)
    assert shrinks(caplog, responder.port) == [1]
    # two logins, the run left over after the drop, and the refused attempt
    assert responder.connections == 4


def test_refusal_on_the_last_queued_run(responder_factory, caplog):
    # the other session has seen the queue empty and waits while the run is
    # held; it must still take the handed-back rest instead of leaving
    collection = tiny_collection(commands=("NOOP", "SYST", "HELP"), max_arg_len=3,
                                 mutations=1)
    step = collection.config.block_length
    last = collection.config.commands[-1].encode()

    def drops_late_in_last_run(n, line):
        if line.startswith(last) and n == step - 2:
            responder.refusals = 1
            return None
        return b"200 ok"

    responder = responder_factory(drops_late_in_last_run)
    with caplog.at_level(logging.WARNING, logger="fingerfuzz.scanner"):
        fp = fingerprint_target(collection, fast_target(responder.port, sessions=2))
    expected = ["200"] * len(collection.records)
    expected[-2] = DRP
    assert fp.observations == tuple(expected)
    assert sent_once(responder, collection)
    assert shrinks(caplog, responder.port) == [1]


def test_many_sessions_against_a_cap_under_fast_thread_switching(responder_factory,
                                                                   caplog):
    collection = tiny_collection(commands=DEFAULT_COMMANDS, max_arg_len=1, mutations=2)
    step = collection.config.block_length
    responder = responder_factory(count_reply, limit=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with caplog.at_level(logging.WARNING, logger="fingerfuzz.scanner"):
            fp = fingerprint_target(collection, fast_target(responder.port, sessions=32))
    finally:
        sys.setswitchinterval(interval)
    assert fp.observations == tuple(
        str(200 + i % step) for i in range(len(collection.records)))
    assert sent_once(responder, collection)
    assert shrinks(caplog, responder.port)[-1] <= 3


def test_refused_first_connection_names_target_and_greeting(responder_factory):
    responder = responder_factory(count_reply, limit=0)
    with pytest.raises(ScanRefusedError) as err:
        fingerprint_target(tiny_collection(), fast_target(responder.port))
    assert str(err.value) == f"127.0.0.1:{responder.port} refused the connection (greeting 421)"
    assert responder.connections == 1


@pytest.mark.parametrize("greeting, token", [(None, "TMO"), (b"hello there", "GBL")])
def test_greeting_without_a_code_is_no_refusal(responder_factory, greeting, token):
    # sentinel tokens sort after "400" as strings; only a 4xx or 5xx code refuses
    responder = responder_factory(count_reply, greeting=greeting)
    collection = tiny_collection()
    fp = fingerprint_target(collection, fast_target(responder.port, sessions=1))
    assert fp.greeting == token
    assert fp.observations == tuple(
        str(200 + i % collection.config.block_length) for i in range(len(collection.records)))


# --- fingerprint files -----------------------------------------------------------

def sample_fingerprint(**overrides) -> Fingerprint:
    params = dict(
        collection_digest="ab" * 32,
        target="127.0.0.1:2121",
        observations=("220", TMO, DRP, GBL, "500"),
        label="sample",
        greeting="220",
        login=("331", "230"),
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


def test_every_token_survives_a_file_round_trip():
    # plain strings in, the shared observations out
    fp = sample_fingerprint(observations=ALL_TOKENS, greeting="421", login=("TMO", "599"))
    back = read_fingerprint(io.BytesIO(serialize(fp)))
    assert back == fp
    for obs in (back.greeting, *back.login, *back.observations):
        assert obs is BY_TOKEN[obs]


@pytest.mark.parametrize("bad", ["20", "2000", "", "x"])
def test_write_fingerprint_rejects_non_tokens(bad):
    for fields in (dict(observations=("200", bad)), dict(greeting=bad), dict(login=(bad,))):
        with pytest.raises(ValueError, match="token"):
            serialize(sample_fingerprint(**fields))


def test_fingerprint_round_trip_without_label():
    fp = sample_fingerprint(label=None, login=("230",))
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
        # body lines that are not one of the 503 tokens; the tool writes no blank line
        lambda t: t.replace("\nDRP\n", "\n099\n"),
        lambda t: t.replace("\nDRP\n", "\n600\n"),
        lambda t: t.replace("\nDRP\n", "\n20\n"),
        lambda t: t.replace("\nDRP\n", "\n2000\n"),
        lambda t: t.replace("\nTMO\n", "\ntmo\n"),
        lambda t: t.replace("\nDRP\n", "\n 20\n"),
        lambda t: t.replace("\nDRP\n", "\n\nDRP\n"),
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
