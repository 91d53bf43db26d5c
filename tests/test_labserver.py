from __future__ import annotations

import hashlib
import logging
import os
import random
import select
import socket
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from fingerfuzz.errors import ParseError
from fingerfuzz.fuzzgen import build_collection
from fingerfuzz.labserver import (
    MAX_DELAY_MS,
    LabServer,
    LabSession,
    Rule,
    ServerScript,
    apply_rules,
    load_script,
    render_multiline,
    render_reply,
)
from fingerfuzz.scanner import fingerprint_target
from fingerfuzz.wire import DRP, MAX_SESSIONS, TMO

from conftest import (
    CONFORMANCE_CONFIG,
    CONFORMANCE_SESSIONS,
    constant_script,
    fast_target,
    lab_oracle,
    logged_in,
    random_script,
    save_script,
)

SCRIPT_TEXT = """\
# toy product emulation
name toy-ftpd
greeting 220 toy ready
login USER=331 PASS=230
rule NOOP LEN_GT:8 REPLY:500:argument too long
rule NOOP ANY REPLY:200:ok
rule FEAT ANY MULTI:211:extensions|end
rule QUIT ANY DROP
rule STAT NONPRINT REPLY:501:binary junk
rule CWD EMPTY REPLY:550:missing path
default 502 not implemented
"""


def test_load_minimal_script():
    script = load_script("name mini\ndefault 502 nope\n")
    assert script.name == "mini"
    assert script.greeting_code == 220
    assert script.user_code == 331 and script.pass_code == 230
    assert script.default_code == 502


def test_load_full_script():
    script = load_script(SCRIPT_TEXT)
    assert script.name == "toy-ftpd"
    assert script.greeting_code == 220
    assert len(script.rules) == 6
    assert script.rules[0] == Rule("NOOP", "LEN_GT:8", "REPLY:500:argument too long")
    assert script.rules[2] == Rule("FEAT", "ANY", "MULTI:211:extensions|end")


def test_script_round_trip():
    script = load_script(SCRIPT_TEXT)
    assert load_script(save_script(script)) == script


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("default 502 x\n", "name"),
        ("name a\n", "default"),
        ("name a\ndefault 099 x\n", "099"),
        ("name a\ndefault 502 x\ndefault 500 y\n", "duplicate"),
        ("name a\nrule NOOP ANY REPLY:700:x\ndefault 502 y\n", "700"),
        ("name a\nrule noop ANY DROP\ndefault 502 y\n", "noop"),
        ("name a\nrule NOOP WEIRD DROP\ndefault 502 y\n", "WEIRD"),
        ("name a\nrule NOOP ANY EXPLODE\ndefault 502 y\n", "EXPLODE"),
        ("name a\nrule NOOP LEN_GT:x DROP\ndefault 502 y\n", "LEN_GT"),
        ("name a\nwat 1\ndefault 502 y\n", "wat"),
        ("name a\nlogin USER=331\ndefault 502 y\n", "login"),
        ("name a\nrule SYST ANY DELAY:soon:215:x\ndefault 502 y\n", "DELAY"),
        ("name a\nrule SYST ANY DELAY:-5:215:x\ndefault 502 y\n", "DELAY"),
        ("name a\nrule SYST ANY DELAY:100:915:x\ndefault 502 y\n", "915"),
        ("name a\nrule NOOP ANY DELAY:99999999999999:200:late\ndefault 502 y\n",
         f"line 2: DELAY milliseconds .* must be at most {MAX_DELAY_MS}"),
        ("name a\nname b\ndefault 502 y\n", "line 2: duplicate name"),
        ("name a\ngreeting 220 x\ngreeting 421 busy\ndefault 502 y\n",
         "line 3: duplicate greeting"),
        ("name a\nlogin USER=331 PASS=230\ndefault 502 y\nlogin USER=230 PASS=230\n",
         "line 4: duplicate login"),
        ("name two words\ndefault 502 y\n", "line 1: name: must be a single non-empty word"),
        ("name a\ngreeting 220 a\rb\ndefault 502 y\n",
         "line 2: greeting: text must not contain line breaks"),
        ("name a\ndefault 502 a\rb\n", "line 2: default: text must not contain line breaks"),
    ],
)
def test_load_rejects_bad_scripts(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        load_script(text)


def test_readme_example_script_loads():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Script files", 1)[1]
    example = section.split("```\n", 2)[1]
    script = load_script(example)
    assert script.name == "toy-ftpd"
    assert save_script(script) == example


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        load_script("name a\ngreeting 0999 x\ndefault 502 y\n")
    assert err.value.line_no == 2


def test_lines_break_at_line_feeds_only():
    # str.splitlines also breaks at form feed, so this split into three lines
    assert load_script("name a\ndefault 502 x\x0cy\n").default_text == "x\x0cy"
    with pytest.raises(ParseError) as err:
        load_script("name a\ndefault 502 x\x0cy\x1cz\nwat 1\n")
    assert err.value.line_no == 3


def test_validate_reports_out_of_range_codes():
    with pytest.raises(ValueError, match="99"):
        ServerScript(name="bad", greeting_code=99)
    constant_script()  # a valid script constructs without error


def test_delay_rule_grammar():
    script = load_script("name d\nrule SYST ANY DELAY:150:215:UNIX: late\ndefault 502 no\n")
    assert script.rules[0] == Rule("SYST", "ANY", "DELAY:150:215:UNIX: late")
    assert load_script(save_script(script)) == script
    assert apply_rules(script, b"SYST") == ("DELAY", b"215 UNIX: late\r\n")
    with pytest.raises(ValueError, match="DELAY"):
        Rule("SYST", "ANY", "DELAY:-1:215:x")


def test_the_longest_delay_is_the_longest_thread_wait():
    # the server waits out a DELAY with Event.wait, which refuses more than TIMEOUT_MAX
    script = load_script(f"name d\nrule SYST ANY DELAY:{MAX_DELAY_MS}:215:late\ndefault 502 no\n")
    assert script.rules[0].response == ("DELAY", b"215 late\r\n", threading.TIMEOUT_MAX)
    with pytest.raises(ValueError, match=f"at most {MAX_DELAY_MS}"):
        Rule("SYST", "ANY", f"DELAY:{MAX_DELAY_MS + 1}:215:late")


# --- rule evaluation ----------------------------------------------------------

def test_first_matching_rule_wins():
    script = load_script(SCRIPT_TEXT)
    action, payload = apply_rules(script, b"NOOP 123456789")
    assert (action, payload) == ("REPLY", b"500 argument too long\r\n")
    action, payload = apply_rules(script, b"NOOP 12")
    assert (action, payload) == ("REPLY", b"200 ok\r\n")


def test_command_match_is_case_insensitive():
    script = load_script(SCRIPT_TEXT)
    action, payload = apply_rules(script, b"noop hi")
    assert payload == b"200 ok\r\n"


def test_nonprint_predicate():
    script = load_script(SCRIPT_TEXT)
    assert apply_rules(script, b"STAT a\x01b")[1] == b"501 binary junk\r\n"
    assert apply_rules(script, b"STAT ab")[1] == b"502 not implemented\r\n"


def test_empty_predicate():
    script = load_script(SCRIPT_TEXT)
    assert apply_rules(script, b"CWD")[1] == b"550 missing path\r\n"
    assert apply_rules(script, b"CWD /tmp")[1] == b"502 not implemented\r\n"


def test_unmatched_falls_to_default():
    script = load_script(SCRIPT_TEXT)
    assert apply_rules(script, b"XYZZY whatever")[0] == "DEFAULT"


def test_drop_and_silence_actions():
    script = load_script(SCRIPT_TEXT)
    assert apply_rules(script, b"QUIT") == ("DROP", None)
    quiet = ServerScript(name="q", rules=(Rule("REIN", "ANY", "SILENCE"),))
    assert apply_rules(quiet, b"REIN") == ("SILENCE", None)


def test_wildcard_rule():
    script = ServerScript(name="w", rules=(Rule("*", "ANY", "REPLY:421:go away"),))
    assert apply_rules(script, b"ANYTHING")[1] == b"421 go away\r\n"


def test_render_wire_format():
    assert render_reply(220, "hello") == b"220 hello\r\n"
    assert render_multiline(211, ("a", "b", "c")) == b"211-a\r\n211-b\r\n211 c\r\n"
    assert render_multiline(211, ("only",)) == b"211 only\r\n"


def test_every_scripted_reply_parses_to_its_code():
    # whatever a rule emits, the client-side recognizer reads the same code
    from fingerfuzz.wire import ReplyAccumulator

    script = load_script(SCRIPT_TEXT)
    probes = [b"NOOP 123456789", b"NOOP", b"FEAT", b"STAT \x01", b"CWD",
              b"UNKNOWN", b""]
    for request in probes:
        action, payload = apply_rules(script, request)
        if payload is None:
            continue
        acc = ReplyAccumulator()
        decision = acc.feed(payload)
        expected_code = int(payload[:3])
        assert decision == str(expected_code)


# --- one connection's session ---------------------------------------------------

def test_session_line_before_user_hits_rules_and_keeps_login():
    session = LabSession(load_script(SCRIPT_TEXT))
    assert session.greeting == b"220 toy ready\r\n"
    assert session.respond(b"NOOP") == ("REPLY", b"200 ok\r\n", 0.0)
    assert session.respond(b"user anonymous") == ("login USER 331", b"331 ok\r\n", 0.0)


def test_session_pass_before_user_hits_rules():
    session = LabSession(load_script(SCRIPT_TEXT))
    assert session.respond(b"PASS x") == ("DEFAULT", b"502 not implemented\r\n", 0.0)
    assert session.respond(b"USER u")[0] == "login USER 331"
    # awaiting PASS, a second USER goes to the rules as well
    assert session.respond(b"USER v")[0] == "DEFAULT"
    assert session.respond(b"PASS p") == ("login PASS 230", b"230 ok\r\n", 0.0)


def test_session_final_user_code_skips_pass():
    session = LabSession(ServerScript(name="open", user_code=230, default_code=502,
                                      default_text="nope"))
    assert session.respond(b"USER u") == ("login USER 230", b"230 ok\r\n", 0.0)
    assert session.respond(b"PASS p") == ("DEFAULT", b"502 nope\r\n", 0.0)


def test_session_user_after_login_hits_rules():
    session = LabSession(constant_script(code=502))
    session.respond(b"USER u")
    session.respond(b"PASS p")
    assert session.respond(b"USER again") == ("DEFAULT", b"502 nope\r\n", 0.0)


def test_session_delay_returns_its_delay():
    session = LabSession(load_script(
        "name slow\nrule SYST ANY DELAY:150:215:late\ndefault 502 no\n"))
    assert session.respond(b"SYST") == ("DELAY", b"215 late\r\n", 0.15)


def test_session_drop_and_silence_send_nothing():
    script = ServerScript(name="q", rules=(Rule("QUIT", "ANY", "DROP"),
                                           Rule("REIN", "ANY", "SILENCE")))
    session = LabSession(script)
    assert session.respond(b"QUIT") == ("DROP", None, 0.0)
    assert session.respond(b"REIN") == ("SILENCE", None, 0.0)


# --- live server behaviour ------------------------------------------------------

def raw_session(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=2)
    sock.settimeout(2)
    return sock


def read_line(sock: socket.socket) -> bytes:
    data = b""
    while not data.endswith(b"\n"):
        chunk = sock.recv(1)
        if not chunk:
            return data
        data += chunk
    return data


def test_serve_greeting_and_default(lab_factory):
    server = lab_factory(constant_script(code=502))
    sock = raw_session(server.port)
    assert read_line(sock) == b"220 service ready\r\n"
    sock.sendall(b"USER anonymous\r\n")
    assert read_line(sock) == b"331 ok\r\n"
    sock.sendall(b"PASS x\r\n")
    assert read_line(sock) == b"230 ok\r\n"
    sock.sendall(b"HELP\r\n")
    assert read_line(sock) == b"502 nope\r\n"
    sock.close()


def test_fuzzed_user_after_login_hits_rules(lab_factory):
    server = lab_factory(constant_script(code=502))
    sock = raw_session(server.port)
    read_line(sock)
    sock.sendall(b"USER a\r\nPASS b\r\n")
    read_line(sock)
    read_line(sock)
    sock.sendall(b"USER again\r\n")
    assert read_line(sock) == b"502 nope\r\n"
    sock.close()


def test_identical_request_sequences_get_identical_replies(lab_factory):
    script = load_script(SCRIPT_TEXT)
    server = lab_factory(script)
    requests = [b"NOOP 123456789", b"NOOP", b"FEAT x", b"CWD", b"STAT \x02",
                b"UNKNOWN", b"noop longer than eight"]

    def run():
        sock = raw_session(server.port)
        read_line(sock)
        sock.sendall(b"USER u\r\nPASS p\r\n")
        read_line(sock)
        read_line(sock)
        replies = []
        for request in requests:
            sock.sendall(request + b"\r\n")
            first = read_line(sock)
            if first.startswith(b"211-"):
                while not first.startswith(b"211 "):
                    first = read_line(sock)
            replies.append(first)
        sock.close()
        return replies

    assert run() == run()


def test_delay_rule_answers_late(lab_factory):
    import time

    server = lab_factory(load_script(
        "name slow\nrule SYST ANY DELAY:200:215:late\ndefault 502 no\n"))
    sock = raw_session(server.port)
    read_line(sock)
    sock.sendall(b"USER u\r\nPASS p\r\n")
    read_line(sock)
    read_line(sock)
    start = time.monotonic()
    sock.sendall(b"SYST\r\nNOOP\r\n")
    assert read_line(sock) == b"215 late\r\n"
    assert time.monotonic() - start >= 0.2
    assert read_line(sock) == b"502 no\r\n"  # later requests wait behind it
    sock.close()


def test_two_concurrent_connections(lab_factory):
    server = lab_factory(constant_script(code=502))
    a = raw_session(server.port)
    b = raw_session(server.port)
    assert read_line(a).startswith(b"220")
    assert read_line(b).startswith(b"220")
    a.sendall(b"USER x\r\n")
    b.sendall(b"USER y\r\n")
    assert read_line(a) == b"331 ok\r\n"
    assert read_line(b) == b"331 ok\r\n"
    a.close()
    b.close()


def test_every_session_of_a_scan_connects_at_once(lab_factory):
    # held at the lock after its first accept, the accept loop takes no
    # more: each other handshake completes only if the listen backlog holds
    # it, and a dropped SYN waits at least 1 s for its retransmit
    server = lab_factory(constant_script(code=502))
    socks = [socket.socket() for _ in range(MAX_SESSIONS)]
    try:
        with server._lock:
            poller = select.poll()
            for sock in socks:
                sock.setblocking(False)
                sock.connect_ex(("127.0.0.1", server.port))
                poller.register(sock, select.POLLOUT)
            pending = {sock.fileno(): sock for sock in socks}
            deadline = time.monotonic() + 0.3
            while pending and (left := deadline - time.monotonic()) > 0:
                for fd, _ in poller.poll(left * 1000):
                    assert pending[fd].getsockopt(socket.SOL_SOCKET, socket.SO_ERROR) == 0
                    poller.unregister(fd)
                    del pending[fd]
            assert not pending, f"{len(pending)} of {MAX_SESSIONS} handshakes pending"
    finally:
        for sock in socks:
            sock.close()


ORDER_SCRIPT = """\
name order
rule NOOP ANY REPLY:200:ok
rule SYST ANY REPLY:215:unix
default 502 no
"""


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r\r\n"])
@pytest.mark.parametrize("split", ["byte by byte", "one send", "line by line"])
def test_requests_are_answered_in_order_however_they_arrive(lab_factory, line_end, split):
    server = lab_factory(load_script(ORDER_SCRIPT))
    sock = raw_session(server.port)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    assert read_line(sock) == b"220 service ready\r\n"
    lines = [b"USER u", b"PASS p", b"NOOP", b"HELP", b"SYST x", b"NOOP"]
    data = b"".join(line + line_end for line in lines)
    pieces = {"byte by byte": [data[i:i + 1] for i in range(len(data))],
              "one send": [data],
              "line by line": [line + line_end for line in lines]}[split]
    for piece in pieces:
        sock.sendall(piece)
    replies = [read_line(sock) for _ in lines]
    assert replies == [b"331 ok\r\n", b"230 ok\r\n", b"200 ok\r\n", b"502 no\r\n",
                       b"215 unix\r\n", b"200 ok\r\n"]
    sock.close()


def test_a_last_line_without_line_feed_is_no_request(lab_factory):
    server = lab_factory(load_script(ORDER_SCRIPT))
    sock = raw_session(server.port)
    read_line(sock)
    sock.sendall(b"USER u\r\nNOOP")
    sock.shutdown(socket.SHUT_WR)
    assert read_line(sock) == b"331 ok\r\n"
    assert sock.recv(100) == b""  # the server closed without answering NOOP
    sock.close()
    server.stop()
    assert server.actions == Counter({"login USER 331": 1})
    assert server.connections == 1


def test_stop_ends_an_idle_and_a_waiting_connection_at_once(lab_factory, caplog):
    caplog.set_level(logging.DEBUG, logger="fingerfuzz.labserver")
    server = lab_factory(load_script("name slow\nrule SYST ANY DELAY:10000:215:late\n"
                                     "default 502 no\n"))
    idle, waiting = raw_session(server.port), raw_session(server.port)
    for sock in (idle, waiting):
        read_line(sock)
        sock.sendall(b"USER u\r\nPASS p\r\n")
        assert read_line(sock) == b"331 ok\r\n"
        assert read_line(sock) == b"230 ok\r\n"
    waiting.sendall(b"SYST\r\n")
    # the server logs a request after counting it and before its wait
    deadline = time.monotonic() + 5
    while not any(r.getMessage() == "slow b'SYST' -> DELAY" for r in caplog.records):
        assert time.monotonic() < deadline, "the server never read SYST"
        time.sleep(0.01)
    start = time.monotonic()
    server.stop()
    assert time.monotonic() - start < 1
    assert server.actions == Counter({"login USER 331": 2, "login PASS 230": 2, "DELAY": 1})
    for sock in (idle, waiting):
        assert sock.recv(100) == b""  # closed, and the late reply never sent
        sock.close()


def test_port_in_use_raises():
    holder = socket.socket()
    holder.bind(("127.0.0.1", 0))
    holder.listen(1)
    port = holder.getsockname()[1]
    with pytest.raises(OSError):
        LabServer(constant_script(), port=port).start()
    holder.close()


def test_invalid_script_rejected_at_start():
    with pytest.raises(ValueError):
        LabServer(ServerScript(name="bad", default_code=99))


# --- scans against random scripts ----------------------------------------------

# CI sweeps more seeds through this variable; tier-1 keeps a few
CONFORMANCE_SEEDS = int(os.environ.get("LAB_CONFORMANCE_SEEDS", "3"))


# sha256 prefixes of save_script(random_script(Random(seed))), seeds 0-39, as
# first drawn; a change to random_script must keep the scripts CI sweeps
RANDOM_SCRIPT_DIGESTS = (
    "59bca7806f1e9a1d", "991b5eea005857b8", "1d2129c660da4623", "23ccc206f6c0faa4",
    "98bba6d751581f18", "a85b4cd6eb347d92", "b6c27bf2191d69da", "f99f8afe7c02cfe9",
    "63221de3fdf23890", "eea1c935e73bb95e", "757d47238ad5aa1f", "7781ff268b9fc29a",
    "e2dadbb83d07695f", "9ecf61a746ce7297", "2e4bf15d4d155023", "f7280c71583897a3",
    "66eb24f50bfacbf0", "75190aeb798fdf2b", "976512288b283400", "e643837a656fcaef",
    "6050cdefeb818170", "4c478e446806b50b", "7a05d491293e2885", "8d9f32a54df64ed3",
    "4af12b6bf000f868", "d3a8bf89fb86f751", "a21af468a68d9e6c", "6fde394daaa64d9c",
    "e3eb6d2c90265931", "0e014bdecabbf6ad", "2b746283655269f9", "16a5cbdd05b8b7f0",
    "39e5ba920e526ffb", "2af7ef2b52da19cb", "97e60b0d0c36e438", "d110df136d39240b",
    "b59e8e66eea9526b", "8e48ac39a169808e", "50450518425fa156", "cec370f42b871946",
)


def test_random_scripts_are_pinned():
    digests = tuple(
        hashlib.sha256(save_script(random_script(random.Random(seed))).encode()).hexdigest()[:16]
        for seed in range(len(RANDOM_SCRIPT_DIGESTS))
    )
    assert digests == RANDOM_SCRIPT_DIGESTS


@pytest.mark.parametrize("sessions", CONFORMANCE_SESSIONS)
@pytest.mark.parametrize("seed", range(CONFORMANCE_SEEDS))
def test_scan_of_random_script_equals_session_oracle(seed, sessions, lab_factory):
    script = random_script(random.Random(seed))
    collection = build_collection(CONFORMANCE_CONFIG)
    server = lab_factory(script)
    fp = fingerprint_target(collection, fast_target(server.port, drain_window=0.002,
                                                    sessions=sessions))
    assert fp.observations == lab_oracle(script, collection), save_script(script)


# every action once or more on CONFORMANCE_CONFIG; the empty SYST stays silent
COUNTED_SCRIPT = """\
name counted
rule NOOP LEN_GT:1 DROP
rule NOOP ANY REPLY:200:ok
rule SYST EMPTY SILENCE
rule SYST ANY DELAY:5:215:late
rule FEAT ANY MULTI:211:a|b
default 500 no
"""


@pytest.mark.parametrize("sessions", (1, 4))
def test_server_counts_the_actions_of_a_scan(sessions, lab_factory):
    script = load_script(COUNTED_SCRIPT)
    collection = build_collection(CONFORMANCE_CONFIG)
    server = lab_factory(script)
    fingerprint_target(collection, fast_target(server.port, drain_window=0.002,
                                               sessions=sessions))
    server.stop()
    # a login opens every run, and the rest of a run after a DRP or TMO
    tokens = lab_oracle(script, collection)
    block = collection.config.block_length
    logins = sum(i % block == 0 or tokens[i - 1] in (DRP, TMO) for i in range(len(tokens)))
    session = logged_in(script)  # past the login, a reply depends on the line alone
    expected = Counter(session.respond(record.bytes)[0] for record in collection.records)
    expected.update({"login USER 331": logins, "login PASS 230": logins})
    assert set(expected) == {"REPLY", "MULTI", "DROP", "SILENCE", "DELAY", "DEFAULT",
                             "login USER 331", "login PASS 230"}
    assert server.actions == expected
    assert server.connections == logins
