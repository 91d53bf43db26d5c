from __future__ import annotations

import socket

import pytest

from fingerfuzz.errors import ParseError
from fingerfuzz.labserver import (
    LabServer,
    Rule,
    ServerScript,
    apply_rules,
    load_script,
    render_multiline,
    render_reply,
    save_script,
    serve,
)

from conftest import constant_script

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
    assert script.rules[0] == Rule("NOOP", "LEN_GT", "REPLY", length_gt=8,
                                   code=500, text="argument too long")
    assert script.rules[2].lines == ("extensions", "end")


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
    ],
)
def test_load_rejects_bad_scripts(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        load_script(text)


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
    assert script.rules[0] == Rule("SYST", "ANY", "DELAY", code=215,
                                   text="UNIX: late", delay_ms=150)
    assert load_script(save_script(script)) == script
    assert apply_rules(script, b"SYST") == ("DELAY", b"215 UNIX: late\r\n")
    with pytest.raises(ValueError, match="DELAY"):
        Rule("SYST", "ANY", "DELAY", code=215, delay_ms=-1)


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
    script = ServerScript(name="w", rules=(Rule("*", "ANY", "REPLY", code=421,
                                                text="go away"),))
    assert apply_rules(script, b"ANYTHING")[1] == b"421 go away\r\n"


def test_render_wire_format():
    assert render_reply(220, "hello") == b"220 hello\r\n"
    assert render_multiline(211, ("a", "b", "c")) == b"211-a\r\n211-b\r\n211 c\r\n"
    assert render_multiline(211, ("only",)) == b"211 only\r\n"


def test_every_scripted_reply_parses_to_its_code():
    # whatever a rule emits, the client-side recognizer reads the same code
    from fingerfuzz.wire import ReplyAccumulator, of_code

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
        assert decision == of_code(expected_code)


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


def test_port_in_use_raises():
    holder = socket.socket()
    holder.bind(("127.0.0.1", 0))
    holder.listen(1)
    port = holder.getsockname()[1]
    with pytest.raises(OSError):
        serve(constant_script(), port=port)
    holder.close()


def test_invalid_script_rejected_at_start():
    with pytest.raises(ValueError):
        LabServer(ServerScript(name="bad", default_code=99))
