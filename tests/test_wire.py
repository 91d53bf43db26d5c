from __future__ import annotations

import math
import random
import threading

import pytest

from fingerfuzz.errors import ConnectError, LoginError
from fingerfuzz.labserver import Rule, ServerScript
from fingerfuzz.wire import (
    BY_TOKEN,
    DRP,
    GBL,
    TMO,
    ReplyAccumulator,
    ReplyObservation,
    TargetSpec,
    connect,
)

from conftest import ALL_TOKENS, constant_script, fast_target


# --- observation tokens -------------------------------------------------------

def test_tokens_round_trip():
    for token in ALL_TOKENS:
        shared = ReplyObservation.from_token(token)
        assert isinstance(shared, ReplyObservation)
        assert shared.token() == token
        assert ReplyObservation.from_token(shared.token()) is shared  # one per token
    assert (TMO, DRP, GBL) == ("TMO", "DRP", "GBL")


def test_observation_is_its_plain_token():
    for token in ("100", "220", "599", "TMO", "DRP", "GBL"):
        for obs in (ReplyObservation.from_token(token), ReplyObservation(token)):
            assert obs == token and token == obs
            assert hash(obs) == hash(token)
            assert {token: 1}[obs] == 1 and {obs: 1}[token] == 1


@pytest.mark.parametrize("bad", ["", "22", "2200", "099", "600", "abc", "tmo"])
def test_bad_tokens_rejected(bad):
    with pytest.raises(ValueError):
        ReplyObservation.from_token(bad)


def test_code_range_enforced():
    assert sorted(BY_TOKEN) == sorted(ALL_TOKENS)  # 100..599 and three sentinels
    for code in (0, 99, 600, 999):
        with pytest.raises(ValueError):
            ReplyObservation.from_token(f"{code:03d}")


# --- reply accumulator ---------------------------------------------------------

def feed_all(data: bytes, chunk_size: int = 4096):
    acc = ReplyAccumulator()
    for i in range(0, len(data), chunk_size):
        decision = acc.feed(data[i : i + chunk_size])
        if decision is not None:
            return decision
    return acc.finish_timeout()


def test_single_line_reply():
    assert feed_all(b"500 Syntax error\r\n") == "500"


def test_bare_code_line():
    assert feed_all(b"220\r\n") == "220"


def test_multiline_reply():
    assert feed_all(b"211-features\r\n211 end\r\n") == "211"


def test_multiline_with_digit_interior():
    data = b"211-first\r\n212 not the end\r\n211-still open\r\n211 end\r\n"
    assert feed_all(data) == "211"


def test_multiline_needs_matching_closer():
    acc = ReplyAccumulator()
    assert acc.feed(b"211-open\r\n500 other\r\n") is None
    assert acc.feed(b"211 done\r\n") == "211"


def test_garbled_greeting():
    assert feed_all(b"hello\r\n") == GBL


def test_code_out_of_range_is_garbled():
    assert feed_all(b"600 nope\r\n") == GBL
    assert feed_all(b"099 nope\r\n") == GBL


def test_code_without_separator_is_garbled():
    assert feed_all(b"200x\r\n") == GBL


def test_lf_only_line_accepted():
    assert feed_all(b"230 ok\n") == "230"


def test_no_bytes_is_timeout():
    acc = ReplyAccumulator()
    assert acc.feed(b"") is None
    assert acc.finish_timeout() == TMO


def test_partial_bytes_then_deadline_is_garbled():
    acc = ReplyAccumulator()
    assert acc.feed(b"220 almost") is None
    assert acc.finish_timeout() == GBL


def test_eof_is_dropped():
    acc = ReplyAccumulator()
    acc.feed(b"220 part")
    assert acc.finish_eof() == DRP


def test_oversized_garbage_is_garbled():
    acc = ReplyAccumulator()
    decision = None
    junk = b"x" * 4096
    for _ in range(64):
        decision = acc.feed(junk)
        if decision is not None:
            break
    assert decision == GBL


def test_chunked_delivery_matches_single_shot():
    data = b"211-hello\r\n211 done\r\n"
    assert feed_all(data, chunk_size=1) == "211"


def test_code_fidelity_for_every_code():
    for code in range(100, 600):
        reply = f"{code} some text\r\n".encode()
        assert feed_all(reply) is BY_TOKEN[str(code)]
        multi = f"{code}-first\r\n{code} last\r\n".encode()
        assert feed_all(multi) is BY_TOKEN[str(code)]


def test_accumulator_never_raises_on_random_bytes():
    chooser = random.Random(99)
    for _ in range(2000):
        stream = bytes(chooser.randint(0, 255) for _ in range(chooser.randint(0, 80)))
        obs = feed_all(stream, chunk_size=7)
        assert obs is BY_TOKEN.get(obs)  # a shared, valid observation


# --- target parameters -----------------------------------------------------------

def test_target_defaults():
    target = TargetSpec("ftp.example.org")
    assert target.port == 21
    assert target.username == "anonymous"
    assert target.password == "guest@example.com"
    assert target.reply_timeout == 5.0
    assert target.drain_window == 0.2
    assert target.connect_timeout == 10.0
    assert target.sessions == 4
    assert target.descriptor == "ftp.example.org:21"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(port=0),
        dict(port=70000),
        dict(reply_timeout=0),
        dict(drain_window=0),
        dict(connect_timeout=-1),
        dict(drain_window=6.0),  # >= reply_timeout
        dict(sessions=0),
        dict(sessions=33),
        # no socket or thread waits this long, or NaN seconds
        dict(reply_timeout=math.nan),
        dict(reply_timeout=math.inf),
        dict(reply_timeout=threading.TIMEOUT_MAX * 2),
        dict(drain_window=math.nan),
        dict(connect_timeout=math.nan),
        dict(connect_timeout=1e300),
    ],
)
def test_target_validation(kwargs):
    with pytest.raises(ValueError, match="|".join(kwargs)):
        TargetSpec("h", **kwargs)


def test_target_takes_the_longest_wait():
    target = TargetSpec("h", reply_timeout=threading.TIMEOUT_MAX,
                        connect_timeout=threading.TIMEOUT_MAX)
    assert target.reply_timeout == threading.TIMEOUT_MAX


# --- live sessions against the lab responder ------------------------------------

def test_connect_reads_greeting(lab_factory):
    server = lab_factory(ServerScript(name="greeter", greeting_code=220,
                                      greeting_text="ok"))
    session = connect(fast_target(server.port))
    assert session.greeting == "220"
    session.close()


def test_connect_refused():
    # grab a port and close it again so nothing listens there
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ConnectError):
        connect(fast_target(port))


def test_login_user_pass_flow(lab_factory):
    server = lab_factory(constant_script())
    session = connect(fast_target(server.port))
    user_reply, pass_reply = session.login()
    assert user_reply == "331"
    assert pass_reply == "230"
    session.close()


def test_login_direct_success_skips_pass(lab_factory):
    server = lab_factory(ServerScript(name="open", user_code=230))
    session = connect(fast_target(server.port))
    user_reply, pass_reply = session.login()
    assert user_reply == "230"
    assert pass_reply is None
    session.close()


def test_login_rejection_raises(lab_factory):
    server = lab_factory(ServerScript(name="locked", pass_code=530))
    session = connect(fast_target(server.port))
    with pytest.raises(LoginError) as err:
        session.login()
    assert err.value.user_reply == "331"
    assert err.value.pass_reply == "530"
    session.close()


def test_exchange_constant_reply(lab_factory):
    server = lab_factory(constant_script(code=502))
    session = connect(fast_target(server.port))
    session.login()
    assert session.exchange(b"NOOP") == "502"
    assert session.exchange(b"anything at all") == "502"
    session.close()


def test_exchange_multiline(lab_factory):
    script = ServerScript(
        name="multi",
        rules=(Rule("FEAT", "ANY", "MULTI", code=211, lines=("features", "end")),),
    )
    server = lab_factory(script)
    session = connect(fast_target(server.port))
    session.login()
    assert session.exchange(b"FEAT") == "211"
    session.close()


def test_exchange_drop(lab_factory):
    script = ServerScript(name="dropper", rules=(Rule("QUIT", "ANY", "DROP"),))
    server = lab_factory(script)
    session = connect(fast_target(server.port))
    session.login()
    assert session.exchange(b"QUIT now") == DRP
    assert not session.alive
    session.close()


def test_exchange_silence_times_out(lab_factory):
    script = ServerScript(name="quiet", rules=(Rule("REIN", "ANY", "SILENCE"),))
    server = lab_factory(script)
    session = connect(fast_target(server.port))
    session.login()
    assert session.exchange(b"REIN") == TMO
    # connection still open: the next request gets the default reply
    assert session.exchange(b"NOOP") == "502"
    session.close()


def test_exchange_rejects_line_breaks(lab_factory):
    server = lab_factory(constant_script())
    session = connect(fast_target(server.port))
    with pytest.raises(ValueError):
        session.exchange(b"NOOP\r\nQUIT")
    session.close()


def test_drain_swallows_spontaneous_extra_line():
    """A reply followed by a late extra line must not shift alignment."""
    import socket
    import threading
    import time

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def serve_once():
        conn, _ = listener.accept()
        conn.sendall(b"220 hi\r\n")
        file = conn.makefile("rb")
        file.readline()  # USER
        conn.sendall(b"230 ok\r\n")
        file.readline()  # first probe
        conn.sendall(b"200 first\r\n")
        time.sleep(0.05)
        conn.sendall(b"200 spontaneous\r\n")  # inside the drain window
        file.readline()  # second probe
        conn.sendall(b"451 second\r\n")
        conn.close()

    thread = threading.Thread(target=serve_once, daemon=True)
    thread.start()
    session = connect(fast_target(port, drain_window=0.15, reply_timeout=0.6))
    session.login()
    assert session.exchange(b"NOOP a") == "200"
    assert session.exchange(b"NOOP b") == "451"
    session.close()
    listener.close()
