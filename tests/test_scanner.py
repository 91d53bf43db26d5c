from __future__ import annotations

import io
import socket
import threading

import pytest

from fingerfuzz.errors import ParseError, PartialScanError, ScanRefusedError
from fingerfuzz.fuzzgen import FuzzConfig, build_collection
from fingerfuzz.labserver import Rule, ServerScript
from fingerfuzz.scanner import (
    Fingerprint,
    fingerprint_target,
    load_fingerprint,
    read_fingerprint,
    save_fingerprint,
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
    assert lines[0] == "#fp-version 1"
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
        lambda t: t.replace("#fp-version 1", "#fp-version 9"),
        lambda t: t.replace("#greeting 220\n", ""),
        lambda t: t.replace("#login 331,230", "#login 331,230,230"),
        lambda t: t.replace("500", "5000"),
        lambda t: t.replace("#collection " + "ab" * 32, "#collection abcd"),
    ],
)
def test_fingerprint_parse_errors(mangle):
    text = serialize(sample_fingerprint()).decode("ascii")
    with pytest.raises(ParseError):
        read_fingerprint(io.BytesIO(mangle(text).encode("ascii")))
