from __future__ import annotations

import io
import logging
import threading

import pytest

from fingerfuzz.errors import (
    DatabaseError,
    ParseError,
    PartialScanError,
    ScanRefusedError,
    TransportError,
)
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
from fingerfuzz.wire import BY_TOKEN, DEFAULT_SESSIONS, DRP, GBL, TMO, FtpSession

from conftest import (
    ALL_TOKENS,
    FAST_REPLY_TIMEOUT,
    HEADER_ORDERS,
    constant_script,
    fast_target,
    layout,
    predict_token,
    reorder_header,
    sim_target,
)
from simnet import codes, counted, raw_peer, shrinks, wait_for_connections


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
            Rule("NOOP", "LEN_GT:0", "REPLY:500:arg"),
            Rule("NOOP", "ANY", "REPLY:200:ok"),
            Rule("SYST", "ANY", "REPLY:215:UNIX"),
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
        rules=(Rule("NOOP", "NONPRINT", "REPLY:501:junk"),
               Rule("NOOP", "ANY", "REPLY:200:ok")),
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
    fp = fingerprint_target(collection, fast_target(server.port, delay=0.05))
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
        rules=(Rule("SYST", "EMPTY", "DELAY:300:215:UNIX"),
               Rule("SYST", "ANY", "REPLY:200:ok")),
    )
    collection = tiny_collection(commands=("SYST",), max_arg_len=2, mutations=0)
    assert [r.bytes == b"SYST" for r in collection.records] == [True, False, False]
    server = lab_factory(script)
    fp = fingerprint_target(collection, fast_target(server.port, reply_timeout=0.1))
    assert fp.observations == (TMO, "200", "200")
    assert server.connections == 2


# --- segmented sessions ----------------------------------------------------------

def test_segments_are_command_blocks():
    full = tiny_collection(commands=("NOOP", "SYST", "HELP"), max_arg_len=2, mutations=1)
    assert full.config.block_length == 6
    # every base of block i is the i-th command
    for i in range(0, len(full.records), 6):
        command = full.config.commands[i // 6].encode()
        for base in full.records[i:i + 6:2]:
            assert base.bytes.split(b" ")[0] == command
    assert FuzzConfig().block_length == 170


def test_one_connection_per_segment(lab_factory):
    collection = tiny_collection(commands=("NOOP", "SYST", "HELP", "STAT", "FEAT"),
                                 max_arg_len=1, mutations=1)
    server = lab_factory(constant_script(code=200))
    fp = fingerprint_target(collection, fast_target(server.port, sessions=2))
    assert fp.observations == ("200",) * len(collection.records)
    assert server.connections == 5


# --- the session pool on the simulated network of tests/simnet.py ---------------

def test_reply_cut_off_by_the_timeout_does_not_shift_alignment(simulate):
    # The first reply stops short of its line end, and its tail comes after
    # the reply timeout.  Read on the same connection, the tail would answer
    # request 1 (GBL, GBL, 202, 203, 204), and the reply to request 1 would
    # be lost.
    def cut_off_first(n, line):
        if net.connections == 1 and n == 0:
            return [(0.0, b"200 par"), (FAST_REPLY_TIMEOUT + 0.15, b"tial\r\n")]
        return counted(n, line)
    net = simulate(raw_peer(cut_off_first))
    collection = tiny_collection(max_arg_len=4, mutations=0)
    assert len(collection.records) == collection.config.block_length == 5
    fp = fingerprint_target(collection, sim_target(1))
    assert fp.observations == (GBL, "200", "201", "202", "203")
    assert net.connections == 2 and net.sent_once(collection)


@pytest.mark.parametrize("failures", [RECONNECT_ATTEMPTS - 1, RECONNECT_ATTEMPTS])
@pytest.mark.parametrize("sessions", [1, 4])
def test_transport_failures_resend_the_request_on_a_fresh_login(simulate, monkeypatch,
                                                                 sessions, failures):
    # the session fails as wire does on a local send error: it closes, then raises
    collection = tiny_collection(commands=DEFAULT_COMMANDS[:4], max_arg_len=2, mutations=1)
    step = collection.config.block_length
    chosen = collection.records[step + 2]
    assert [r.bytes for r in collection.records].count(chosen.bytes) == 1
    exchange = FtpSession.exchange
    left = [failures]

    def fails_locally(session, request):
        if request == chosen.bytes and left[0]:
            left[0] -= 1
            session.close()
            raise TransportError("send failed: injected")
        return exchange(session, request)

    monkeypatch.setattr(FtpSession, "exchange", fails_locally)
    net = simulate(raw_peer(counted))
    if failures == RECONNECT_ATTEMPTS:
        threads_before = threading.active_count()
        with pytest.raises(PartialScanError) as err:
            fingerprint_target(collection, sim_target(sessions))
        assert str(err.value) == (f"request {chosen.index} to 127.0.0.1:21 failed "
                                  f"{RECONNECT_ATTEMPTS} times: send failed: injected")
        assert threading.active_count() == threads_before
        return
    fp = fingerprint_target(collection, sim_target(sessions))
    # the chosen request and the rest of its run go out on a fresh login
    assert list(fp.observations) == codes(collection, fresh={chosen.index})
    assert net.connections == len(collection.records) // step + failures
    assert net.sent_once(collection)


def body_of(fp: Fingerprint) -> bytes:
    return b"".join(line + b"\n" for line in serialize(fp).splitlines()
                    if not line.startswith(b"#"))


@pytest.mark.parametrize("sessions,limit", [(DEFAULT_SESSIONS, 1), (4, 3),
                                           (DEFAULT_SESSIONS, 4)])
def test_capped_target_shrinks_the_pool(simulate, caplog, sessions, limit):
    # a capped target gives the fingerprint body of an uncapped one scanned
    # on one session
    collection = tiny_collection(commands=DEFAULT_COMMANDS[:9], max_arg_len=1, mutations=1)
    simulate(raw_peer(counted))
    reference = fingerprint_target(collection, sim_target(1))
    net = simulate(raw_peer(counted), limit=limit,
                   on_send=lambda line: wait_for_connections(net, sessions, line))
    threads_before = threading.active_count()
    with caplog.at_level(logging.WARNING, logger="fingerfuzz.scanner"):
        fp = fingerprint_target(collection, sim_target(sessions))
    assert threading.active_count() == threads_before
    assert body_of(fp) == body_of(reference)
    assert net.sent_once(collection)
    assert shrinks(caplog) == list(range(sessions - 1, limit - 1, -1))
    # one login per run, and one refused connect per shrink
    assert net.connections == len(DEFAULT_COMMANDS[:9]) + sessions - limit


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


@pytest.mark.parametrize("order", HEADER_ORDERS)
def test_fingerprint_header_lines_read_back_in_any_order(order):
    fp = sample_fingerprint()
    assert read_fingerprint(io.BytesIO(reorder_header(serialize(fp), b"login", order))) == fp


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


@pytest.mark.parametrize("target", ["t\n#label x", "cr\rhere", "caf\u00e9"])
def test_write_fingerprint_rejects_unreadable_target(target):
    # "t\n#label x" would read back with the label "x"
    with pytest.raises(ValueError, match="target must be ASCII without CR or LF"):
        serialize(sample_fingerprint(target=target))


@pytest.mark.parametrize("digest", ["abc", "AB" * 32, "ab" * 33, ""])
def test_write_fingerprint_rejects_unreadable_digest(digest):
    with pytest.raises(ValueError, match="collection digest"):
        serialize(sample_fingerprint(collection_digest=digest))


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
