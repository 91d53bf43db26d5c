from __future__ import annotations

import hashlib
import json
import logging
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from fingerfuzz.cli import UsageError, _parse_host_port, main
from fingerfuzz.errors import IntegrityError
from fingerfuzz.fuzzgen import FuzzConfig, build_collection, load_collection, save_collection
from fingerfuzz.labserver import LabServer, Rule, ServerScript
from fingerfuzz.scanner import Fingerprint, fingerprint_target, load_fingerprint, save_fingerprint
from fingerfuzz.wire import TargetSpec

from conftest import constant_script, fast_target, is_base, predict_token, save_script

FAST_SCAN = ["--timeout", "0.25", "--drain-window", "0.01"]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def small_generate_args(out, seed="7"):
    return [
        "generate", "--commands", "default", "--max-len", "1", "--instances", "1",
        "--mutations", "1", "--seed", seed, "-o", str(out),
    ]


# --- generate -------------------------------------------------------------------

def test_generate_is_reproducible(tmp_path, capsys):
    first = tmp_path / "a.fc"
    second = tmp_path / "b.fc"
    assert main(small_generate_args(first)) == 0
    assert main(small_generate_args(second)) == 0
    assert sha256(first) == sha256(second)
    out = capsys.readouterr().out
    assert "108 requests" in out  # 27 commands * 2 lengths * 1 * 2
    assert load_collection(first).digest in out


def test_generate_base_only(tmp_path):
    out = tmp_path / "base.fc"
    assert main(["generate", "--max-len", "2", "--mutations", "0",
                 "--instances", "1", "-o", str(out)]) == 0
    collection = load_collection(out)
    assert len(collection.records) == 27 * 3 and collection.config.block_length == 3
    assert all(is_base(collection.config, r) for r in collection.records)


def test_generate_rejects_negative_max_len(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--max-len", "-1", "-o", str(tmp_path / "x.fc")])
    assert err.value.code == 2


def test_generate_commands_file(tmp_path):
    commands = tmp_path / "cmds.txt"
    commands.write_text("NOOP\nSYST\n# comment\n\nHELP\n")
    out = tmp_path / "c.fc"
    assert main(["generate", "--commands", str(commands), "--max-len", "0",
                 "--mutations", "0", "--instances", "1", "-o", str(out)]) == 0
    assert load_collection(out).config.commands == ("NOOP", "SYST", "HELP")


def test_generate_missing_commands_file(tmp_path):
    code = main(["generate", "--commands", str(tmp_path / "nope.txt"),
                 "-o", str(tmp_path / "x.fc")])
    assert code == 2


def test_generate_rejects_non_ascii_commands_file(tmp_path, capsys):
    commands = tmp_path / "cmds.txt"
    commands.write_bytes(b"NOOP\nS\xffST\n")
    out = tmp_path / "c.fc"
    assert main(["generate", "--commands", str(commands), "-o", str(out)]) == 2
    assert "line 2: non-ASCII" in capsys.readouterr().err
    assert not out.exists()


def test_seed_env_fallback_and_flag_precedence(tmp_path, monkeypatch):
    via_env = tmp_path / "env.fc"
    via_flag = tmp_path / "flag.fc"
    explicit = tmp_path / "explicit.fc"
    monkeypatch.setenv("FINGERFUZZ_SEED", "99")
    assert main(["generate", "--max-len", "1", "-o", str(via_env)]) == 0
    assert main(["generate", "--max-len", "1", "--seed", "5", "-o", str(via_flag)]) == 0
    monkeypatch.delenv("FINGERFUZZ_SEED")
    assert main(["generate", "--max-len", "1", "--seed", "99", "-o", str(explicit)]) == 0
    assert sha256(via_env) == sha256(explicit)
    assert sha256(via_flag) != sha256(via_env)


def test_bad_seed_env_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("FINGERFUZZ_SEED", "banana")
    assert main(["generate", "-o", str(tmp_path / "x.fc")]) == 2


def test_generate_refusals_are_usage_errors(tmp_path, monkeypatch, capsys):
    # a seed beyond 64 bits, by flag or environment, and a commands file that
    # FuzzConfig refuses are usage errors, and nothing is written
    out = tmp_path / "x.fc"
    too_big = str(2**64)
    assert main(["generate", "--seed", too_big, "-o", str(out)]) == 2
    assert "'seed': must fit in 64 bits" in capsys.readouterr().err
    monkeypatch.setenv("FINGERFUZZ_SEED", too_big)
    assert main(["generate", "-o", str(out)]) == 2
    assert "'seed': must fit in 64 bits" in capsys.readouterr().err
    monkeypatch.delenv("FINGERFUZZ_SEED")
    commands = tmp_path / "cmds.txt"
    for text, reason in (("NOOP\nnoop\n", "bad mnemonic 'noop'"),
                         ("NOOP\nSYST\nNOOP\n", "duplicate mnemonic 'NOOP'")):
        commands.write_text(text)
        assert main(["generate", "--commands", str(commands), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"usage error: invalid config field 'commands': {reason}\n")
    assert not out.exists()


# --- scan -----------------------------------------------------------------------

TINY_CONFIG = FuzzConfig(commands=("NOOP", "SYST"), max_arg_len=1, instances=1,
                         mutations=1, seed=7)


@pytest.fixture
def tiny_fc(tmp_path):
    path = tmp_path / "tiny.fc"
    save_collection(build_collection(TINY_CONFIG), path)
    return path


def test_scan_lab_server(tmp_path, tiny_fc, lab_factory, capsys):
    script = ServerScript(
        name="scanme",
        rules=(Rule("NOOP", "ANY", "REPLY:200:ok"),),
        default_code=502,
    )
    server = lab_factory(script)
    out = tmp_path / "scan.fp"
    code = main(["scan", "--collection", str(tiny_fc), "--host", "127.0.0.1",
                 "--port", str(server.port), "--label", "scanme",
                 *FAST_SCAN, "-o", str(out)])
    assert code == 0
    fp = load_fingerprint(out)
    collection = load_collection(tiny_fc)
    expected = tuple(predict_token(script, r.bytes) for r in collection.records)
    assert fp.observations == expected
    assert fp.label == "scanme"
    summary = capsys.readouterr().out
    assert "8 observations" in summary
    histogram = " ".join(f"{t}x{n}" for t, n in sorted(Counter(expected).items()))
    assert summary.endswith(f" [{histogram}]\n")


def test_scan_wrong_port_fails(tmp_path, tiny_fc):
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    code = main(["scan", "--collection", str(tiny_fc), "--host", "127.0.0.1",
                 "--port", str(port), *FAST_SCAN, "-o", str(tmp_path / "x.fp")])
    assert code == 1


def test_scan_login_refused_explains(tmp_path, tiny_fc, lab_factory, capsys):
    server = lab_factory(ServerScript(name="locked", pass_code=530))
    code = main(["scan", "--collection", str(tiny_fc), "--host", "127.0.0.1",
                 "--port", str(server.port), *FAST_SCAN,
                 "-o", str(tmp_path / "x.fp")])
    assert code == 1
    assert "indistinguishable" in capsys.readouterr().err


def test_scan_refused_connection_explains(tmp_path, tiny_fc, lab_factory, capsys):
    server = lab_factory(ServerScript(name="full", greeting_code=421,
                                      greeting_text="too many connections"))
    code = main(["scan", "--collection", str(tiny_fc), "--host", "127.0.0.1",
                 "--port", str(server.port), *FAST_SCAN,
                 "-o", str(tmp_path / "x.fp")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: 127.0.0.1:{server.port} refused the connection (greeting 421)\n")
    assert server.connections == 1
    assert not (tmp_path / "x.fp").exists()


def test_scan_requires_collection_flag(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["scan", "--host", "x", "-o", str(tmp_path / "x.fp")])
    assert err.value.code == 2


@pytest.mark.parametrize("text,expected", [
    ("192.0.2.1", ("192.0.2.1", 21)),
    ("192.0.2.1:2121", ("192.0.2.1", 2121)),
    ("ftp.example:2121", ("ftp.example", 2121)),
    ("::1", ("::1", 21)),
    ("2001:db8::7", ("2001:db8::7", 21)),
    ("[::1]", ("::1", 21)),
    ("[::1]:2121", ("::1", 2121)),
])
def test_parse_host_port(text, expected):
    assert _parse_host_port(text, 21) == expected


@pytest.mark.parametrize("host, port", [
    ("192.0.2.1", 21), ("192.0.2.1", 2121), ("ftp.example.org", 21), ("::1", 21),
    ("::1", 2121), ("2001:db8::7", 990),
])
def test_target_descriptor_reads_back(host, port):
    assert _parse_host_port(TargetSpec(host, port).descriptor, 21) == (host, port)


@pytest.mark.parametrize("text", ["[::1", "[::1]2121", "[::1]:", "[::1]:x", "host:", "host:x"])
def test_parse_host_port_refuses_a_bad_target(text):
    with pytest.raises(UsageError, match="bad target"):
        _parse_host_port(text, 21)


def test_scan_one_session_gives_the_same_fingerprint(tmp_path, tiny_fc, lab_factory):
    server = lab_factory(ServerScript(
        name="scanme", rules=(Rule("NOOP", "ANY", "REPLY:200:ok"),)))
    outputs = []
    for sessions in ("1", "8"):
        outputs.append(tmp_path / f"s{sessions}.fp")
        assert main(["scan", "--collection", str(tiny_fc), "--host", "127.0.0.1",
                     "--port", str(server.port), "--sessions", sessions, *FAST_SCAN,
                     "-o", str(outputs[-1])]) == 0
    first, second = (load_fingerprint(path) for path in outputs)
    assert first.observations == second.observations
    assert server.connections == 2 * 2  # two command blocks, two scans


def test_scan_multiple_targets(tmp_path, tiny_fc, lab_factory):
    s1 = lab_factory(constant_script("one", 200))
    s2 = lab_factory(constant_script("two", 500))
    targets = tmp_path / "targets.txt"
    targets.write_text(f"127.0.0.1:{s1.port}\n127.0.0.1:{s2.port}\n")
    out_dir = tmp_path / "fps"
    code = main(["scan", "--collection", str(tiny_fc), "--targets", str(targets),
                 *FAST_SCAN, "-o", str(out_dir)])
    assert code == 0
    files = sorted(p.name for p in out_dir.glob("*.fp"))
    assert files == [f"127.0.0.1_{p}.fp" for p in sorted((s1.port, s2.port))]


def test_scan_multiple_targets_reports_a_refused_login(tmp_path, tiny_fc, lab_factory,
                                                       capsys):
    good = lab_factory(constant_script("good", 200))
    locked = lab_factory(ServerScript(name="locked", user_code=530))
    targets = tmp_path / "targets.txt"
    targets.write_text(f"127.0.0.1:{locked.port}\n127.0.0.1:{good.port}\n")
    out_dir = tmp_path / "fps"
    code = main(["scan", "--collection", str(tiny_fc), "--targets", str(targets),
                 *FAST_SCAN, "-o", str(out_dir)])
    assert code == 1
    written = out_dir / f"127.0.0.1_{good.port}.fp"
    out, err = capsys.readouterr()
    assert out == f"wrote {written}: 8 observations [200x8]\n"
    locked_name = f"127.0.0.1:{locked.port}"
    assert err == (f"error: {locked_name}: {locked_name} refused login (530); "
                   "unauthenticated servers are indistinguishable\n")
    assert list(out_dir.iterdir()) == [written]


def slow_collection(tmp_path) -> Path:
    """Two runs of ten requests: 4 s on one session against SLOW_SCRIPT."""
    path = tmp_path / "slow.fc"
    save_collection(build_collection(FuzzConfig(commands=("NOOP", "SYST"), max_arg_len=4,
                                                instances=1, mutations=1, seed=7)), path)
    return path


SLOW_SCRIPT = ServerScript(name="slow", rules=(Rule("*", "ANY", "DELAY:200:200:late"),))


def test_scan_interrupted_exits_130_and_writes_nothing(tmp_path, lab_factory, capsys,
                                                       caplog):
    # SIGINT reaches the main thread as Ctrl-C does.  Once the server has
    # read the first request, the main thread waits for the pool's workers;
    # the signal wakes that wait, where _thread.interrupt_main() would only
    # be seen once the scan has ended
    caplog.set_level(logging.DEBUG, logger="fingerfuzz.labserver")
    collection = slow_collection(tmp_path)
    server = lab_factory(SLOW_SCRIPT)
    interrupted_at = []

    def a_request_was_read():
        return any(r.getMessage().endswith("-> DELAY") for r in caplog.records)

    def interrupt_once_a_request_is_read():
        deadline = time.monotonic() + 5
        while not a_request_was_read() and time.monotonic() < deadline:
            time.sleep(0.001)
        if a_request_was_read():
            interrupted_at.append(time.monotonic())
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
    interrupter = threading.Thread(target=interrupt_once_a_request_is_read)
    interrupter.start()
    try:
        code = main(["scan", "--collection", str(collection), "--host", "127.0.0.1",
                     "--port", str(server.port), "--sessions", "1", *FAST_SCAN,
                     "-o", str(tmp_path / "x.fp")])
        ended_at = time.monotonic()
    finally:
        interrupter.join()
    assert code == 130
    assert ended_at - interrupted_at[0] < 1.0
    assert capsys.readouterr() == ("", "interrupted\n")
    assert list(tmp_path.rglob("*")) == [collection]  # no .fp and no .tmp-*.part file


def test_interrupted_sweep_stops_every_scan_and_writes_nothing(tmp_path, lab_factory,
                                                               capsys):
    # each reply 200 ms late: a scan takes 2 s on two sessions.  SIGINT
    # wakes the sweep's wait, where _thread.interrupt_main() would only be
    # seen once a scan has ended
    collection = slow_collection(tmp_path)
    servers = [lab_factory(SLOW_SCRIPT), lab_factory(SLOW_SCRIPT)]
    targets = tmp_path / "targets.txt"
    targets.write_text("".join(f"127.0.0.1:{server.port}\n" for server in servers))
    out_dir = tmp_path / "fps"
    interrupted_at = []

    def interrupt_once_both_scan():
        deadline = time.monotonic() + 5
        while (not all(server.connections for server in servers)
               and time.monotonic() < deadline):
            time.sleep(0.001)
        if all(server.connections for server in servers):
            interrupted_at.append(time.monotonic())
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
    interrupter = threading.Thread(target=interrupt_once_both_scan)
    interrupter.start()
    try:
        code = main(["scan", "--collection", str(collection), "--targets", str(targets),
                     *FAST_SCAN, "-o", str(out_dir)])
        ended_at = time.monotonic()
    finally:
        interrupter.join()
    assert code == 130
    assert ended_at - interrupted_at[0] < 1.0
    assert capsys.readouterr() == ("", "interrupted\n")
    assert list(out_dir.iterdir()) == []


def test_scan_refuses_a_request_holding_a_line_break_before_connecting(tmp_path, tiny_fc,
                                                                       lab_factory, capsys):
    server = lab_factory(constant_script("unused", 200))
    lines = tiny_fc.read_bytes().split(b"\n")
    assert lines[8] == b"NOOP"
    lines[8] = b"NOOP\\x0aSYST"
    lines[7] = b"#digest " + hashlib.sha256(b"\n".join(lines[8:])).hexdigest().encode()
    tiny_fc.write_bytes(b"\n".join(lines))
    out = tmp_path / "x.fp"
    assert main(["scan", "--collection", str(tiny_fc), "--host", "127.0.0.1",
                 "--port", str(server.port), *FAST_SCAN, "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {tiny_fc}: line 9: request must not contain CR or LF\n")
    assert server.connections == 0
    assert not out.exists()


# --- scan refusals: usage errors (exit 2) before the collection is read -----------

@pytest.fixture
def unused_server(lab_factory):
    return lab_factory(constant_script("unused", 200))


@pytest.fixture
def refused(tmp_path, tiny_fc, unused_server, capsys):
    """Check that a scan with `flags` is refused, once with the collection
    absent and once with it present: exit 2 with exactly `stderr` (the last
    line of an argparse refusal), no connection made and nothing written.  A
    `targets` text is written to targets.txt, which `--targets` names; `-o`
    names `output`, or tmp_path/out."""
    targets_file = tmp_path / "targets.txt"

    def check(flags: list[str], stderr: str, targets: str | None = None,
              output: Path | None = None) -> None:
        out = tmp_path / "out" if output is None else output
        if targets is not None:
            targets_file.write_bytes(targets.encode())
            flags = [*flags, "--targets", str(targets_file)]
        files = set(tmp_path.rglob("*"))
        for collection in (tmp_path / "absent.fc", tiny_fc):
            try:
                code = main(["scan", "--collection", str(collection), *FAST_SCAN, *flags,
                             "-o", str(out)])
            except SystemExit as exc:  # argparse's refusal
                code = exc.code
            err = capsys.readouterr().err
            assert code == 2
            assert (err.splitlines()[-1] + "\n" if err.startswith("usage: ") else err) == stderr
        assert unused_server.connections == 0
        assert set(tmp_path.rglob("*")) == files
    return check


def test_scan_requires_host_or_targets(refused):
    refused([], "usage error: --host is required unless --targets is given\n")


@pytest.mark.parametrize("label", ["two\nlines", "cr\rhere", "caf\u00e9"])
def test_scan_rejects_unwritable_label_before_connecting(refused, unused_server, label):
    refused(["--host", "127.0.0.1", "--port", str(unused_server.port), "--label", label],
            f"usage error: label must be ASCII without CR or LF: {label!r}\n")


def test_scan_rejects_label_with_targets_before_connecting(refused, unused_server):
    refused(["--label", "same"], "usage error: --label cannot be combined with --targets: "
                                 "every fingerprint would carry the same label\n",
            targets=f"127.0.0.1:{unused_server.port}\nlocalhost:{unused_server.port}\n")


def test_scan_rejects_non_ascii_targets_file_before_connecting(refused, unused_server, tmp_path):
    targets = tmp_path / "targets.txt"
    refused([], f"usage error: line 2: non-ASCII byte in targets file {targets}\n",
            targets=f"127.0.0.1:{unused_server.port}\nh\u00f6st:21\n")


@pytest.mark.parametrize("host", ["m\u00fcller.example", "two words", "tab\there", "del\x7f"])
def test_scan_refuses_a_host_that_is_not_printable_ascii(refused, unused_server, host):
    # an international name resolves through IDNA, but the fingerprint's
    # `#target` line is ASCII: the scan would fail only when it is written
    rule = ("host must be printable ASCII without spaces: give an international name "
            "in its IDNA (xn--) form\n")
    refused(["--host", host, "--port", str(unused_server.port)],
            f"usage error: target {host}:{unused_server.port}: {rule}")
    if host.isascii():  # a targets file is ASCII, and a line holds all of its host
        refused([], f"usage error: target {host}:21: {rule}",
                targets=f"127.0.0.1:{unused_server.port}\n{host}\n")


@pytest.mark.parametrize("flag,value,field", [
    ("--user", "a\nb", "username"),
    ("--user", "\u540d", "username"),
    ("--pass", "x\ry", "password"),
    ("--pass", "\u540d", "password"),
])
def test_scan_rejects_unsendable_credentials_before_connecting(refused, unused_server,
                                                               flag, value, field):
    # the login sends them in one latin-1 request line
    port = unused_server.port
    stderr = (f"usage error: target 127.0.0.1:{port}: {field} must be latin-1 text "
              "without CR or LF\n")
    refused(["--host", "127.0.0.1", "--port", str(port), flag, value], stderr)
    refused([flag, value], stderr, targets=f"127.0.0.1:{port}\n")


def test_scan_refuses_an_output_it_could_not_write_before_connecting(refused, unused_server,
                                                                     tmp_path):
    host = ["--host", "127.0.0.1", "--port", str(unused_server.port)]
    taken, missing = tmp_path / "taken", tmp_path / "missing" / "scan.fp"
    taken.mkdir()
    refused(host, f"usage error: -o {taken} is a directory\n", output=taken)
    refused(host, f"usage error: -o {missing}: {missing.parent} is not a directory\n",
            output=missing)
    # with --targets, -o names a directory to make
    afile = tmp_path / "afile"
    afile.write_text("")
    targets = f"127.0.0.1:{unused_server.port}\n"
    refused([], f"usage error: -o {afile} is not a directory\n", targets=targets, output=afile)
    refused([], f"usage error: -o {afile / 'sub'}: {afile} is not a directory\n",
            targets=targets, output=afile / "sub")


def test_scan_refuses_a_targets_file_without_hosts(refused):
    refused([], "usage error: targets file lists no hosts\n",
            targets="# no hosts yet\n\n   \n# 127.0.0.1\n")


def test_target_usage_error_brackets_an_ipv6_host(refused):
    refused(["--host", "::1", "--timeout", "0.1", "--drain-window", "0.2"],
            "usage error: target [::1]:21: drain_window must be smaller than reply_timeout\n")


def test_scan_rejects_bad_target_before_connecting(refused, unused_server):
    port = unused_server.port
    refused([], "usage error: target 127.0.0.1:70000: port must be in 1..65535\n",
            targets=f"127.0.0.1:{port}\n127.0.0.1:70000\n")
    refused(["--host", "127.0.0.1", "--port", str(port), "--timeout", "0.1",
             "--drain-window", "0.2"],
            f"usage error: target 127.0.0.1:{port}: drain_window must be smaller than "
            "reply_timeout\n")


def test_scan_rejects_an_empty_host_before_connecting(refused, unused_server):
    port = unused_server.port
    for line in (":21", "[]", "[]:21"):
        refused([], "usage error: target :21: host must not be empty\n",
                targets=f"127.0.0.1:{port}\n{line}\n")
    refused(["--host", "", "--port", str(port)],
            f"usage error: target :{port}: host must not be empty\n")


@pytest.mark.parametrize("sessions", ["0", "33", "many"])
def test_scan_rejects_bad_session_count(refused, unused_server, sessions):
    port = unused_server.port
    stderr = {
        "0": "fingerfuzz scan: error: argument --sessions: must be >= 1\n",
        "33": f"usage error: target 127.0.0.1:{port}: sessions must be in 1..32\n",
        "many": "fingerfuzz scan: error: argument --sessions: not an integer: 'many'\n",
    }[sessions]
    refused(["--host", "127.0.0.1", "--port", str(port), "--sessions", sessions], stderr)


@pytest.mark.parametrize("flags, named", [
    (["--timeout", "nan"], "reply_timeout"), (["--timeout", "inf"], "reply_timeout"),
    (["--timeout", "1e300"], "reply_timeout"), (["--drain-window", "nan"], "drain_window"),
    (["--drain-window", "inf"], "drain_window"), (["--drain-window", "-0.1"], "drain_window"),
    (["--delay", "nan"], "delay"), (["--delay", "inf"], "delay"),
    (["--delay", "1e300"], "delay"), (["--delay", "-1"], "delay"),
])
def test_scan_refuses_timing_no_wait_can_take(refused, unused_server, flags, named):
    # no socket or thread waits longer than TIMEOUT_MAX; only the delay may be 0
    low = "[0" if named == "delay" else "(0"
    refused(["--host", "127.0.0.1", "--port", str(unused_server.port), *flags],
            f"usage error: target 127.0.0.1:{unused_server.port}: {named} must be a "
            f"number of seconds in {low}, {threading.TIMEOUT_MAX:.0f}]\n")


def test_scan_rejects_a_target_listed_twice_before_connecting(refused, unused_server):
    # 127.0.0.1 with --port is the same target as 127.0.0.1:<port>; the second
    # scan would overwrite the first one's file
    port = unused_server.port
    refused(["--port", str(port)],
            f"usage error: targets file lists 127.0.0.1:{port} more than once\n",
            targets=f"127.0.0.1:{port}\nlocalhost:{port}\n127.0.0.1\n")


def test_scan_rejects_an_ipv6_target_listed_twice_before_connecting(refused, unused_server):
    # no IPv6 scan is run: the lab server binds IPv4 only
    refused(["--port", "21"], "usage error: targets file lists [::1]:21 more than once\n",
            targets=f"127.0.0.1:{unused_server.port}\n::1\n[::1]:21\n")


# --- match ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def match_scans(tmp_path_factory):
    """Three scripted products scanned into a db plus a probe of product one,
    with the collection of `tiny_fc`, once per test session."""
    scripts = [
        constant_script("alpha", 200),
        constant_script("bravo", 500),
        ServerScript(name="carol",
                     rules=(Rule("NOOP", "ANY", "REPLY:250:x"),),
                     default_code=500),
    ]
    collection = build_collection(TINY_CONFIG)
    root = tmp_path_factory.mktemp("match")
    (root / "db").mkdir()
    scans = [(script, script.name, root / "db" / f"{script.name}.fp") for script in scripts]
    scans.append((constant_script("alpha-again", 200), "probe", root / "probe.fp"))
    for script, label, path in scans:
        server = LabServer(script).start()
        try:
            fp = fingerprint_target(collection, fast_target(server.port), label=label)
        finally:
            server.stop()
        save_fingerprint(fp, path)
    return root


@pytest.fixture
def match_fixture(match_scans, tmp_path):
    """A copy of the scanned db and probe of its own, which a test may change."""
    shutil.copytree(match_scans / "db", tmp_path / "db")
    shutil.copy(match_scans / "probe.fp", tmp_path / "probe.fp")
    return tmp_path / "db", tmp_path / "probe.fp"


def test_match_report(match_fixture, capsys):
    db_dir, probe = match_fixture
    assert main(["match", "--db", str(db_dir), "--fingerprint", str(probe)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1. alpha  100.00%  (8/8)"
    assert len(lines) == 3
    assert all(lines[i].startswith(f"{i + 1}. ") for i in range(3))


def test_match_top_k(match_fixture, capsys):
    db_dir, probe = match_fixture
    assert main(["match", "--db", str(db_dir), "--fingerprint", str(probe),
                 "--top", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_match_json(match_fixture, capsys):
    db_dir, probe = match_fixture
    assert main(["match", "--db", str(db_dir), "--fingerprint", str(probe),
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["label"] == "alpha"
    assert payload[0]["percent"] == 100.0
    assert payload[0]["agree"] == 8 and payload[0]["total"] == 8
    assert payload[0]["ratio"] == "1/1"


def test_match_threshold_annotation(match_fixture, capsys):
    db_dir, probe = match_fixture
    assert main(["match", "--db", str(db_dir), "--fingerprint", str(probe),
                 "--threshold", "90"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "[meets threshold]" in lines[0]
    assert "[meets threshold]" not in lines[-1]


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-5", "100.5", "250", "x"])
def test_match_refuses_a_threshold_that_is_no_percentage(match_fixture, capsys, threshold):
    db_dir, probe = match_fixture
    for output in ([], ["--json"]):
        with pytest.raises(SystemExit) as err:
            main(["match", "--db", str(db_dir), "--fingerprint", str(probe),
                  "--threshold", threshold, *output])
        assert err.value.code == 2
        assert "--threshold" in capsys.readouterr().err


def test_match_matrix_csv(match_fixture, capsys):
    db_dir, _ = match_fixture
    assert main(["match", "--db", str(db_dir), "--matrix"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "label,alpha,bravo,carol"
    assert len(lines) == 4
    cells = [line.split(",") for line in lines[1:]]
    for i in range(3):
        assert cells[i][i + 1] == "100.00"
    # independent recount of one off-diagonal cell from the .fp files
    def tokens(path):
        return [l for l in path.read_text().splitlines() if not l.startswith("#")]

    bravo = tokens(db_dir / "bravo.fp")
    carol = tokens(db_dir / "carol.fp")
    agree = sum(1 for x, y in zip(bravo, carol) if x == y)
    expected = f"{100 * agree / len(bravo):.2f}"
    assert cells[1][3] == expected and cells[2][2] == expected


def test_match_names_unlabeled_entries_by_file_stem(tmp_path, capsys):
    # a --targets sweep writes unlabeled entries that may share a #target;
    # every match output names each by the one database label, its file stem
    def fp(tokens, label=None):
        return Fingerprint(collection_digest="aa" * 32, target="192.0.2.1:21",
                           observations=tuple(tokens), label=label, login=("230",))

    db_dir = tmp_path / "db"
    db_dir.mkdir()
    save_fingerprint(fp(["200", "500"]), db_dir / "a.fp")
    save_fingerprint(fp(["502", "550"]), db_dir / "b.fp")
    probe = tmp_path / "probe.fp"
    save_fingerprint(fp(["200", "500"], label="probe"), probe)
    match = ["match", "--db", str(db_dir), "--fingerprint", str(probe)]
    assert main(match) == 0
    assert capsys.readouterr().out == "1. a  100.00%  (2/2)\n2. b  0.00%  (0/2)\n"
    assert main([*match, "--json"]) == 0
    assert [m["label"] for m in json.loads(capsys.readouterr().out)] == ["a", "b"]
    assert main(["match", "--db", str(db_dir), "--matrix"]) == 0
    assert capsys.readouterr().out == "label,a,b\na,100.00,0.00\nb,0.00,100.00\n"


def test_match_digest_mismatch_exits_1(tmp_path, match_fixture, capsys):
    db_dir, _ = match_fixture
    other = build_collection(FuzzConfig(commands=("HELP",), max_arg_len=0,
                                        instances=1, mutations=0, seed=1))

    alien = Fingerprint(collection_digest=other.digest, target="x:21",
                        observations=("200",), label="alien",
                        login=("230",))
    alien_path = tmp_path / "alien.fp"
    save_fingerprint(alien, alien_path)
    assert main(["match", "--db", str(db_dir),
                 "--fingerprint", str(alien_path)]) == 1
    assert "alpha" in capsys.readouterr().err


def test_match_refuses_version_1_probe(match_fixture, capsys):
    db_dir, probe = match_fixture
    probe.write_text(probe.read_text().replace("#fp-version 2", "#fp-version 1"))
    assert main(["match", "--db", str(db_dir), "--fingerprint", str(probe)]) == 1
    assert "rescan" in capsys.readouterr().err


def test_match_requires_probe_or_matrix(match_fixture):
    db_dir, _ = match_fixture
    assert main(["match", "--db", str(db_dir)]) == 2


def test_match_usage_error_comes_before_the_database(tmp_path, capsys):
    assert main(["match", "--db", str(tmp_path / "nonexistent")]) == 2
    assert "--fingerprint" in capsys.readouterr().err


def test_match_reads_the_probe_before_the_database(tmp_path, capsys):
    probe = tmp_path / "probe.fp"
    probe.write_text("#fp-version 2\nnot a fingerprint\n")
    assert main(["match", "--db", str(tmp_path / "nonexistent"),
                 "--fingerprint", str(probe)]) == 1
    err = capsys.readouterr().err
    assert "not a directory" not in err and "line 2" in err


def test_load_errors_name_the_file(tmp_path, match_fixture, tiny_fc, capsys):
    db_dir, probe = match_fixture
    bad = db_dir / "zeta.fp"
    bad.write_text("#fp-version 2\nnot a header\n")
    reason = "line 2: expected a '#' header line before '#login'"
    assert main(["match", "--db", str(db_dir), "--matrix"]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
    assert main(["match", "--db", str(db_dir), "--fingerprint", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
    # a collection names the line and the column of a bad escape
    lines = tiny_fc.read_bytes().split(b"\n")
    assert lines[8] == b"NOOP"
    lines[8] = b"NO\\x4fP"
    bad_fc = tmp_path / "bad.fc"
    bad_fc.write_bytes(b"\n".join(lines))
    bad.unlink()
    assert main(["optimize", "--db", str(db_dir), "--collection", str(bad_fc),
                 "-o", str(tmp_path / "out.fc")]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad_fc}: line 9, column 3: not a printable character or "
        "canonical escape: '\\\\x4f'\n")
    # a bad header value names the file and its line, a digest mismatch the file
    lines[8] = b"NOOP"
    assert lines[4] == b"#instances 1"
    lines[4] = b"#instances 0"
    bad_fc.write_bytes(b"\n".join(lines))
    assert main(["optimize", "--db", str(db_dir), "--collection", str(bad_fc),
                 "-o", str(tmp_path / "out.fc")]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad_fc}: line 5: invalid config field 'instances': must be >= 1\n")
    lines[4] = b"#instances 1"
    digest = load_collection(tiny_fc).digest
    assert lines[7] == f"#digest {digest}".encode()
    lines[7] = b"#digest 00"
    bad_fc.write_bytes(b"\n".join(lines))
    assert main(["optimize", "--db", str(db_dir), "--collection", str(bad_fc),
                 "-o", str(tmp_path / "out.fc")]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad_fc}: digest mismatch: header 00, body {digest}\n")
    with pytest.raises(IntegrityError):
        load_collection(bad_fc)


# --- optimize --------------------------------------------------------------------

def test_optimize_reduces_and_traces(tmp_path, tiny_fc, lab_factory, capsys):
    # the two products differ only in their NOOP reply, so positions whose
    # request no longer starts with NOOP (mutated tokens) agree and get pruned
    db_dir = tmp_path / "optdb"
    db_dir.mkdir()
    collection = load_collection(tiny_fc)

    for label, noop_code in (("old", 200), ("new", 250)):
        script = ServerScript(
            name=label,
            rules=(Rule("NOOP", "ANY", f"REPLY:{noop_code}:ok"),),
            default_code=502,
        )
        server = lab_factory(script)
        fp = fingerprint_target(collection, fast_target(server.port), label=label)
        save_fingerprint(fp, db_dir / f"{label}.fp")

    out = tmp_path / "reduced.fc"
    indexes = tmp_path / "kept.csv"
    code = main(["optimize", "--db", str(db_dir), "--collection", str(tiny_fc),
                 "--emit-indexes", str(indexes), "-o", str(out)])
    assert code == 0
    reduced = load_collection(out)
    full = load_collection(tiny_fc)
    assert reduced.reduced_from == full.digest
    assert 0 < len(reduced.records) < len(full.records)
    assert f"#reduced-from {full.digest}" in out.read_text()
    rows = indexes.read_text().splitlines()
    assert rows[0] == "index,provenance"
    assert len(rows) == 1 + len(reduced.records)
    assert "kept" in capsys.readouterr().out


def test_optimize_identical_db_fails(tmp_path, tiny_fc, lab_factory, capsys):
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    collection = load_collection(tiny_fc)

    for label in ("clone-a", "clone-b"):
        server = lab_factory(constant_script(label, 502))
        fp = fingerprint_target(collection, fast_target(server.port), label=label)
        save_fingerprint(fp, db_dir / f"{label}.fp")
    code = main(["optimize", "--db", str(db_dir), "--collection", str(tiny_fc),
                 "-o", str(tmp_path / "r.fc")])
    assert code == 1
    assert "identical" in capsys.readouterr().err


# --- lab -------------------------------------------------------------------------

def test_lab_bad_script_exits_2(tmp_path, capsys):
    script = tmp_path / "bad.script"
    for text, error in [
        (b"name x\ndefault 999 zz\n", "line 2: code 999"),
        (b"default 502 no\nname caf\xe9\n", "line 2: non-ASCII byte"),
        (b"name x\nrule NOOP ANY DELAY:99999999999999:200:late\ndefault 502 no\n",
         "line 2: DELAY milliseconds in 'DELAY:99999999999999:200:late' must be at most"),
        (b"name two words\ndefault 502 no\n", "line 1: name: must be a single non-empty word"),
        (b"name x\ngreeting 220 a\rb\ndefault 502 no\n",
         "line 2: greeting: text must not contain line breaks"),
        (b"name x\ndefault 502 a\rb\n", "line 2: default: text must not contain line breaks"),
    ]:
        script.write_bytes(text)
        assert main(["lab", "--script", str(script)]) == 2
        assert f"script error: {script}: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("port", ["70000", "65536", "-1"])
def test_lab_refuses_a_port_out_of_range(tmp_path, monkeypatch, capsys, port):
    script = tmp_path / "ok.script"
    script.write_text(save_script(constant_script("unbound", 502)))
    started = []
    monkeypatch.setattr(LabServer, "start", lambda server: started.append(server))
    with pytest.raises(SystemExit) as err:
        main(["lab", "--script", str(script), "--port", port])
    assert err.value.code == 2
    assert "--port" in capsys.readouterr().err
    assert started == []


def test_lab_subprocess_serves(tmp_path):
    script_path = tmp_path / "ok.script"
    script_path.write_text(save_script(constant_script("subproc", 502)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fingerfuzz.cli", "lab", "--script",
         str(script_path), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "serving 'subproc' on port" in line
        port = int(line.rsplit(" ", 1)[1])
        sock = socket.create_connection(("127.0.0.1", port), timeout=2)
        sock.settimeout(2)
        greeting = sock.recv(64)
        assert greeting.startswith(b"220")
        sock.sendall(b"USER probe\r\n")
        assert sock.recv(64).startswith(b"331")
        sock.close()
    finally:
        proc.terminate()
        _, stderr = proc.communicate(timeout=5)
        # on stop the server prints its requests, counted by action
        assert "1 connections; requests by action:\n  login USER 331: 1\n" in stderr
