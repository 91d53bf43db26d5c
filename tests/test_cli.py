from __future__ import annotations

import hashlib
import json
import socket
import subprocess
import sys
from collections import Counter

import pytest

from fingerfuzz.cli import main
from fingerfuzz.fuzzgen import FuzzConfig, build_collection, load_collection, save_collection
from fingerfuzz.labserver import Rule, ServerScript, save_script
from fingerfuzz.scanner import load_fingerprint, save_fingerprint

from conftest import constant_script, is_base
from test_scanner import predict_token

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


# --- scan -----------------------------------------------------------------------

@pytest.fixture
def tiny_fc(tmp_path):
    path = tmp_path / "tiny.fc"
    collection = build_collection(
        FuzzConfig(commands=("NOOP", "SYST"), max_arg_len=1, instances=1,
                   mutations=1, seed=7)
    )
    save_collection(collection, path)
    return path


def test_scan_lab_server(tmp_path, tiny_fc, lab_factory, capsys):
    script = ServerScript(
        name="scanme",
        rules=(Rule("NOOP", "ANY", "REPLY", code=200, text="ok"),),
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


def test_scan_requires_host_or_targets(tmp_path, tiny_fc):
    assert main(["scan", "--collection", str(tiny_fc),
                 "-o", str(tmp_path / "x.fp")]) == 2


@pytest.mark.parametrize("label", ["two\nlines", "cr\rhere", "caf\u00e9"])
def test_scan_rejects_unwritable_label_before_connecting(tmp_path, tiny_fc,
                                                         lab_factory, capsys, label):
    server = lab_factory(constant_script("unused", 200))
    out = tmp_path / "x.fp"
    code = main(["scan", "--collection", str(tiny_fc), "--host", "127.0.0.1",
                 "--port", str(server.port), "--label", label, *FAST_SCAN,
                 "-o", str(out)])
    assert code == 2
    assert "label" in capsys.readouterr().err
    assert server.connections == 0
    assert not out.exists()


def test_scan_rejects_non_ascii_targets_file_before_connecting(tmp_path, tiny_fc,
                                                               lab_factory, capsys):
    server = lab_factory(constant_script("unused", 200))
    targets = tmp_path / "targets.txt"
    targets.write_bytes(f"127.0.0.1:{server.port}\n".encode() + b"h\xc3\xb6st:21\n")
    out_dir = tmp_path / "fps"
    code = main(["scan", "--collection", str(tiny_fc), "--targets", str(targets),
                 *FAST_SCAN, "-o", str(out_dir)])
    assert code == 2
    assert "line 2: non-ASCII" in capsys.readouterr().err
    assert server.connections == 0
    assert not out_dir.exists()


def test_scan_rejects_bad_target_before_connecting(tmp_path, tiny_fc, lab_factory,
                                                  capsys):
    server = lab_factory(constant_script("unused", 200))
    targets = tmp_path / "targets.txt"
    targets.write_text(f"127.0.0.1:{server.port}\n127.0.0.1:70000\n")
    out_dir = tmp_path / "fps"
    assert main(["scan", "--collection", str(tiny_fc), "--targets", str(targets),
                 *FAST_SCAN, "-o", str(out_dir)]) == 2
    assert "70000" in capsys.readouterr().err
    assert main(["scan", "--collection", str(tiny_fc), "--host", "127.0.0.1",
                 "--port", str(server.port), "--timeout", "0.1", "--drain-window", "0.2",
                 "-o", str(tmp_path / "x.fp")]) == 2
    assert "drain_window" in capsys.readouterr().err
    assert server.connections == 0
    assert not out_dir.exists()


@pytest.mark.parametrize("sessions", ["0", "33", "many"])
def test_scan_rejects_bad_session_count(tmp_path, tiny_fc, lab_factory, sessions):
    server = lab_factory(constant_script("unused", 200))
    try:
        code = main(["scan", "--collection", str(tiny_fc), "--host", "127.0.0.1",
                     "--port", str(server.port), "--sessions", sessions,
                     "-o", str(tmp_path / "x.fp")])
    except SystemExit as exc:  # argparse rejects what is not a positive integer
        code = exc.code
    assert code == 2
    assert server.connections == 0


@pytest.mark.parametrize("flags, named", [
    (["--timeout", "nan"], "reply_timeout"), (["--timeout", "inf"], "reply_timeout"),
    (["--timeout", "1e300"], "reply_timeout"), (["--drain-window", "nan"], "drain_window"),
    (["--drain-window", "inf"], "drain_window"), (["--drain-window", "-0.1"], "drain_window"),
    (["--delay", "nan"], "--delay"), (["--delay", "inf"], "--delay"),
    (["--delay", "1e300"], "--delay"), (["--delay", "-1"], "--delay"),
])
def test_scan_refuses_timing_no_wait_can_take(tmp_path, tiny_fc, lab_factory, capsys,
                                              flags, named):
    # refused as usage errors before the collection is read: an absent
    # collection file would otherwise fail first, with exit 1
    server = lab_factory(constant_script("unused", 200))
    for collection in (tmp_path / "absent.fc", tiny_fc):
        try:
            code = main(["scan", "--collection", str(collection), "--host", "127.0.0.1",
                         "--port", str(server.port), *FAST_SCAN, *flags,
                         "-o", str(tmp_path / "x.fp")])
        except SystemExit as exc:  # argparse refuses --delay
            code = exc.code
        assert code == 2
        assert named in capsys.readouterr().err
    assert server.connections == 0
    assert not (tmp_path / "x.fp").exists()


def test_scan_one_session_gives_the_same_fingerprint(tmp_path, tiny_fc, lab_factory):
    server = lab_factory(ServerScript(
        name="scanme", rules=(Rule("NOOP", "ANY", "REPLY", code=200, text="ok"),)))
    outputs = []
    for sessions in ("1", "8"):
        outputs.append(tmp_path / f"s{sessions}.fp")
        assert main(["scan", "--collection", str(tiny_fc), "--host", "127.0.0.1",
                     "--port", str(server.port), "--sessions", sessions, *FAST_SCAN,
                     "-o", str(outputs[-1])]) == 0
    first, second = (load_fingerprint(path) for path in outputs)
    assert first.observations == second.observations
    assert server.connections == 2 * 2  # two command blocks, two scans


def test_scan_rejects_label_with_targets_before_connecting(tmp_path, tiny_fc,
                                                           lab_factory, capsys):
    servers = [lab_factory(constant_script(name, 200)) for name in ("one", "two")]
    targets = tmp_path / "targets.txt"
    targets.write_text("".join(f"127.0.0.1:{s.port}\n" for s in servers))
    out_dir = tmp_path / "fps"
    code = main(["scan", "--collection", str(tiny_fc), "--targets", str(targets),
                 "--label", "same", *FAST_SCAN, "-o", str(out_dir)])
    assert code == 2
    assert "--targets" in capsys.readouterr().err
    assert [s.connections for s in servers] == [0, 0]
    assert not out_dir.exists()


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


# --- match ----------------------------------------------------------------------

@pytest.fixture
def match_fixture(tmp_path, tiny_fc, lab_factory):
    """Three scripted products scanned into a db plus a probe of product one."""
    scripts = [
        constant_script("alpha", 200),
        constant_script("bravo", 500),
        ServerScript(name="carol",
                     rules=(Rule("NOOP", "ANY", "REPLY", code=250, text="x"),),
                     default_code=500),
    ]
    collection = load_collection(tiny_fc)
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    from fingerfuzz.scanner import fingerprint_target
    from conftest import fast_target

    for script in scripts:
        server = lab_factory(script)
        fp = fingerprint_target(collection, fast_target(server.port),
                                label=script.name)
        save_fingerprint(fp, db_dir / f"{script.name}.fp")
    probe_server = lab_factory(constant_script("alpha-again", 200))
    probe = fingerprint_target(collection, fast_target(probe_server.port),
                               label="probe")
    probe_path = tmp_path / "probe.fp"
    save_fingerprint(probe, probe_path)
    return db_dir, probe_path


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


def test_match_digest_mismatch_exits_1(tmp_path, match_fixture, capsys):
    db_dir, _ = match_fixture
    other = build_collection(FuzzConfig(commands=("HELP",), max_arg_len=0,
                                        instances=1, mutations=0, seed=1))
    from fingerfuzz.scanner import Fingerprint

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


# --- optimize --------------------------------------------------------------------

def test_optimize_reduces_and_traces(tmp_path, tiny_fc, lab_factory, capsys):
    # the two products differ only in their NOOP reply, so positions whose
    # request no longer starts with NOOP (mutated tokens) agree and get pruned
    db_dir = tmp_path / "optdb"
    db_dir.mkdir()
    collection = load_collection(tiny_fc)
    from fingerfuzz.scanner import fingerprint_target
    from conftest import fast_target

    for label, noop_code in (("old", 200), ("new", 250)):
        script = ServerScript(
            name=label,
            rules=(Rule("NOOP", "ANY", "REPLY", code=noop_code, text="ok"),),
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
    from fingerfuzz.scanner import fingerprint_target
    from conftest import fast_target

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
    ]:
        script.write_bytes(text)
        assert main(["lab", "--script", str(script)]) == 2
        assert f"script error: {error}" in capsys.readouterr().err


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
        # each handled request is logged to stderr
        assert "USER probe" in stderr
