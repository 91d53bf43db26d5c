from __future__ import annotations

import random
import socket
import sys
import types

import pytest

from fingerfuzz import wire
from fingerfuzz.fuzzgen import FuzzConfig
from fingerfuzz.labserver import LabServer, LabSession, Rule, ServerScript
from fingerfuzz.wire import (
    ANONYMOUS_PASSWORD,
    ANONYMOUS_USER,
    DRP,
    TMO,
    ReplyObservation,
    TargetSpec,
)

from simnet import SimNet

# Short client timeouts keep lab-server tests fast; SILENCE rules still
# register as timeouts well within these windows.
FAST_REPLY_TIMEOUT = 0.25
FAST_DRAIN_WINDOW = 0.01


def fast_target(port: int, **overrides) -> TargetSpec:
    params = dict(
        host="127.0.0.1",
        port=port,
        reply_timeout=FAST_REPLY_TIMEOUT,
        drain_window=FAST_DRAIN_WINDOW,
        connect_timeout=2.0,
    )
    params.update(overrides)
    return TargetSpec(**params)


def sim_target(sessions=1, **overrides) -> TargetSpec:
    """A target on the simulated network of the `simulate` fixture."""
    return fast_target(21, sessions=sessions, **overrides)


# every valid observation token: 500 codes and three sentinels
ALL_TOKENS = tuple(str(code) for code in range(100, 600)) + ("TMO", "DRP", "GBL")


def mixed_observations(chooser, tokens) -> tuple[ReplyObservation, ...]:
    """Observations of the tokens.  About half are new instances, equal to
    the shared ones ReplyObservation.from_token returns by value only."""
    return tuple(
        ReplyObservation.from_token(token) if chooser.random() < 0.5
        else ReplyObservation(token)
        for token in tokens
    )


def layout(config, index: int) -> tuple[str, int, int]:
    """(command, argument length, mutation step) of request `index` of a full
    collection, from the canonical order alone."""
    forms = config.mutations + 1
    within = index % config.block_length
    return (config.commands[index // config.block_length],
            within // (config.instances * forms), within % forms)


def is_base(config, record) -> bool:
    """Whether the record is an unmutated base request: its block's command,
    alone or with a printable argument of the length its index gives."""
    command, arg_len, _ = layout(config, record.index)
    head = command.encode("ascii")
    if arg_len == 0:
        return record.bytes == head
    arg = record.bytes[len(head) + 1:]
    return (record.bytes.startswith(head + b" ") and len(arg) == arg_len
            and all(0x20 <= b <= 0x7E for b in arg))


def predict_token(script: ServerScript, request: bytes) -> str:
    """Independent re-statement of the scripted behaviour, for oracles.  It
    reads each rule's spelling itself, not the response the rule stores."""
    head, _, arg = request.partition(b" ")
    for rule in script.rules:
        if rule.command != "*" and head.upper() != rule.command.encode():
            continue
        predicate, _, threshold = rule.predicate.partition(":")
        if predicate == "LEN_GT" and not len(arg) > int(threshold):
            continue
        if predicate == "NONPRINT" and not any(
            b < 0x20 or b > 0x7E for b in arg
        ):
            continue
        if predicate == "EMPTY" and len(arg) != 0:
            continue
        if rule.action == "DROP":
            return DRP
        if rule.action == "SILENCE":
            return TMO
        fields = rule.action.split(":")  # REPLY:code:text, MULTI:code:..., DELAY:ms:code:text
        return fields[2] if fields[0] == "DELAY" else fields[1]
    return str(script.default_code)


def logged_in(script: ServerScript) -> LabSession:
    """A lab session past the anonymous login, as a scan makes it.  From
    here on its replies depend on the request line alone."""
    session = LabSession(script)
    _, reply, _ = session.respond(f"USER {ANONYMOUS_USER}".encode("ascii"))
    if reply[:3] in (b"331", b"332"):
        session.respond(f"PASS {ANONYMOUS_PASSWORD}".encode("ascii"))
    return session


def lab_oracle(script: ServerScript, collection, faults=None) -> tuple[str, ...]:
    """The tokens a scan of `collection` at FAST_REPLY_TIMEOUT must record
    against a LabServer of `script`, by the scanner's documented rules.  Each
    run of one command block (`index // block_length`) starts on a fresh
    session and login, and so does the rest of a run after a DRP or TMO.
    Silence, or a delay at or above the reply timeout, is TMO; a drop is DRP;
    any other reply is its code.  It drives the target's own LabSession, not
    the scanner's code.  `faults` maps the index of a fault injected into the
    target to the token it decides there (DRP or TMO), or to None where the
    scripted reply stays; either way the connection ends after it."""
    faults = faults or {}
    block = collection.config.block_length
    tokens = []
    session = run = None
    for record in collection.records:
        if session is None or record.index // block != run:
            run = record.index // block
            session = logged_in(script)
        action, reply, delay = session.respond(record.bytes)
        if action == "DROP":
            token = DRP
        elif reply is None or delay >= FAST_REPLY_TIMEOUT:
            token = TMO
        else:
            token = reply[:3].decode("ascii")
        tokens.append(faults.get(record.index) or token)
        if tokens[-1] in (DRP, TMO) or record.index in faults:
            session = None
    return tuple(tokens)


HEADER_ORDERS = ("reversed", "rotated", "shuffled")


def reorder_header(data: bytes, closing: bytes, order: str) -> bytes:
    """The file with the header lines before its `#closing` line put in
    another order, one of HEADER_ORDERS."""
    lines = data.split(b"\n")
    end = lines.index(next(line for line in lines if line.startswith(b"#" + closing + b" ")))
    head = lines[:end]
    if order == "reversed":
        head.reverse()
    elif order == "rotated":
        head = head[1:] + head[:1]
    else:
        random.Random(7).shuffle(head)
    assert head != lines[:end]
    return b"\n".join(head + lines[end:])


CONFORMANCE_CONFIG = FuzzConfig(commands=("USER", "NOOP", "SYST", "FEAT"), max_arg_len=2,
                                instances=2, mutations=2, seed=7)


def random_script(rng: random.Random) -> ServerScript:
    """3-8 rules over every action.  SILENCE waits out the reply timeout, so
    it gets a named command and a rare predicate: an empty argument, or one
    longer than any unmutated argument."""
    commands = CONFORMANCE_CONFIG.commands
    rules = []
    for n in range(rng.randint(3, 8)):
        action = rng.choices(("REPLY", "MULTI", "DROP", "DELAY", "SILENCE"),
                             weights=(4, 2, 2, 2, 1))[0]
        if action == "SILENCE":
            command = rng.choice(commands)
            predicate = rng.choice(("EMPTY", "LEN_GT"))
        else:
            command = rng.choice(commands + ("*",))
            predicate = rng.choice(("ANY", "LEN_GT", "NONPRINT", "EMPTY"))
        if predicate == "LEN_GT":
            threshold = (CONFORMANCE_CONFIG.max_arg_len if action == "SILENCE"
                         else rng.randint(0, 3))
            predicate = f"LEN_GT:{threshold}"
        if action in ("REPLY", "MULTI", "DELAY"):
            code = rng.randint(100, 599)
        if action == "REPLY":
            action = f"REPLY:{code}:r{n}"
        elif action == "MULTI":
            action = f"MULTI:{code}:" + "|".join(f"m{n}-{i}" for i in range(rng.randint(1, 3)))
        elif action == "DELAY":
            action = f"DELAY:{rng.randint(0, 20)}:{code}:r{n}"
        rules.append(Rule(command, predicate, action))
    return ServerScript(name="random", user_code=rng.choice((331, 332, 230)),
                        pass_code=rng.choice((230, 202)), rules=tuple(rules),
                        default_code=rng.randint(100, 599))


def save_script(script: ServerScript) -> str:
    """The text of a lab script file that `labserver.load_script` reads
    back as `script`."""
    lines = [
        f"name {script.name}",
        f"greeting {script.greeting_code} {script.greeting_text}".rstrip(),
        f"login USER={script.user_code} PASS={script.pass_code}",
    ]
    lines += [f"rule {rule.command} {rule.predicate} {rule.action}" for rule in script.rules]
    lines.append(f"default {script.default_code} {script.default_text}".rstrip())
    return "\n".join(lines) + "\n"


def constant_script(name: str = "constant", code: int = 502) -> ServerScript:
    return ServerScript(name=name, default_code=code, default_text="nope")


@pytest.fixture
def lab_factory():
    """Start lab servers on ephemeral ports and stop them after the test."""
    servers: list[LabServer] = []

    def start(script: ServerScript) -> LabServer:
        server = LabServer(script).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


@pytest.fixture
def simulate(monkeypatch):
    """Route every connection of the test's scans to a new SimNet."""
    def install(open_peer, **options) -> SimNet:
        net = SimNet(open_peer, **options)
        monkeypatch.setattr(socket, "create_connection", net.create_connection)
        monkeypatch.setattr(wire, "time", types.SimpleNamespace(monotonic=net.monotonic))
        return net
    return install


@pytest.fixture
def fast_switching():
    """Switch threads every 10 us, so a race in the pool shows more often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)
