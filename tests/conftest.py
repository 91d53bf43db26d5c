from __future__ import annotations

import pytest

from fingerfuzz.labserver import LabServer, ServerScript
from fingerfuzz.wire import ReplyObservation, TargetSpec

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
