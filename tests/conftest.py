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
