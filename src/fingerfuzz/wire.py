"""FTP control-connection client primitives.

A session owns one TCP connection and exchanges single-line requests for
replies.  Every exchange yields exactly one observation, which is its
three-character token: a status code "100".."599", or one of three fault
sentinels, TMO (timeout), DRP (connection dropped) or GBL (garbled data),
so a scan always stays positionally aligned with the request collection.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass

from .errors import ConnectError, LoginError, TransportError

DEFAULT_PORT = 21
ANONYMOUS_USER = "anonymous"
ANONYMOUS_PASSWORD = "guest@example.com"

# Concurrent sessions of one scan, at most: a target that refuses a
# connection shrinks the pool.  The cap is above the 27 segments of the
# default collection and keeps a typo from opening hundreds of connections.
# More sessions finish sooner (default collection, lab target, 2-core host:
# about 6 s at 2, 3 s at 4, 1.9 s at 8), but on a loaded host the scan time
# varies from run to run by a share that does not shrink with the speed-up;
# 4 is the most whose spread in requests per second stayed within the
# benchmark's bound (ROADMAP item 3).
DEFAULT_SESSIONS = 4
MAX_SESSIONS = 32

# A reply larger than this can no longer be an RFC-959 status line we care
# about; classify as garbled instead of buffering without bound.
MAX_REPLY_BYTES = 65536


class ReplyObservation(str):
    """One observation: its three-character token, a status code "100".."599"
    or a fault sentinel (TMO, DRP, GBL).  Hash and equality are `str`'s, so an
    observation equals its plain token."""

    __slots__ = ()

    def token(self) -> str:
        return self

    @staticmethod
    def from_token(token: str) -> "ReplyObservation":
        """The shared instance of a valid token, so a parsed fingerprint refers
        to a few dozen objects instead of holding one per position."""
        try:
            return BY_TOKEN[token]
        except KeyError:
            raise ValueError(f"bad observation token {token!r}") from None


# every valid token -> its shared observation; built once, never changed
BY_TOKEN: dict[str, ReplyObservation] = {
    token: ReplyObservation(token)
    for token in (*map(str, range(100, 600)), "TMO", "DRP", "GBL")
}
TMO = BY_TOKEN["TMO"]  # no reply within the reply timeout
DRP = BY_TOKEN["DRP"]  # connection closed before a reply
GBL = BY_TOKEN["GBL"]  # bytes that do not form a reply


@dataclass(frozen=True)
class TargetSpec:
    host: str
    port: int = DEFAULT_PORT
    username: str = ANONYMOUS_USER
    password: str = ANONYMOUS_PASSWORD
    reply_timeout: float = 5.0
    drain_window: float = 0.2
    connect_timeout: float = 10.0
    sessions: int = DEFAULT_SESSIONS

    def __post_init__(self):
        if not 1 <= self.port <= 65535:
            raise ValueError("port must be in 1..65535")
        for name in ("reply_timeout", "drain_window", "connect_timeout"):
            # NaN fails the comparison too; socket and thread waits refuse longer
            if not 0 < getattr(self, name) <= threading.TIMEOUT_MAX:
                raise ValueError(f"{name} must be a number of seconds in "
                                 f"(0, {threading.TIMEOUT_MAX:.0f}]")
        if self.drain_window >= self.reply_timeout:
            raise ValueError("drain_window must be smaller than reply_timeout")
        if not 1 <= self.sessions <= MAX_SESSIONS:
            raise ValueError(f"sessions must be in 1..{MAX_SESSIONS}")

    @property
    def descriptor(self) -> str:
        return f"{self.host}:{self.port}"


class ReplyAccumulator:
    """Incremental recognizer for one RFC-959 reply.

    Feed it received chunks; it answers with an observation as soon as the
    buffered bytes decide one.  A single line ``ddd text`` (or a multiline
    block ``ddd-...`` closed by ``ddd text``) yields that code; a first
    line that cannot open a reply yields GBL.  The finish_* methods
    classify streams that ended without a decision.
    """

    def __init__(self):
        self._buffer = bytearray()
        self._consumed = 0
        self._opener: ReplyObservation | None = None
        self._got_any = False

    def feed(self, chunk: bytes) -> ReplyObservation | None:
        if chunk:
            self._got_any = True
        self._buffer.extend(chunk)
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if len(self._buffer) + self._consumed > MAX_REPLY_BYTES:
                    return GBL
                return None
            line = bytes(self._buffer[:newline]).rstrip(b"\r")
            del self._buffer[: newline + 1]
            self._consumed += newline + 1
            decision = self._take_line(line)
            if decision is not None:
                return decision
            if self._consumed > MAX_REPLY_BYTES:
                return GBL

    def _take_line(self, line: bytes) -> ReplyObservation | None:
        # digits first: the table also holds the sentinel tokens
        obs = BY_TOKEN.get(line[:3].decode("latin-1")) if line[:3].isdigit() else None
        closes = len(line) == 3 or line[3:4] == b" "
        if self._opener is not None:
            return obs if closes and obs == self._opener else None
        if obs is None:
            return GBL
        if closes:
            return obs
        if line[3:4] == b"-":
            self._opener = obs
            return None
        return GBL

    def finish_timeout(self) -> ReplyObservation:
        return GBL if self._got_any else TMO

    def finish_eof(self) -> ReplyObservation:
        return DRP


class FtpSession:
    """One sequential control connection; one outstanding request at a time."""

    def __init__(self, target: TargetSpec, sock: socket.socket, greeting: ReplyObservation):
        self.target = target
        self._sock = sock
        self.greeting = greeting
        self._alive = True

    @property
    def alive(self) -> bool:
        return self._alive

    def close(self) -> None:
        self._alive = False
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def login(self):
        """USER/PASS handshake with the target's credentials; success is a
        final 230 (or 202) reply.

        Returns (user_reply, pass_reply-or-None); raises LoginError on any
        other outcome, carrying both observations.
        """
        user_reply = self.exchange(f"USER {self.target.username}".encode("latin-1"))
        pass_reply = None
        final = user_reply
        if user_reply in ("331", "332"):
            pass_reply = self.exchange(f"PASS {self.target.password}".encode("latin-1"))
            final = pass_reply
        if final in ("230", "202"):
            return user_reply, pass_reply
        raise LoginError(
            f"login rejected ({final})", user_reply, pass_reply
        )

    def exchange(self, request: bytes) -> ReplyObservation:
        """Send one request line and read exactly one reply observation."""
        if b"\r" in request or b"\n" in request:
            raise ValueError("request must not contain CR or LF")
        if not self._alive:
            raise TransportError("session is closed")
        try:
            self._sock.sendall(request + b"\r\n")
        except ConnectionError:
            self.close()
            return DRP
        except OSError as exc:
            self.close()
            raise TransportError(f"send failed: {exc}") from exc
        return self._read_reply()

    def _read_reply(self) -> ReplyObservation:
        acc = ReplyAccumulator()
        deadline = time.monotonic() + self.target.reply_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return acc.finish_timeout()
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(4096)
            except socket.timeout:
                return acc.finish_timeout()
            except ConnectionError:
                self.close()
                return acc.finish_eof()
            except OSError as exc:
                self.close()
                raise TransportError(f"receive failed: {exc}") from exc
            if not chunk:
                self.close()
                return acc.finish_eof()
            decision = acc.feed(chunk)
            if decision is not None:
                self._drain()
                return decision

    def _drain(self) -> None:
        """Discard bytes arriving shortly after a reply (alignment guard)."""
        if not self._alive:
            return
        end = time.monotonic() + self.target.drain_window
        while True:
            remaining = end - time.monotonic()
            if remaining <= 0:
                return
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(4096)
            except socket.timeout:
                return
            except OSError:
                self.close()
                return
            if not chunk:
                self.close()
                return


def connect(target: TargetSpec) -> FtpSession:
    """Open the control connection and read the greeting."""
    try:
        sock = socket.create_connection(
            (target.host, target.port), timeout=target.connect_timeout
        )
    except OSError as exc:
        raise ConnectError(f"cannot connect to {target.descriptor}: {exc}") from exc
    session = FtpSession(target, sock, GBL)
    session.greeting = session._read_reply()
    return session
