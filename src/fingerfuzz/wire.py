"""FTP control-connection client primitives.

A session owns one TCP connection and exchanges single-line requests for
replies.  Every exchange yields exactly one observation, which is its
three-character token: a status code "100".."599", or one of three fault
sentinels, TMO (timeout), DRP (connection dropped) or GBL (garbled data),
so a scan always stays positionally aligned with the request collection.

A read ends in one of three ways.  A decision (a reply, or garbage: GBL)
is followed by a drain window that discards stray bytes; the session stays
open.  The end of the connection, a reset included, gives DRP and closes
the session.  The reply timeout gives TMO if nothing arrived, and GBL if
it cut a reply off.  Both close the session, whose late reply or its rest
would otherwise be read as the next reply; only a silent greeting leaves it
open.  `login` refuses a closed session and a greeting with a 4xx or 5xx
code, and closes the session whenever it refuses.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from dataclasses import dataclass

from .errors import ConnectError, ScanRefusedError, TransportError

DEFAULT_PORT = 21
ANONYMOUS_USER = "anonymous"
ANONYMOUS_PASSWORD = "guest@example.com"

# Concurrent sessions of one scan, at most, and the default: each command
# block goes out on its own login, so a scan of up to this many blocks
# sends them all at once and takes as long as its slowest block.  A target
# that refuses a connection shrinks the pool, and the cap keeps a typo from
# opening hundreds of connections.
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
    sessions: int = MAX_SESSIONS
    delay: float = 0.0  # the pause after each request of one session

    def __post_init__(self):
        if not self.host:
            raise ValueError("host must not be empty")
        # the fingerprint's `#target` line is ASCII, and no host name holds a space
        if not (self.host.isascii() and self.host.isprintable()) or " " in self.host:
            raise ValueError("host must be printable ASCII without spaces: give an "
                             "international name in its IDNA (xn--) form")
        if not 1 <= self.port <= 65535:
            raise ValueError("port must be in 1..65535")
        for name in ("reply_timeout", "drain_window", "connect_timeout"):
            # NaN fails the comparison too; socket and thread waits refuse longer
            if not 0 < getattr(self, name) <= threading.TIMEOUT_MAX:
                raise ValueError(f"{name} must be a number of seconds in "
                                 f"(0, {threading.TIMEOUT_MAX:.0f}]")
        if not 0 <= self.delay <= threading.TIMEOUT_MAX:
            raise ValueError(f"delay must be a number of seconds in "
                             f"[0, {threading.TIMEOUT_MAX:.0f}]")
        if self.drain_window >= self.reply_timeout:
            raise ValueError("drain_window must be smaller than reply_timeout")
        if not 1 <= self.sessions <= MAX_SESSIONS:
            raise ValueError(f"sessions must be in 1..{MAX_SESSIONS}")
        for name in ("username", "password"):
            # the login sends each in one latin-1 request line
            if any(ch in "\r\n" or ord(ch) > 0xFF for ch in getattr(self, name)):
                raise ValueError(f"{name} must be latin-1 text without CR or LF")

    @property
    def descriptor(self) -> str:
        return host_port(self.host, self.port)


def host_port(host: str, port: int) -> str:
    """`host:port`, an IPv6 address in brackets, as a targets file spells it."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


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

    def feed(self, chunk: bytes) -> ReplyObservation | None:
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
        return GBL if self._consumed or self._buffer else TMO

    def finish_eof(self) -> ReplyObservation:
        return DRP


class FtpSession:
    """One sequential control connection; one outstanding request at a time.
    Constructing it reads the greeting."""

    def __init__(self, target: TargetSpec, sock: socket.socket):
        self.target = target
        self._sock = sock
        self.alive = True
        self.greeting = self._read_reply()

    def close(self) -> None:
        self.alive = False
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def login(self):
        """USER/PASS handshake with the target's credentials; success is a
        final 230 (or 202) reply.

        Returns (user_reply, pass_reply-or-None).  Raises ScanRefusedError,
        and closes the session, if it is closed or greeted with a 4xx or 5xx
        code, or on any other login outcome, carrying both observations.
        """
        if not self.alive or self.greeting[0] in "45":
            self.close()
            raise ScanRefusedError(f"{self.target.descriptor} refused the connection "
                                   f"(greeting {self.greeting})")
        user_reply = self.exchange(f"USER {self.target.username}".encode("latin-1"))
        pass_reply = None
        if user_reply in ("331", "332"):
            pass_reply = self.exchange(f"PASS {self.target.password}".encode("latin-1"))
        final = pass_reply or user_reply
        if final in ("230", "202"):
            return user_reply, pass_reply
        self.close()
        raise ScanRefusedError(
            f"{self.target.descriptor} refused login ({final}); "
            "unauthenticated servers are indistinguishable",
            user_reply, pass_reply,
        )

    def exchange(self, request: bytes) -> ReplyObservation:
        """Send one request line and read exactly one reply observation."""
        if b"\r" in request or b"\n" in request:
            raise ValueError("request must not contain CR or LF")
        if not self.alive:
            raise TransportError("session is closed")
        try:
            self._sock.sendall(request + b"\r\n")
        except ConnectionError:
            self.close()
            return DRP
        except OSError as exc:
            self.close()
            raise TransportError(f"send failed: {exc}") from exc
        if (obs := self._read_reply()) is TMO:
            self.close()  # a late reply must not answer the next request
        return obs

    def _recv(self, deadline: float) -> bytes | None:
        """The next chunk; None once the deadline passes; b"" once the
        connection has ended, which closes the session."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return None
        self._sock.settimeout(remaining)
        try:
            chunk = self._sock.recv(4096)
        except socket.timeout:
            return None
        except ConnectionError:
            chunk = b""
        except OSError as exc:
            self.close()
            raise TransportError(f"receive failed: {exc}") from exc
        if not chunk:
            self.close()
        return chunk

    def _read_reply(self) -> ReplyObservation:
        acc = ReplyAccumulator()
        deadline = time.monotonic() + self.target.reply_timeout
        while chunk := self._recv(deadline):
            if (decision := acc.feed(chunk)) is not None:
                self._drain()
                return decision
        if chunk == b"":
            return acc.finish_eof()
        if (obs := acc.finish_timeout()) is GBL:
            self.close()  # the rest of a cut-off reply must not answer the next request
        return obs

    def _drain(self) -> None:
        """Discard bytes arriving shortly after a reply (alignment guard).
        The reply is decided, so a local receive error only ends the session."""
        end = time.monotonic() + self.target.drain_window
        with contextlib.suppress(TransportError):
            while self._recv(end):
                pass


def connect(target: TargetSpec) -> FtpSession:
    """Open the control connection and read the greeting."""
    try:
        sock = socket.create_connection(
            (target.host, target.port), timeout=target.connect_timeout
        )
    except OSError as exc:
        raise ConnectError(f"cannot connect to {target.descriptor}: {exc}") from exc
    try:
        return FtpSession(target, sock)
    except BaseException:  # Ctrl-C while the greeting is read
        sock.close()
        raise
