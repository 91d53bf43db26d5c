"""FTP control-connection client primitives.

A session owns one TCP connection and exchanges single-line requests for
replies.  Every exchange yields exactly one observation: a 3-digit status
code, or one of three fault sentinels (timeout, connection dropped,
garbled data), so a scan always stays positionally aligned with the
request collection.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass

from .errors import ConnectError, LoginError, TransportError

DEFAULT_PORT = 21
ANONYMOUS_USER = "anonymous"
ANONYMOUS_PASSWORD = "guest@example.com"

CODE = "CODE"
TIMEOUT = "TIMEOUT"
DROPPED = "DROPPED"
GARBLED = "GARBLED"

_TOKENS = {TIMEOUT: "TMO", DROPPED: "DRP", GARBLED: "GBL"}
_KIND_BY_TOKEN = {"TMO": TIMEOUT, "DRP": DROPPED, "GBL": GARBLED}

# A reply larger than this can no longer be an RFC-959 status line we care
# about; classify as garbled instead of buffering without bound.
MAX_REPLY_BYTES = 65536


@dataclass(frozen=True)
class ReplyObservation:
    kind: str
    code: int | None = None

    def __post_init__(self):
        if self.kind == CODE:
            if self.code is None or not 100 <= self.code <= 599:
                raise ValueError("CODE observation needs a code in 100..599")
        elif self.kind in _TOKENS:
            if self.code is not None:
                raise ValueError(f"{self.kind} observation carries no code")
        else:
            raise ValueError(f"unknown observation kind {self.kind!r}")

    def token(self) -> str:
        if self.kind == CODE:
            return f"{self.code:03d}"
        return _TOKENS[self.kind]

    @classmethod
    def from_token(cls, token: str) -> "ReplyObservation":
        """The shared instance for a token, so a parsed fingerprint refers to
        a few dozen objects instead of holding one per position."""
        obs = _INTERNED.get(token)
        if obs is not None:
            return obs
        if token in _KIND_BY_TOKEN:
            obs = cls(_KIND_BY_TOKEN[token])
        elif len(token) == 3 and token.isdigit() and 100 <= int(token) <= 599:
            obs = cls(CODE, int(token))
        else:
            raise ValueError(f"bad observation token {token!r}")
        # filled on first sight: all 503 built up front raised a scan's peak
        # memory by about 1 MB.  Racing threads can only store equal values.
        _INTERNED[token] = obs
        return obs


_INTERNED: dict[str, ReplyObservation] = {}


def of_code(code: int) -> ReplyObservation:
    return ReplyObservation(CODE, code)


TIMEOUT_OBS = ReplyObservation(TIMEOUT)
DROPPED_OBS = ReplyObservation(DROPPED)
GARBLED_OBS = ReplyObservation(GARBLED)


@dataclass(frozen=True)
class TargetSpec:
    host: str
    port: int = DEFAULT_PORT
    username: str = ANONYMOUS_USER
    password: str = ANONYMOUS_PASSWORD
    reply_timeout: float = 5.0
    drain_window: float = 0.2
    connect_timeout: float = 10.0

    def __post_init__(self):
        if not 1 <= self.port <= 65535:
            raise ValueError("port must be in 1..65535")
        if self.reply_timeout <= 0 or self.drain_window <= 0 or self.connect_timeout <= 0:
            raise ValueError("timeouts must be positive")
        if self.drain_window >= self.reply_timeout:
            raise ValueError("drain_window must be smaller than reply_timeout")

    @property
    def descriptor(self) -> str:
        return f"{self.host}:{self.port}"


class ReplyAccumulator:
    """Incremental recognizer for one RFC-959 reply.

    Feed it received chunks; it answers with an observation as soon as the
    buffered bytes decide one.  A single line ``ddd text`` (or a multiline
    block ``ddd-...`` closed by ``ddd text``) yields that code; a first
    line that cannot open a reply yields GARBLED.  The finish_* methods
    classify streams that ended without a decision.
    """

    def __init__(self, max_bytes: int = MAX_REPLY_BYTES):
        self._buffer = bytearray()
        self._consumed = 0
        self._max_bytes = max_bytes
        self._opener: bytes | None = None
        self._got_any = False

    def feed(self, chunk: bytes) -> ReplyObservation | None:
        if chunk:
            self._got_any = True
        self._buffer.extend(chunk)
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if len(self._buffer) + self._consumed > self._max_bytes:
                    return GARBLED_OBS
                return None
            line = bytes(self._buffer[:newline]).rstrip(b"\r")
            del self._buffer[: newline + 1]
            self._consumed += newline + 1
            decision = self._take_line(line)
            if decision is not None:
                return decision
            if self._consumed > self._max_bytes:
                return GARBLED_OBS

    def _take_line(self, line: bytes) -> ReplyObservation | None:
        digits = line[:3]
        if self._opener is not None:
            if digits == self._opener and (len(line) == 3 or line[3:4] == b" "):
                return of_code(int(digits))
            return None
        if not digits.isdigit() or len(line) < 3:
            return GARBLED_OBS
        code = int(digits)
        if not 100 <= code <= 599:
            return GARBLED_OBS
        if len(line) == 3 or line[3:4] == b" ":
            return of_code(code)
        if line[3:4] == b"-":
            self._opener = digits
            return None
        return GARBLED_OBS

    def finish_timeout(self) -> ReplyObservation:
        return GARBLED_OBS if self._got_any else TIMEOUT_OBS

    def finish_eof(self) -> ReplyObservation:
        return DROPPED_OBS


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

    def login(self, username: str | None = None, password: str | None = None):
        """USER/PASS handshake; success is a final 230 (or 202) reply.

        Returns (user_reply, pass_reply-or-None); raises LoginError on any
        other outcome, carrying both observations.
        """
        user = username if username is not None else self.target.username
        pwd = password if password is not None else self.target.password
        user_reply = self.exchange(f"USER {user}".encode("latin-1"))
        pass_reply = None
        final = user_reply
        if user_reply.kind == CODE and user_reply.code in (331, 332):
            pass_reply = self.exchange(f"PASS {pwd}".encode("latin-1"))
            final = pass_reply
        if final.kind == CODE and final.code in (230, 202):
            return user_reply, pass_reply
        raise LoginError(
            f"login rejected ({final.token()})", user_reply, pass_reply
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
            return DROPPED_OBS
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
    session = FtpSession(target, sock, GARBLED_OBS)
    session.greeting = session._read_reply()
    return session
