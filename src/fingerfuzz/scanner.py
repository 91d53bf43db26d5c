"""Runs a request collection against one target and records the reply vector.

The resulting fingerprint holds one observation per collection record, in
order.  A dropped connection is itself recorded as an observation; the
scanner then reconnects and re-logs-in so that later positions stay
aligned with their requests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import BinaryIO

from . import wire
from .errors import (
    ConnectError,
    LoginError,
    ParseError,
    PartialScanError,
    ScanRefusedError,
    TransportError,
)
from .fuzzgen import FuzzCollection
from .wire import FtpSession, ReplyObservation, TargetSpec

FP_VERSION = 1

RECONNECT_ATTEMPTS = 3


@dataclass(frozen=True)
class Fingerprint:
    collection_digest: str
    target: str
    observations: tuple[ReplyObservation, ...]
    label: str | None = None
    created_at: datetime = field(
        default_factory=lambda: datetime.now(timezone.utc).replace(microsecond=0)
    )
    greeting: ReplyObservation = wire.GARBLED_OBS
    login: tuple[ReplyObservation, ...] = ()


def fingerprint_target(
    collection: FuzzCollection,
    target: TargetSpec,
    label: str | None = None,
    delay: float = 0.0,
) -> Fingerprint:
    """Send every collection record in order and return the reply vector.

    Requires a successful login first: without valid access all servers of
    interest answer with one uniform error code and cannot be told apart.
    """
    session = wire.connect(target)
    try:
        user_reply, pass_reply = session.login()
    except LoginError as exc:
        session.close()
        raise ScanRefusedError(
            f"{target.descriptor} refused login ({exc}); "
            "unauthenticated servers are indistinguishable",
            exc.user_reply,
            exc.pass_reply,
        ) from exc
    greeting = session.greeting
    login_obs = (user_reply,) + ((pass_reply,) if pass_reply is not None else ())

    observations: list[ReplyObservation] = []
    try:
        for record in collection.records:
            attempts_left = RECONNECT_ATTEMPTS
            while True:
                if not session.alive:
                    session = _reconnect(target, len(observations))
                try:
                    obs = session.exchange(record.bytes)
                    break
                except TransportError as exc:
                    session.close()
                    attempts_left -= 1
                    if attempts_left <= 0:
                        raise PartialScanError(
                            f"transport failure at request {record.index}: {exc}",
                            completed=len(observations),
                        ) from exc
            observations.append(obs)
            if delay > 0:
                time.sleep(delay)
    finally:
        session.close()

    return Fingerprint(
        collection_digest=collection.digest,
        target=target.descriptor,
        observations=tuple(observations),
        label=label,
        greeting=greeting,
        login=login_obs,
    )


def _reconnect(target: TargetSpec, completed: int) -> FtpSession:
    last_error: Exception | None = None
    for _ in range(RECONNECT_ATTEMPTS):
        try:
            session = wire.connect(target)
            session.login()
            return session
        except (ConnectError, LoginError, TransportError) as exc:
            last_error = exc
    raise PartialScanError(
        f"reconnect to {target.descriptor} failed {RECONNECT_ATTEMPTS} times: "
        f"{last_error}",
        completed=completed,
    )


def _format_created(stamp: datetime) -> str:
    return stamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_created(text: str, line_no: int) -> datetime:
    try:
        return datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"bad timestamp {text!r}", line_no) from None


def check_label(label: str) -> None:
    """Raise ValueError unless the label fits on one ASCII `#label` line."""
    if not label.isascii() or "\n" in label or "\r" in label:
        raise ValueError(f"label must be ASCII without CR or LF: {label!r}")


def write_fingerprint(fp: Fingerprint, sink: BinaryIO) -> None:
    if fp.label is not None:
        check_label(fp.label)
    if not 1 <= len(fp.login) <= 2:
        raise ValueError("fingerprint needs one or two login observations")
    if not fp.observations:
        raise ValueError("fingerprint has no observations")
    lines = [
        f"#fp-version {FP_VERSION}",
        f"#collection {fp.collection_digest}",
        f"#target {fp.target}",
    ]
    if fp.label is not None:
        lines.append(f"#label {fp.label}")
    lines.append(f"#created {_format_created(fp.created_at)}")
    lines.append(f"#greeting {fp.greeting.token()}")
    lines.append(f"#login {','.join(obs.token() for obs in fp.login)}")
    for obs in fp.observations:
        lines.append(obs.token())
    sink.write(("\n".join(lines) + "\n").encode("ascii"))


def read_fingerprint(source: BinaryIO) -> Fingerprint:
    headers: dict[str, tuple[str, int]] = {}
    tokens: list[ReplyObservation] = []
    in_body = False
    for line_no, raw in enumerate(source.read().split(b"\n"), start=1):
        try:
            line = raw.decode("ascii")
        except UnicodeDecodeError:
            raise ParseError("non-ASCII byte in fingerprint file", line_no) from None
        if not line:
            continue
        if not in_body and line.startswith("#"):
            key, _, value = line[1:].partition(" ")
            if key in headers:
                raise ParseError(f"duplicate header '{key}'", line_no)
            headers[key] = (value, line_no)
            continue
        in_body = True
        try:
            tokens.append(ReplyObservation.from_token(line))
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None

    def need(key: str) -> tuple[str, int]:
        if key not in headers:
            raise ParseError(f"missing header '{key}'")
        return headers[key]

    version, line_no = need("fp-version")
    if version != str(FP_VERSION):
        raise ParseError(f"unsupported fp-version {version!r}", line_no)
    digest, line_no = need("collection")
    if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
        raise ParseError("collection digest must be 64 lowercase hex chars", line_no)
    target, _ = need("target")
    label = headers.get("label", (None, 0))[0]
    created_text, line_no = need("created")
    created = _parse_created(created_text, line_no)
    greeting_text, line_no = need("greeting")
    try:
        greeting = ReplyObservation.from_token(greeting_text)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None
    login_text, line_no = need("login")
    login_tokens = [t for t in login_text.split(",") if t]
    if not 1 <= len(login_tokens) <= 2:
        raise ParseError("login header needs one or two tokens", line_no)
    try:
        login = tuple(ReplyObservation.from_token(t) for t in login_tokens)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None
    known = {"fp-version", "collection", "target", "label", "created", "greeting", "login"}
    for key, (_, line_no) in headers.items():
        if key not in known:
            raise ParseError(f"unknown header '{key}'", line_no)
    if not tokens:
        raise ParseError("fingerprint has no observations")
    return Fingerprint(
        collection_digest=digest,
        target=target,
        observations=tuple(tokens),
        label=label,
        created_at=created,
        greeting=greeting,
        login=login,
    )


def save_fingerprint(fp: Fingerprint, path) -> None:
    import io

    from .fileio import atomic_write

    buf = io.BytesIO()
    write_fingerprint(fp, buf)
    atomic_write(path, buf.getvalue())


def load_fingerprint(path) -> Fingerprint:
    with open(path, "rb") as fh:
        return read_fingerprint(fh)
