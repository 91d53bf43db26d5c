"""Runs a request collection against one target and records the reply vector.

The resulting fingerprint holds one observation per collection record, in
order.  The scan is cut into segments of one command block each (the
per-command length of the collection's config; a reduced collection is cut
into runs of the same length), so the segments depend only on the `.fc`
file.  Every segment runs on its own connection and login, so state left by
fuzzed USER, PASS or REIN requests does not leak into the next block, and
up to `TargetSpec.sessions` segments run at the same time.  The first login
is made before any other connection: a refused login opens no second one.

Within a segment, a dropped connection is itself recorded as an
observation; the scanner then reconnects and logs in again so that later
positions stay aligned with their requests.  A timeout is handled the same
way, because a reply that arrives late would otherwise be read as the
answer to the next request.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
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
from .fuzzgen import FuzzCollection, RequestRecord
from .wire import FtpSession, ReplyObservation, TargetSpec

# Version 2: segmented sessions, and a reconnect after every timeout.
# Version 1 files (one session in scan order) are still read, so a database
# stays loadable, but FingerprintDB refuses to mix the two versions.
FP_VERSION = 2
READABLE_FP_VERSIONS = (1, 2)

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
    fp_version: int = FP_VERSION


def segment_length(collection: FuzzCollection) -> int:
    """Records per command block of the collection's config."""
    config = collection.config
    return (config.max_arg_len + 1) * config.instances * (config.mutations + 1)


def fingerprint_target(
    collection: FuzzCollection,
    target: TargetSpec,
    label: str | None = None,
    delay: float = 0.0,
) -> Fingerprint:
    """Send every collection record and return the reply vector in order.

    Requires a successful login first: without valid access all servers of
    interest answer with one uniform error code and cannot be told apart.
    `delay` is the pause after each request of one session.
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

    step = segment_length(collection)
    records = collection.records
    stop = threading.Event()
    pool = ThreadPoolExecutor(target.sessions, thread_name_prefix="fingerfuzz-scan")
    try:
        futures = [
            pool.submit(_scan_segment, target, records[start:start + step], delay,
                        stop, session if start == 0 else None)
            for start in range(0, len(records), step)
        ]
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            if future in done and future.exception() is not None:
                raise future.exception()
        observations = tuple(obs for future in futures for obs in future.result())
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)
        session.close()

    return Fingerprint(
        collection_digest=collection.digest,
        target=target.descriptor,
        observations=observations,
        label=label,
        greeting=greeting,
        login=login_obs,
    )


def _scan_segment(
    target: TargetSpec,
    records: tuple[RequestRecord, ...],
    delay: float,
    stop: threading.Event,
    session: FtpSession | None,
) -> list[ReplyObservation] | None:
    """One segment on the given session, or on a fresh login if None.

    Returns None, unfinished, once `stop` is set.  A failure sets `stop`
    itself, so that no other segment sends another request or connects.
    """
    observations: list[ReplyObservation] = []
    try:
        for record in records:
            attempts_left = RECONNECT_ATTEMPTS
            while True:
                if stop.is_set():
                    return None
                if session is None or not session.alive:
                    session = _reconnect(target)
                try:
                    obs = session.exchange(record.bytes)
                    break
                except TransportError as exc:
                    session.close()
                    attempts_left -= 1
                    if attempts_left <= 0:
                        raise PartialScanError(
                            f"transport failure at request {record.index}: {exc}"
                        ) from exc
            if obs.kind == wire.TIMEOUT:
                session.close()  # a late reply must not answer the next request
            observations.append(obs)
            if delay > 0:
                stop.wait(delay)
    except BaseException:
        stop.set()
        raise
    finally:
        if session is not None:
            session.close()
    return observations


def _reconnect(target: TargetSpec) -> FtpSession:
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
        f"{last_error}"
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
    if fp.fp_version not in READABLE_FP_VERSIONS:
        raise ValueError(f"unknown fp-version {fp.fp_version}")
    lines = [
        f"#fp-version {fp.fp_version}",
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
    if version not in map(str, READABLE_FP_VERSIONS):
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
        fp_version=int(version),
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
