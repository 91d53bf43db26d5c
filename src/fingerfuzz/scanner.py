"""Runs a request collection against one target and records the reply vector.

The resulting fingerprint holds one observation per collection record, in
order.  The scan is cut into runs: index ranges whose first request goes
out on a fresh login.  The queue of runs starts with the segments of one
command block each (`FuzzConfig.block_length` of the collection's config; a
reduced collection is cut into runs of the same length), so the
fingerprint depends only on the `.fc` file, and state left by fuzzed USER,
PASS or REIN requests does not leak into the next block.  Up to
`TargetSpec.sessions` sessions take runs from the queue.  The first login is made before any
other connection: a refused login opens no second one.

Within a run, a dropped connection is itself recorded as an observation;
the rest of the run then goes out on a fresh login, so that later
positions stay aligned with their requests.  A timeout is handled the same
way, because a reply that arrives late would otherwise be read as the
answer to the next request.  When the target refuses a fresh session
while other sessions still work (servers cap connections per address), the
refused one hands its unsent rest back to the queue and retires, so the
pool shrinks to what the target admits and no request is sent twice.
"""

from __future__ import annotations

import io
import logging
import threading
from collections import deque
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
from .fileio import atomic_write, decode_ascii, format_header, parse_header
from .fuzzgen import FuzzCollection, RequestRecord
from .wire import FtpSession, ReplyObservation, TargetSpec

log = logging.getLogger("fingerfuzz.scanner")

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
    greeting: ReplyObservation = wire.GBL
    login: tuple[ReplyObservation, ...] = ()
    fp_version: int = FP_VERSION


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
    session, login_obs = _open(target)
    step = collection.config.block_length
    count = len(collection.records)
    try:
        observations = _SessionPool(
            target, collection.records, delay, session,
            [(start, min(start + step, count)) for start in range(0, count, step)],
        ).scan()
    finally:
        session.close()
    return Fingerprint(
        collection_digest=collection.digest,
        target=target.descriptor,
        observations=observations,
        label=label,
        greeting=session.greeting,
        login=login_obs,
    )


def _open(target: TargetSpec) -> tuple[FtpSession, tuple[ReplyObservation, ...]]:
    """A logged-in session and its login replies.

    Raises ScanRefusedError when the greeting turns the connection away
    (a 4xx or 5xx code, or the connection closed) or the login is rejected.
    """
    session = wire.connect(target)
    try:
        greeting = session.greeting
        if not session.alive or greeting[0] in "45":  # a 4xx or 5xx code
            raise ScanRefusedError(
                f"{target.descriptor} refused the connection (greeting {greeting})"
            )
        try:
            user_reply, pass_reply = session.login()
        except LoginError as exc:
            raise ScanRefusedError(
                f"{target.descriptor} refused login ({exc}); "
                "unauthenticated servers are indistinguishable",
                exc.user_reply,
                exc.pass_reply,
            ) from exc
    except BaseException:
        session.close()
        raise
    return session, (user_reply,) + ((pass_reply,) if pass_reply is not None else ())


class _SessionPool:
    """Workers that scan runs from one queue into one observation vector.

    A worker leaves only when the queue is empty and no worker holds a
    run, or once the scan is halted: a run held elsewhere may still be
    handed back.
    """

    def __init__(self, target: TargetSpec, records: tuple[RequestRecord, ...],
                 delay: float, session: FtpSession, runs: list[tuple[int, int]]):
        self.target = target
        self.records = records
        self.delay = delay
        self.observations: list[ReplyObservation | None] = [None] * len(records)
        self._spare: FtpSession | None = session  # logged in; serves the first run taken
        self._runs = deque(runs)
        self._held = 0  # runs a worker is scanning
        self._live = 0  # workers not retired
        self._changed = threading.Condition()
        self._halt = threading.Event()
        self._error: BaseException | None = None

    def scan(self) -> tuple[ReplyObservation, ...]:
        """Run the workers to the end; raise the first failure of any."""
        workers = [threading.Thread(target=self._work, name=f"fingerfuzz-scan-{n}")
                   for n in range(min(self.target.sessions, len(self._runs)))]
        self._live = len(workers)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            self._stop()  # also on Ctrl-C: no worker outlives the scan
            for worker in workers:
                if worker.ident is not None:
                    worker.join()
        if self._error is not None:
            raise self._error
        return tuple(self.observations)

    def _stop(self) -> None:
        self._halt.set()
        with self._changed:
            self._changed.notify_all()

    def _work(self) -> None:
        try:
            while (taken := self._take()) is not None and self._scan_run(*taken):
                pass
        except BaseException as exc:  # raised on the calling thread by scan()
            with self._changed:
                if self._error is None:
                    self._error = exc
            self._stop()

    def _take(self) -> tuple[FtpSession | None, int, int] | None:
        """The next run and the session to start it on (None: log in first)."""
        with self._changed:
            while not self._runs and self._held and not self._halt.is_set():
                self._changed.wait()
            if self._halt.is_set() or not self._runs:
                return None
            self._held += 1
            session, self._spare = self._spare, None
            return (session, *self._runs.popleft())

    def _scan_run(self, session: FtpSession | None, start: int, end: int) -> bool:
        """Scan records[start:end]; False once this worker has to leave."""
        records = self.records
        try:
            for index in range(start, end):
                attempts_left = RECONNECT_ATTEMPTS
                while True:
                    if self._halt.is_set():
                        return False
                    if session is None or not session.alive:
                        session = self._fresh_session(index, end)
                        if session is None:
                            return False
                    try:
                        obs = session.exchange(records[index].bytes)
                        break
                    except TransportError as exc:
                        session.close()
                        attempts_left -= 1
                        if attempts_left <= 0:
                            raise PartialScanError(
                                f"transport failure at request {records[index].index}: {exc}"
                            ) from exc
                if obs == wire.TMO:
                    session.close()  # a late reply must not answer the next request
                self.observations[index] = obs
                if self.delay > 0:
                    self._halt.wait(self.delay)
        finally:
            if session is not None:
                session.close()
        with self._changed:
            self._held -= 1
            self._changed.notify_all()
        return True

    def _fresh_session(self, index: int, end: int) -> FtpSession | None:
        """A logged-in session for records[index:end], or None once the
        scan halts or this worker handed them back and retired.  Only the
        last worker retries a refused session."""
        for _ in range(RECONNECT_ATTEMPTS):
            try:
                return _open(self.target)[0]
            except (ConnectError, ScanRefusedError, TransportError) as exc:
                last_error = exc
            with self._changed:
                if self._live > 1:
                    self._live -= 1
                    self._held -= 1
                    self._runs.append((index, end))
                    self._changed.notify_all()
                    # under the lock, so the counts are logged in order
                    log.warning("%s refused a new session; scanning on with %d: %s",
                                self.target.descriptor, self._live, last_error)
                    return None
            if self._halt.is_set():
                return None
        raise PartialScanError(
            f"reconnect to {self.target.descriptor} failed {RECONNECT_ATTEMPTS} times: "
            f"{last_error}"
        )


def _format_created(stamp: datetime) -> str:
    return stamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_created(text: str) -> datetime:
    try:
        return datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(f"bad timestamp {text!r}") from None


def _parse_fp_version(text: str) -> int:
    if text not in map(str, READABLE_FP_VERSIONS):
        raise ValueError(f"unsupported fp-version {text!r}")
    return int(text)


def _parse_digest(text: str) -> str:
    if len(text) != 64 or any(c not in "0123456789abcdef" for c in text):
        raise ValueError("collection digest must be 64 lowercase hex chars")
    return text


def _parse_login(text: str) -> tuple[ReplyObservation, ...]:
    tokens = [t for t in text.split(",") if t]
    if not 1 <= len(tokens) <= 2:
        raise ValueError("login header needs one or two tokens")
    return tuple(ReplyObservation.from_token(t) for t in tokens)


# key -> value parser, in the order write_fingerprint emits them
_FP_HEADER = {
    "fp-version": _parse_fp_version,
    "collection": _parse_digest,
    "target": str,
    "label": str,
    "created": _parse_created,
    "greeting": ReplyObservation.from_token,
    "login": _parse_login,
}


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
    if not wire.BY_TOKEN.keys() >= {fp.greeting, *fp.login, *fp.observations}:
        raise ValueError("fingerprint holds a string that is no observation token")
    if fp.fp_version not in READABLE_FP_VERSIONS:
        raise ValueError(f"unknown fp-version {fp.fp_version}")
    sink.write(format_header([
        ("fp-version", fp.fp_version),
        ("collection", fp.collection_digest),
        ("target", fp.target),
        ("label", fp.label),
        ("created", _format_created(fp.created_at)),
        ("greeting", fp.greeting),
        ("login", ",".join(fp.login)),
    ]))
    sink.write(("\n".join(fp.observations) + "\n").encode("ascii"))


def read_fingerprint(source: BinaryIO) -> Fingerprint:
    """Parse a fingerprint file; its header closes with the `#login` line, and
    every body line is one observation token."""
    lines = decode_ascii(source.read(), "fingerprint file").split("\n")
    if lines[-1] == "":
        lines.pop()  # the file's terminating LF, not a blank line
    headers, start = parse_header(lines, _FP_HEADER, "login", optional=("label",))
    body = lines[start:]
    try:
        observations = tuple(map(wire.BY_TOKEN.__getitem__, body))
    except KeyError:
        line_no, bad = next((n, line) for n, line in enumerate(body, start + 1)
                            if line not in wire.BY_TOKEN)
        raise ParseError(f"bad observation token {bad!r}" if bad else "blank line",
                         line_no) from None
    if not observations:
        raise ParseError("fingerprint has no observations")
    return Fingerprint(
        collection_digest=headers["collection"],
        target=headers["target"],
        observations=observations,
        label=headers.get("label"),
        created_at=headers["created"],
        greeting=headers["greeting"],
        login=headers["login"],
        fp_version=headers["fp-version"],
    )


def save_fingerprint(fp: Fingerprint, path) -> None:
    buf = io.BytesIO()
    write_fingerprint(fp, buf)
    atomic_write(path, buf.getvalue())


def load_fingerprint(path) -> Fingerprint:
    with open(path, "rb") as fh:
        try:
            return read_fingerprint(fh)
        except ParseError as exc:
            raise ParseError(exc.reason, exc.line_no, exc.column, path) from None
