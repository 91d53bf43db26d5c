"""Runs a request collection against one target and records the reply vector.

The resulting fingerprint holds one observation per collection record, in
order.  The scan is cut into runs: a run is the index range that goes out
on one login.  The queue of runs starts with the segments of one command
block each (`FuzzConfig.block_length` of the collection's config; a
reduced collection is cut into runs of the same length), so the
fingerprint depends only on the `.fc` file, and state left by fuzzed USER,
PASS or REIN requests does not leak into the next block.  Up to
`TargetSpec.sessions` sessions take runs from the queue.  The first login
is made before any other connection: a refused login opens no second one.

`wire` closes a session that must not be used again: after a dropped
connection, a timeout (TMO), a reply cut off by the timeout (GBL) or a
local send or receive failure.  The unsent rest of its run then goes back
to the front of the queue as a run of its own, so that later positions
stay aligned with their requests; so does a run whose fresh connect or
login fails.  When the target refuses a fresh session while other
sessions still work (servers cap connections per address), the pool
shrinks to the sessions the target admits, and no request is sent
twice.  A local send or receive failure, or the last session's refusal,
counts at the run's first unsent request; the RECONNECT_ATTEMPTS-th
failure at one request ends the scan.  So does a `stop` event, set by the
caller, before the next request; a scan that leaves any position
unobserved raises PartialScanError instead of returning a fingerprint.
"""

from __future__ import annotations

import io
import logging
import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import islice
from typing import BinaryIO, Callable, Iterator, TypeVar

from . import wire
from .errors import (
    ConnectError,
    ParseError,
    PartialScanError,
    ScanRefusedError,
    TransportError,
)
from .fileio import atomic_write, decode_ascii, format_header, load, parse_header
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


def fingerprint_target(collection: FuzzCollection, target: TargetSpec,
                       label: str | None = None,
                       stop: threading.Event | None = None) -> Fingerprint:
    """Send every collection record and return the reply vector in order.

    Requires a successful login first: without valid access all servers of
    interest answer with one uniform error code and cannot be told apart.
    Once `stop` is set, no session sends another request.
    """
    step = collection.config.block_length
    count = len(collection.records)
    session = wire.connect(target)
    try:
        user_reply, pass_reply = session.login()
        observations = _SessionPool(target, collection.records, [
            (session if start == 0 else None, start, min(start + step, count))
            for start in range(0, count, step)], stop).scan()
    finally:
        session.close()  # when no worker took it
    return Fingerprint(
        collection_digest=collection.digest,
        target=target.descriptor,
        observations=observations,
        label=label,
        greeting=session.greeting,
        login=(user_reply,) + ((pass_reply,) if pass_reply is not None else ()),
    )


class _SessionPool:
    """Workers that scan runs from one queue into one observation vector.

    A run is (session or None, start, end): None logs in afresh.  No worker
    waits for another.  A worker leaves once the queue is empty or the scan
    is halted; one whose run ends early queues the rest first and takes it
    next.  A refusal shrinks `_live`, the sessions the target admits, while
    more than one is left, and the refused worker then leaves only if
    `_looping > _live`; else it stands in for a worker that left.  So
    `_looping <= _live`, and a worker leaves after a refusal only while
    another still loops, which takes the rest before it can leave.
    """

    def __init__(self, target: TargetSpec, records: tuple[RequestRecord, ...],
                 runs: list[tuple[FtpSession | None, int, int]],
                 stop: threading.Event | None = None):
        self.target = target
        self.records = records
        self.observations: list[ReplyObservation | None] = [None] * len(records)
        self._runs = deque(runs)
        self._live = 0  # sessions the target admits
        self._looping = 0  # workers that have not left
        self._lock = threading.Lock()
        self._halt = threading.Event()
        self._stop = stop or threading.Event()  # the caller's; halts this scan only
        self._error: BaseException | None = None
        self._failures: Counter[int] = Counter()  # failures per index, by the run's holder

    def scan(self) -> tuple[ReplyObservation, ...]:
        """Run the workers to the end; raise the first failure of any, or
        a PartialScanError that names the first request left unobserved."""
        workers = [threading.Thread(target=self._work, name=f"fingerfuzz-scan-{n}")
                   for n in range(min(self.target.sessions, len(self._runs)))]
        self._live = self._looping = len(workers)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            self._halt.set()  # also on Ctrl-C: no worker outlives the scan
            for worker in workers:
                if worker.ident is not None:
                    worker.join()
        if self._error is not None:
            raise self._error
        if None in self.observations:
            first = self.records[self.observations.index(None)]
            raise PartialScanError(f"request {first.index} to {self.target.descriptor} "
                                   "was never observed")
        return tuple(self.observations)

    def _work(self) -> None:
        try:
            while (taken := self._take()) is not None and self._scan_run(*taken):
                pass
        except BaseException as exc:  # raised on the calling thread by scan()
            with self._lock:
                if self._error is None:
                    self._error = exc
            self._halt.set()

    def _take(self) -> tuple[FtpSession | None, int, int] | None:
        """The next run, or None once this worker leaves."""
        with self._lock:
            if self._halted() or not self._runs:
                self._looping -= 1
                return None
            return self._runs.popleft()

    def _halted(self) -> bool:
        return self._halt.is_set() or self._stop.is_set()

    def _scan_run(self, session: FtpSession | None, start: int, end: int) -> bool:
        """Send records[start:end] on one login, a fresh one if `session` is
        None, until the session dies, and queue the unsent rest; False once
        this worker leaves."""
        index = start
        failure = None
        try:
            if session is None:
                session = wire.connect(self.target)
                session.login()
            while index < end and not self._halted():
                self.observations[index] = session.exchange(self.records[index].bytes)
                index += 1
                if self.target.delay > 0:
                    self._halt.wait(self.target.delay)
                if not session.alive:
                    break
        except (ConnectError, ScanRefusedError, TransportError) as exc:  # no session left
            failure = exc
        finally:
            if session is not None:
                session.close()
        return self._release(index, end, failure)

    def _release(self, index: int, end: int, failure: Exception | None) -> bool:
        """End the run and queue its unsent rest first.  A refused session
        shrinks the pool while others are admitted; any other failure counts
        at `index`.  False once this worker leaves."""
        with self._lock:
            if index < end:
                self._runs.appendleft((None, index, end))
            if failure is None:
                return True
            if not isinstance(failure, TransportError) and self._live > 1:
                self._live -= 1
                # under the lock, so the counts are logged in order
                log.warning("%s refused a new session; scanning on with %d: %s",
                            self.target.descriptor, self._live, failure)
                if self._looping > self._live:
                    self._looping -= 1
                    return False
                return True
            self._failures[index] += 1
            if self._failures[index] == RECONNECT_ATTEMPTS:
                raise PartialScanError(
                    f"request {self.records[index].index} to {self.target.descriptor} "
                    f"failed {RECONNECT_ATTEMPTS} times: {failure}"
                ) from failure
        return True


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


_HEX_DIGITS = frozenset("0123456789abcdef")


def _parse_digest(text: str) -> str:
    if len(text) != 64 or not _HEX_DIGITS.issuperset(text):
        raise ValueError("collection digest must be 64 lowercase hex chars")
    return text


def _parse_login(text: str) -> tuple[ReplyObservation, ...]:
    tokens = [t for t in text.split(",") if t]
    if not 1 <= len(tokens) <= 2:
        raise ValueError("login header needs one or two tokens")
    return tuple(ReplyObservation.from_token(t) for t in tokens)


# key -> (Fingerprint field, parse, format), in the order write_fingerprint emits them
_FP_HEADER = {
    "fp-version": ("fp_version", _parse_fp_version, str),
    "collection": ("collection_digest", _parse_digest, str),
    "target": ("target", str, str),
    "label": ("label", str, str),
    "created": ("created_at", _parse_created, _format_created),
    "greeting": ("greeting", ReplyObservation.from_token, str),
    "login": ("login", _parse_login, ",".join),
}


def check_label(text: str, field: str = "label") -> None:
    """Raise ValueError unless the label, or the header value that `field`
    names, fits on one ASCII header line."""
    if not text.isascii() or "\n" in text or "\r" in text:
        raise ValueError(f"{field} must be ASCII without CR or LF: {text!r}")


def write_fingerprint(fp: Fingerprint, sink: BinaryIO) -> None:
    _parse_digest(fp.collection_digest)
    check_label(fp.target, "target")
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
    sink.write(format_header(_FP_HEADER, vars(fp)))
    sink.write(("\n".join(fp.observations) + "\n").encode("ascii"))


T = TypeVar("T")


def parse_fingerprint(source: BinaryIO, encode: Callable[[Iterator[str]], T]) -> tuple[dict, T]:
    """Parse a fingerprint file into the Fingerprint fields of its header, by
    name, and `encode` of its body lines.  The header closes with the
    `#login` line, and every body line is one observation token: `encode`
    raises KeyError at the first line that is none, and the ParseError
    names that line."""
    lines = decode_ascii(source.read(), "fingerprint file").split("\n")
    if lines[-1] == "":
        lines.pop()  # the file's terminating LF, not a blank line
    headers, start = parse_header(lines, _FP_HEADER, "login", optional=("label",))
    if start == len(lines):
        raise ParseError("fingerprint has no observations")
    try:
        body = encode(islice(lines, start, None))
    except KeyError:
        line_no, bad = next((n, line) for n, line in enumerate(lines[start:], start + 1)
                            if line not in wire.BY_TOKEN)
        raise ParseError(f"bad observation token {bad!r}" if bad else "blank line",
                         line_no) from None
    return headers, body


def _observations(lines: Iterator[str]) -> tuple[ReplyObservation, ...]:
    return tuple(map(wire.BY_TOKEN.__getitem__, lines))


def read_fingerprint(source: BinaryIO) -> Fingerprint:
    """Parse a fingerprint file; its observations are the shared ones of
    `wire.BY_TOKEN`."""
    fields, observations = parse_fingerprint(source, _observations)
    return Fingerprint(observations=observations, **fields)


def save_fingerprint(fp: Fingerprint, path) -> None:
    buf = io.BytesIO()
    write_fingerprint(fp, buf)
    atomic_write(path, buf.getvalue())


def load_fingerprint(path) -> Fingerprint:
    return load(path, read_fingerprint)
