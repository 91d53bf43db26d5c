"""Request generation and the one-request-per-line collection file.

For every configured command and every argument length 0..L, a seeded
generator draws n base requests and derives m cumulative single-character
mutants from each, giving |commands| * (L+1) * n * (m+1) requests in a
fixed canonical order.  Two runs with the same config are byte-identical,
which is what makes fingerprints of different targets comparable.

A request is its index and its bytes, nothing more.  The layout is defined
once, by `FuzzConfig.block_length`: the (L+1) * n * (m+1) requests of one
command form a block, and block i belongs to the i-th command.
"""

from __future__ import annotations

import hashlib
import io
import re
from dataclasses import dataclass
from typing import BinaryIO, Iterable

from .errors import ConfigError, IntegrityError, ParseError
from .fileio import atomic_write, decode_ascii, format_header, parse_header
from .rng import SplitMix64

# Control-connection commands only; transfer and directory-changing commands
# would make replies depend on the target's file system.
DEFAULT_COMMANDS = (
    "USER", "PASS", "ACCT", "CWD", "CDUP", "SMNT", "REIN", "QUIT", "PORT",
    "PASV", "TYPE", "STRU", "MODE", "SYST", "STAT", "HELP", "NOOP", "ALLO",
    "REST", "SITE", "FEAT", "OPTS", "MDTM", "SIZE", "CLNT", "XPWD", "PWD",
)

DEFAULT_MAX_ARG_LEN = 16
DEFAULT_INSTANCES = 2
DEFAULT_MUTATIONS = 4
DEFAULT_SEED = 1

_COMMAND_RE = re.compile(r"^[A-Z]{3,8}$")
_LINE_BREAKS = frozenset({0x0D, 0x0A})
_DEFAULT_ALPHABET = frozenset(range(256)) - _LINE_BREAKS

FC_VERSION = 1


@dataclass(frozen=True)
class FuzzConfig:
    """Generation parameters; fully determines a collection.  Checked when
    made: a bad value raises ConfigError naming its field."""

    commands: tuple[str, ...] = DEFAULT_COMMANDS
    max_arg_len: int = DEFAULT_MAX_ARG_LEN
    instances: int = DEFAULT_INSTANCES
    mutations: int = DEFAULT_MUTATIONS
    seed: int = DEFAULT_SEED
    alphabet: frozenset[int] = _DEFAULT_ALPHABET

    def __post_init__(self):
        if not self.commands:
            raise ConfigError("commands", "must not be empty")
        seen = set()
        for cmd in self.commands:
            if not _COMMAND_RE.match(cmd):
                raise ConfigError("commands", f"bad mnemonic {cmd!r}")
            if cmd in seen:
                raise ConfigError("commands", f"duplicate mnemonic {cmd!r}")
            seen.add(cmd)
        if self.max_arg_len < 0:
            raise ConfigError("max_arg_len", "must be >= 0")
        if self.instances < 1:
            raise ConfigError("instances", "must be >= 1")
        if self.mutations < 0:
            raise ConfigError("mutations", "must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed", "must fit in 64 bits")
        if any(b in _LINE_BREAKS for b in self.alphabet):
            raise ConfigError("alphabet", "must not contain CR or LF")
        if any(not 0 <= b <= 255 for b in self.alphabet):
            raise ConfigError("alphabet", "bytes must be in 0..255")
        if len(self.alphabet) < 2:
            raise ConfigError("alphabet", "needs at least two bytes")
        if self.max_arg_len > 0 and not self.printable_alphabet():
            raise ConfigError("alphabet", "no printable bytes to build arguments from")

    def printable_alphabet(self) -> tuple[int, ...]:
        """Sorted printable-ASCII subset used for base arguments."""
        return tuple(b for b in sorted(self.alphabet) if 0x20 <= b <= 0x7E)

    def sorted_alphabet(self) -> tuple[int, ...]:
        return tuple(sorted(self.alphabet))

    @property
    def block_length(self) -> int:
        """Records per command block: every argument length, instance and
        mutation step of one command."""
        return (self.max_arg_len + 1) * self.instances * (self.mutations + 1)

    def record_count(self) -> int:
        return len(self.commands) * self.block_length


@dataclass(frozen=True)
class RequestRecord:
    """One request: its position in the collection and its bytes."""

    index: int
    bytes: bytes


@dataclass(frozen=True)
class FuzzCollection:
    records: tuple[RequestRecord, ...]
    config: FuzzConfig
    digest: str
    reduced_from: str | None = None


def mutate(message: bytes, rng: SplitMix64, alphabet: Iterable[int] = _DEFAULT_ALPHABET) -> bytes:
    """Apply one random single-character edit: insert, change, or delete.

    The operator is chosen uniformly among the applicable ones (change and
    delete need a non-empty message).  A change never reproduces the
    original byte, so every call returns a message different from its input.
    A tuple alphabet is used in its own order and must not repeat a byte.
    """
    letters = tuple(sorted(alphabet)) if not isinstance(alphabet, tuple) else alphabet
    if len(message) == 0:
        op = "insert"
    else:
        op = rng.choice(("insert", "change", "delete"))
    if op == "insert":
        pos = rng.below(len(message) + 1)
        byte = rng.choice(letters)
        return message[:pos] + bytes([byte]) + message[pos:]
    if op == "change":
        pos = rng.below(len(message))
        try:
            skip = letters.index(message[pos])
        except ValueError:  # a byte outside the alphabet, such as a command letter
            byte = rng.choice(letters)
        else:  # a uniform draw from the alphabet without the original byte
            drawn = rng.below(len(letters) - 1)
            byte = letters[drawn + (drawn >= skip)]
        return message[:pos] + bytes([byte]) + message[pos + 1:]
    pos = rng.below(len(message))
    return message[:pos] + message[pos + 1:]


def build_collection(config: FuzzConfig) -> FuzzCollection:
    """Generate the full request set in canonical order.

    Order: commands as configured, argument length ascending, instance
    ascending, mutation step ascending (step 0 is the unmutated base).
    """
    rng = SplitMix64(config.seed)
    printable = config.printable_alphabet()
    letters = config.sorted_alphabet()
    requests: list[bytes] = []
    for command in config.commands:
        cmd_bytes = command.encode("ascii")
        for arg_len in range(config.max_arg_len + 1):
            for _ in range(config.instances):
                current = cmd_bytes
                if arg_len:
                    current += b" " + bytes(rng.choice(printable) for _ in range(arg_len))
                requests.append(current)
                for _ in range(config.mutations):
                    current = mutate(current, rng, letters)
                    requests.append(current)
    records = tuple(RequestRecord(i, data) for i, data in enumerate(requests))
    return FuzzCollection(records, config, body_digest(map(escape_line, requests)))


def body_digest(lines: Iterable[str]) -> str:
    """SHA-256 over the escaped body lines, each LF-terminated."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


# Each byte's spelling in an escaped line: printable ASCII as itself, the
# backslash doubled, every other byte as \x and two lowercase hex digits.
_ESCAPES = [chr(b) if 0x20 <= b <= 0x7E else f"\\x{b:02x}" for b in range(256)]
_ESCAPES[0x5C] = "\\\\"
# The lines escape_line writes, and no others: one spelling per line, so the
# digest can be taken over the lines as read.  No two alternatives match the
# same text and none holds a quantifier, so a match takes linear time and
# ends at the first character that is not canonical.
_CANONICAL = re.compile(r"(?:[ -\[\]-~]|\\\\|\\x(?:[01][0-9a-f]|7f|[89a-f][0-9a-f]))*")


def escape_line(data: bytes) -> str:
    """Encode arbitrary bytes as one printable-ASCII line."""
    return data.decode("latin-1").translate(_ESCAPES)


def unescape_line(line: str) -> bytes:
    """The bytes of a line escape_line wrote; any other line is a ParseError
    that gives the column of its first non-canonical character."""
    end = _CANONICAL.match(line).end()
    if end < len(line):
        raise ParseError(f"not a printable character or canonical escape: "
                         f"{line[end:end + 4]!r}", column=end + 1)
    return line.encode("ascii").decode("unicode_escape").encode("latin-1")


def _excludes_token(alphabet: frozenset[int]) -> str:
    excluded = sorted(set(range(256)) - set(alphabet), reverse=True)
    return "".join(f"{b:02x}" for b in excluded)


def _parse_excludes_token(token: str) -> frozenset[int]:
    if len(token) % 2 != 0 or not token:
        raise ValueError("alphabet-excludes must be hex byte pairs")
    try:
        excluded = {int(token[i : i + 2], 16) for i in range(0, len(token), 2)}
    except ValueError:
        raise ValueError("alphabet-excludes must be hex byte pairs") from None
    return frozenset(range(256)) - excluded


def _parse_fc_version(text: str) -> int:
    if text != str(FC_VERSION):
        raise ValueError(f"unsupported fc-version {text!r}")
    return FC_VERSION


# key -> value parser, in the order write_collection emits them; the header
# always closes with the digest line, because requests may themselves start
# with '#' and so the boundary must be structural
_FC_HEADER = {
    "fc-version": _parse_fc_version,
    "seed": int,
    "commands": lambda text: tuple(c for c in text.split(",") if c),
    "max-arg-len": int,
    "instances": int,
    "mutations": int,
    "alphabet-excludes": _parse_excludes_token,
    "reduced-from": str,
    "digest": str,
}


def write_collection(collection: FuzzCollection, sink: BinaryIO) -> None:
    """Serialize to the text collection format (LF endings, escaped body)."""
    cfg = collection.config
    sink.write(format_header([
        ("fc-version", FC_VERSION),
        ("seed", cfg.seed),
        ("commands", ",".join(cfg.commands)),
        ("max-arg-len", cfg.max_arg_len),
        ("instances", cfg.instances),
        ("mutations", cfg.mutations),
        ("alphabet-excludes", _excludes_token(cfg.alphabet)),
        ("reduced-from", collection.reduced_from),
        ("digest", collection.digest),
    ]))
    body = "".join([escape_line(record.bytes) + "\n" for record in collection.records])
    sink.write(body.encode("ascii"))


def read_collection(source: BinaryIO) -> FuzzCollection:
    """Parse and verify a collection file; digest mismatch is an error."""
    lines = decode_ascii(source.read(), "collection file").split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # the file's terminating LF, not an empty request
    headers, start = parse_header(lines, _FC_HEADER, "digest", optional=("reduced-from",))
    body: list[bytes] = []
    for line_no, line in enumerate(lines[start:], start=start + 1):
        try:
            body.append(unescape_line(line))
        except ParseError as exc:
            raise ParseError(exc.reason, line_no, exc.column) from None

    config = FuzzConfig(
        headers["commands"], headers["max-arg-len"], headers["instances"],
        headers["mutations"], headers["seed"], headers["alphabet-excludes"],
    )

    stored = headers["digest"]
    actual = body_digest(lines[start:])
    if stored != actual:
        raise IntegrityError(f"digest mismatch: header {stored}, body {actual}")

    reduced_from = headers.get("reduced-from")
    if reduced_from is None and len(body) != config.record_count():
        raise ParseError(f"expected {config.record_count()} requests, found {len(body)}")
    if not body:
        raise ParseError("reduced collection has no requests")
    records = tuple(RequestRecord(i, data) for i, data in enumerate(body))
    return FuzzCollection(records, config, actual, reduced_from)


def save_collection(collection: FuzzCollection, path) -> None:
    buf = io.BytesIO()
    write_collection(collection, buf)
    atomic_write(path, buf.getvalue())


def load_collection(path) -> FuzzCollection:
    with open(path, "rb") as fh:
        try:
            return read_collection(fh)
        except ParseError as exc:
            raise ParseError(exc.reason, exc.line_no, exc.column, path) from None
