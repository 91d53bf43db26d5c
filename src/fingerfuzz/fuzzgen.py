"""Request generation and the one-request-per-line collection file.

For every configured command and every argument length 0..L, a seeded
generator draws n base requests and derives m cumulative single-character
mutants from each, giving |commands| * (L+1) * n * (m+1) requests in a
fixed canonical order.  Two runs with the same config are byte-identical,
which is what makes fingerprints of different targets comparable.
"""

from __future__ import annotations

import hashlib
import io
import re
from dataclasses import dataclass, field
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
_LOWER_HEX = frozenset("0123456789abcdef")

FC_VERSION = 1


def default_alphabet() -> frozenset[int]:
    return _DEFAULT_ALPHABET


@dataclass(frozen=True)
class FuzzConfig:
    """Generation parameters; fully determines a collection."""

    commands: tuple[str, ...] = DEFAULT_COMMANDS
    max_arg_len: int = DEFAULT_MAX_ARG_LEN
    instances: int = DEFAULT_INSTANCES
    mutations: int = DEFAULT_MUTATIONS
    seed: int = DEFAULT_SEED
    alphabet: frozenset[int] = field(default_factory=default_alphabet)

    def validate(self) -> None:
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

    def record_count(self) -> int:
        return (
            len(self.commands)
            * (self.max_arg_len + 1)
            * self.instances
            * (self.mutations + 1)
        )


@dataclass(frozen=True)
class RequestRecord:
    """One request plus its generation coordinates.

    Coordinates are None for records read back from a reduced collection
    file, which stores only the raw requests.
    """

    index: int
    bytes: bytes
    command: str | None = None
    arg_len: int | None = None
    instance: int | None = None
    step: int | None = None


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
    config.validate()
    rng = SplitMix64(config.seed)
    printable = config.printable_alphabet()
    letters = config.sorted_alphabet()
    records: list[RequestRecord] = []
    index = 0
    for command in config.commands:
        cmd_bytes = command.encode("ascii")
        for arg_len in range(config.max_arg_len + 1):
            for instance in range(config.instances):
                if arg_len == 0:
                    base = cmd_bytes
                else:
                    arg = bytes(rng.choice(printable) for _ in range(arg_len))
                    base = cmd_bytes + b" " + arg
                records.append(RequestRecord(index, base, command, arg_len, instance, 0))
                index += 1
                current = base
                for step in range(1, config.mutations + 1):
                    current = mutate(current, rng, letters)
                    records.append(
                        RequestRecord(index, current, command, arg_len, instance, step)
                    )
                    index += 1
    digest = body_digest(escape_line(r.bytes) for r in records)
    return FuzzCollection(tuple(records), config, digest)


def body_digest(lines: Iterable[str]) -> str:
    """SHA-256 over the escaped body lines, each LF-terminated."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def escape_line(data: bytes) -> str:
    """Encode arbitrary bytes as one printable-ASCII line."""
    out = []
    for b in data:
        if b == 0x5C:
            out.append("\\\\")
        elif 0x20 <= b <= 0x7E:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def unescape_line(line: str) -> bytes:
    """The bytes of an escaped line.  Only the escapes escape_line writes are
    accepted, so every line has one spelling and the digest can be taken over
    the lines as read."""
    out = bytearray()
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if not 0x20 <= ord(ch) <= 0x7E:
            raise ParseError(f"non-printable character {ch!r} in escaped line")
        if ch != "\\":
            out.append(ord(ch))
            i += 1
            continue
        if i + 1 >= n:
            raise ParseError("dangling backslash")
        nxt = line[i + 1]
        if nxt == "\\":
            out.append(0x5C)
            i += 2
            continue
        if nxt != "x":
            raise ParseError(f"unknown escape '\\{nxt}'")
        if i + 3 >= n:
            raise ParseError("truncated \\x escape")
        hexpair = line[i + 2 : i + 4]
        if not _LOWER_HEX.issuperset(hexpair):  # int() also takes a sign, spaces, capitals
            raise ParseError(f"bad hex digits {hexpair!r} in \\x escape")
        value = int(hexpair, 16)
        if 0x20 <= value <= 0x7E:
            raise ParseError(f"printable byte escaped as '\\x{hexpair}'")
        out.append(value)
        i += 4
    return bytes(out)


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
    try:
        for line_no, line in enumerate(lines[start:], start=start + 1):
            body.append(unescape_line(line))
    except ParseError as exc:
        raise ParseError(str(exc), line_no) from None

    config = FuzzConfig(
        headers["commands"], headers["max-arg-len"], headers["instances"],
        headers["mutations"], headers["seed"], headers["alphabet-excludes"],
    )
    config.validate()

    stored = headers["digest"]
    actual = body_digest(lines[start:])
    if stored != actual:
        raise IntegrityError(f"digest mismatch: header {stored}, body {actual}")

    reduced_from = headers.get("reduced-from")
    if reduced_from is None:
        if len(body) != config.record_count():
            raise ParseError(
                f"expected {config.record_count()} requests, found {len(body)}"
            )
        records = tuple(
            RequestRecord(i, data, *_coordinates(config, i))
            for i, data in enumerate(body)
        )
    else:
        if not body:
            raise ParseError("reduced collection has no requests")
        records = tuple(RequestRecord(i, data) for i, data in enumerate(body))
    return FuzzCollection(records, config, actual, reduced_from)


def _coordinates(config: FuzzConfig, index: int) -> tuple[str, int, int, int]:
    """Decode canonical position into (command, arg_len, instance, step)."""
    steps = config.mutations + 1
    per_instance = steps
    per_len = config.instances * per_instance
    per_command = (config.max_arg_len + 1) * per_len
    command = config.commands[index // per_command]
    rem = index % per_command
    arg_len = rem // per_len
    rem %= per_len
    instance = rem // per_instance
    step = rem % per_instance
    return command, arg_len, instance, step


def save_collection(collection: FuzzCollection, path) -> None:
    buf = io.BytesIO()
    write_collection(collection, buf)
    atomic_write(path, buf.getvalue())


def load_collection(path) -> FuzzCollection:
    with open(path, "rb") as fh:
        return read_collection(fh)
