"""Request generation and the one-request-per-line collection file.

For every configured command and every argument length 0..L, a seeded
generator draws n base requests and derives m cumulative single-character
mutants from each, giving |commands| * (L+1) * n * (m+1) requests in a
fixed canonical order.  Two runs with the same config are byte-identical,
which is what makes fingerprints of different targets comparable.

A request is its index and its bytes, nothing more.  The layout is defined
once, by `FuzzConfig.block_length`: the (L+1) * n * (m+1) requests of one
command form a block, and block i belongs to the i-th command.  A collection
escapes its requests once, when it is made: its file body and the digest
over that body are derived from its records, or are the body of the file it
was read from, which holds only the lines escape_line writes.

A file's body is decoded in one pass.  One match of the per-line canonical
pattern, with LF added to its literal class, checks every line at once; no
escape can span a line break.  One `unicode_escape` decode and one split at
LF then give the requests, and the digest is the SHA-256 of the body bytes
as read, a missing final LF read as present.  A body that fails the match,
or whose decoded bytes hold a CR or more LFs than it has lines, is read
again line by line only to find its first bad line, which gives the same
ParseError, line and column as a line-by-line reader.
"""

from __future__ import annotations

import hashlib
import io
import re
from dataclasses import InitVar, dataclass, field
from typing import BinaryIO, Iterable, NamedTuple

from .errors import ConfigError, IntegrityError, ParseError
from .fileio import atomic_write, decode_ascii, format_header, load, parse_header
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


class RequestRecord(NamedTuple):
    """One request: its position in the collection and its bytes."""

    index: int
    bytes: bytes


@dataclass(frozen=True)
class FuzzCollection:
    records: tuple[RequestRecord, ...]
    config: FuzzConfig
    reduced_from: str | None = None
    # the file body, one escaped request per LF-terminated line, and its SHA-256
    body: bytes = field(init=False, compare=False, repr=False)
    digest: str = field(init=False)
    # the body of `records`, where a file held it already
    _body: InitVar[bytes | None] = None

    def __post_init__(self, _body):
        if _body is None:
            # one translate over every request, each ended by U+0100
            requests = [record.bytes.decode("latin-1") for record in self.records]
            _body = "\u0100".join([*requests, ""]).translate(_BODY_ESCAPES).encode("ascii")
        object.__setattr__(self, "body", _body)
        object.__setattr__(self, "digest", hashlib.sha256(_body).hexdigest())


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
    return FuzzCollection(tuple(map(RequestRecord._make, enumerate(requests))), config)


# Each byte's spelling in an escaped line: printable ASCII as itself, the
# backslash doubled, every other byte as \x and two lowercase hex digits.
_ESCAPES = [chr(b) if 0x20 <= b <= 0x7E else f"\\x{b:02x}" for b in range(256)]
_ESCAPES[0x5C] = "\\\\"
# The same spellings, and U+0100, which no latin-1 request holds, as LF: a
# body of requests joined by U+0100 escapes in one translate.
_BODY_ESCAPES = _ESCAPES + ["\n"]
# The lines escape_line writes, and no others: one spelling per line, so a
# file's body is the body of the collection it holds.  A line is a run of
# literal characters, then escapes, each followed by such a run.  Every
# escape starts with the backslash, which is no literal, so a match takes
# linear time and ends at the first character that is not canonical.
_CANONICAL = re.compile(
    r"[ -\[\]-~]*(?:(?:\\\\|\\x(?:[01][0-9a-f]|7f|[89a-f][0-9a-f]))[ -\[\]-~]*)*")
# A body of such lines: the same pattern with LF in its literal class, so the
# match ends at the first non-canonical character of the first line with one.
_CANONICAL_BODY = re.compile(
    rb"[\n -\[\]-~]*(?:(?:\\\\|\\x(?:[01][0-9a-f]|7f|[89a-f][0-9a-f]))[\n -\[\]-~]*)*")


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


# key -> (field, parse, format), in the order write_collection emits them:
# the FuzzConfig fields, the version, the source of a reduced collection and
# the digest.  The header always closes with the digest line, because
# requests may themselves start with '#' and so the boundary must be
# structural.
_FC_HEADER = {
    "fc-version": ("fc_version", _parse_fc_version, str),
    "seed": ("seed", int, str),
    "commands": ("commands", lambda text: tuple(filter(None, text.split(","))), ",".join),
    "max-arg-len": ("max_arg_len", int, str),
    "instances": ("instances", int, str),
    "mutations": ("mutations", int, str),
    "alphabet-excludes": ("alphabet", _parse_excludes_token, _excludes_token),
    "reduced-from": ("reduced_from", str, str),
    "digest": ("digest", str, str),
}


def write_collection(collection: FuzzCollection, sink: BinaryIO) -> None:
    """Serialize to the text collection format (LF endings, escaped body)."""
    sink.write(format_header(_FC_HEADER, {
        **vars(collection.config), **vars(collection), "fc_version": FC_VERSION}))
    sink.write(collection.body)


def _refuse_body(body: bytes, start: int):
    """Raise the ParseError of the first line of `body` that is not the
    escape_line spelling of a request without CR or LF; `start` is the
    header's line count."""
    for line_no, line in enumerate(body.decode("ascii").split("\n"), start=start + 1):
        try:
            data = unescape_line(line)
        except ParseError as exc:
            raise ParseError(exc.reason, line_no, exc.column) from None
        if 0x0D in data or 0x0A in data:  # it could not be sent as one line
            raise ParseError("request must not contain CR or LF", line_no)
    raise AssertionError("a body refused in one pass has a bad line")


def read_collection(source: BinaryIO) -> FuzzCollection:
    """Parse and verify a collection file; digest mismatch is an error."""
    data = source.read()
    if not data.isascii():
        decode_ascii(data, "collection file")  # raises, naming the line
    # The header ends by its ninth line, at the latest: a tenth would repeat
    # a key or hold an unknown one.  So only those lines are split off.
    pieces = data.split(b"\n", len(_FC_HEADER))
    lines = [piece.decode("ascii") for piece in pieces[:len(_FC_HEADER)]]
    if len(pieces) <= len(_FC_HEADER) and lines[-1] == "":
        lines.pop()  # the file's terminating LF, not an empty request
    headers, start = parse_header(lines, _FC_HEADER, "digest", optional=("reduced-from",))
    body = b"\n".join(pieces[start:])
    if body and not body.endswith(b"\n"):
        body += b"\n"  # a missing final LF is read as present
    if _CANONICAL_BODY.match(body).end() < len(body):
        _refuse_body(body, start)
    decoded = body.decode("unicode_escape").encode("latin-1")
    # an escaped CR or LF would make a request that cannot be sent as one line
    if decoded.count(b"\n") != body.count(b"\n") or b"\r" in decoded:
        _refuse_body(body, start)
    requests = decoded.split(b"\n")
    requests.pop()  # after the final LF

    stored, reduced_from = headers.pop("digest"), headers.pop("reduced_from")
    del headers["fc_version"]
    try:
        config = FuzzConfig(**headers)
    except ConfigError as exc:  # named at the line of the key whose row holds the field
        key = next(key for key, (name, _, _) in _FC_HEADER.items() if name == exc.field)
        line_no = next(n for n, line in enumerate(lines[:start], 1)
                       if line[1:].partition(" ")[0] == key)
        raise ParseError(str(exc), line_no) from None

    records = tuple(map(RequestRecord._make, enumerate(requests)))
    # the bytes read are the body: the match refuses any other spelling
    collection = FuzzCollection(records, config, reduced_from, _body=body)
    if stored != collection.digest:
        raise IntegrityError(f"digest mismatch: header {stored}, body {collection.digest}")
    if reduced_from is None and len(records) != config.record_count():
        raise ParseError(f"expected {config.record_count()} requests, found {len(records)}")
    if not records:
        raise ParseError("reduced collection has no requests")
    return collection


def save_collection(collection: FuzzCollection, path) -> None:
    buf = io.BytesIO()
    write_collection(collection, buf)
    atomic_write(path, buf.getvalue())


def load_collection(path) -> FuzzCollection:
    return load(path, read_collection)
