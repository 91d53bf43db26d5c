from __future__ import annotations

import hashlib
import io
import os
import random
import re

import pytest

from fingerfuzz import fuzzgen
from fingerfuzz.errors import IntegrityError, ParseError
from fingerfuzz.fileio import decode_ascii, parse_header
from fingerfuzz.fuzzgen import (
    FuzzCollection,
    FuzzConfig,
    RequestRecord,
    build_collection,
    escape_line,
    load_collection,
    read_collection,
    save_collection,
    write_collection,
)

from conftest import HEADER_ORDERS, reorder_header


def serialize(collection) -> bytes:
    buf = io.BytesIO()
    write_collection(collection, buf)
    return buf.getvalue()


@pytest.fixture
def four_record_collection():
    return build_collection(
        FuzzConfig(commands=("NOOP",), max_arg_len=1, instances=1, mutations=1, seed=7)
    )


def test_round_trip(four_record_collection):
    data = serialize(four_record_collection)
    assert read_collection(io.BytesIO(data)) == four_record_collection


def test_round_trip_default_sized():
    col = build_collection(FuzzConfig(max_arg_len=2, instances=1, mutations=1))
    back = read_collection(io.BytesIO(serialize(col)))
    assert back == col
    assert back.body == col.body  # the body read is the body escape_line writes


def test_header_layout(four_record_collection):
    text = serialize(four_record_collection).decode("ascii")
    lines = text.splitlines()
    assert lines[0] == "#fc-version 1"
    assert lines[1] == "#seed 7"
    assert lines[2] == "#commands NOOP"
    assert lines[3] == "#max-arg-len 1"
    assert lines[4] == "#instances 1"
    assert lines[5] == "#mutations 1"
    assert lines[6] == "#alphabet-excludes 0d0a"
    assert lines[7] == f"#digest {four_record_collection.digest}"
    assert len(lines) == 8 + 4


def test_tampered_body_is_rejected(four_record_collection):
    data = serialize(four_record_collection)
    tampered = data.replace(b"\nNOOP\n", b"\nNOOQ\n", 1)
    assert tampered != data
    with pytest.raises(IntegrityError):
        read_collection(io.BytesIO(tampered))


def test_tampered_digest_is_rejected(four_record_collection):
    data = serialize(four_record_collection)
    digest = four_record_collection.digest.encode()
    tampered = data.replace(digest, digest[::-1])
    with pytest.raises(IntegrityError):
        read_collection(io.BytesIO(tampered))


def test_bad_escape_reports_line_number(four_record_collection):
    cases = [
        # the first body line, malformed before the digest check can fire
        (9, b"\\xzz"),
        # a raw byte that the escaping writes as \xe9, in the body and header
        (9, b"caf\xe9"),
        (2, b"#seed \xe9"),
    ]
    for line_no, text in cases:
        lines = serialize(four_record_collection).split(b"\n")
        lines[line_no - 1] = text
        with pytest.raises(ParseError) as err:
            read_collection(io.BytesIO(b"\n".join(lines)))
        assert err.value.line_no == line_no


def test_second_spelling_of_a_request_is_refused(four_record_collection):
    # the digest is taken over the lines read, so an escape that escape_line
    # would not write is refused, not taken into the digest
    odd = build_collection(FuzzConfig(commands=("NOOP",), max_arg_len=1, instances=1,
                                      mutations=1, seed=2))
    cases = [
        (four_record_collection, 9, b"NOOP", b"NO\\x4fP"),
        (four_record_collection, 9, b"NOOP", b"\\x4eOOP"),
        (odd, 12, b"NOO\\xaf S", b"NOO\\xAF S"),
    ]
    for collection, line_no, written, respelled in cases:
        lines = serialize(collection).split(b"\n")
        assert lines[line_no - 1] == written
        lines[line_no - 1] = respelled
        with pytest.raises(ParseError) as err:
            read_collection(io.BytesIO(b"\n".join(lines)))
        assert err.value.line_no == line_no


@pytest.mark.parametrize("escape", [b"\\x0a", b"\\x0d"])
def test_request_holding_a_line_break_is_refused(tmp_path, four_record_collection, escape):
    # such a request cannot be sent as one line; it is refused on load even
    # under a digest that matches the body
    lines = serialize(four_record_collection).split(b"\n")
    assert lines[8] == b"NOOP"
    lines[8] = b"NOOP" + escape + b"SYST"
    lines[7] = b"#digest " + hashlib.sha256(b"\n".join(lines[8:])).hexdigest().encode()
    path = tmp_path / "broken.fc"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_collection(path)
    assert str(err.value) == f"{path}: line 9: request must not contain CR or LF"


def test_missing_header_is_rejected(four_record_collection):
    lines = serialize(four_record_collection).decode("ascii").splitlines()
    del lines[1]  # seed
    with pytest.raises(ParseError, match="seed") as err:
        read_collection(io.BytesIO(("\n".join(lines) + "\n").encode()))
    assert err.value.line_no == 7  # the digest line that closes the header


def test_unknown_header_is_rejected(four_record_collection):
    lines = serialize(four_record_collection).decode("ascii").splitlines()
    lines.insert(1, "#surprise 1")
    with pytest.raises(ParseError, match="surprise") as err:
        read_collection(io.BytesIO(("\n".join(lines) + "\n").encode()))
    assert err.value.line_no == 2


# a bad value for each FuzzConfig field, and the line its key is written on
BAD_CONFIG_LINES = [
    ("commands", b"#commands noop", 3),
    ("max_arg_len", b"#max-arg-len -1", 4),
    ("instances", b"#instances 0", 5),
    ("mutations", b"#mutations -1", 6),
    ("seed", b"#seed 18446744073709551616", 2),
    ("alphabet", b"#alphabet-excludes 00", 7),
]


@pytest.mark.parametrize("moved", [False, True], ids=["written", "line2"])
@pytest.mark.parametrize("field, bad, line_no", BAD_CONFIG_LINES)
def test_bad_config_value_names_its_line(four_record_collection, field, bad, line_no, moved):
    lines = serialize(four_record_collection).split(b"\n")
    assert lines[line_no - 1].split(b" ")[0] == bad.split(b" ")[0]
    del lines[line_no - 1]
    at = 2 if moved else line_no
    lines.insert(at - 1, bad)
    with pytest.raises(ParseError, match=f"invalid config field '{field}'") as err:
        read_collection(io.BytesIO(b"\n".join(lines)))
    assert err.value.line_no == at


@pytest.mark.parametrize("order", HEADER_ORDERS)
@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
def test_header_lines_read_back_in_any_order(four_record_collection, reduced, order):
    collection = four_record_collection
    if reduced:
        kept = (RequestRecord(i, record.bytes)
                for i, record in enumerate(collection.records[1:3]))
        collection = FuzzCollection(tuple(kept), collection.config,
                                    reduced_from=collection.digest)
    data = reorder_header(serialize(collection), b"digest", order)
    assert read_collection(io.BytesIO(data)) == collection


def test_record_count_must_match_config(four_record_collection):
    # the truncated body no longer matches its digest, which is checked first
    data = serialize(four_record_collection)
    truncated = data.rsplit(b"\n", 2)[0] + b"\n"
    with pytest.raises(IntegrityError, match="digest mismatch"):
        read_collection(io.BytesIO(truncated))


def under_digest(collection, body: bytes, reduced_from: str | None = None) -> bytes:
    """The collection's header, with `reduced_from` if given, over `body`
    and a digest that matches it."""
    head = serialize(collection).split(b"#digest ", 1)[0]
    if reduced_from is not None:
        head += f"#reduced-from {reduced_from}\n".encode()
    return head + f"#digest {hashlib.sha256(body).hexdigest()}\n".encode() + body


def parse_error_of(data: bytes) -> tuple:
    with pytest.raises(ParseError) as err:
        read_collection(io.BytesIO(data))
    return err.value.reason, err.value.line_no, err.value.column


def test_empty_file_misses_its_digest_header():
    assert parse_error_of(b"") == ("missing header 'digest'", None, None)


def test_header_without_body_is_short_of_requests(four_record_collection):
    assert parse_error_of(under_digest(four_record_collection, b"")) == (
        "expected 4 requests, found 0", None, None)


def test_body_one_line_short_under_its_digest(four_record_collection):
    body = four_record_collection.body
    short = body[:body.rindex(b"\n", 0, -1) + 1]
    assert short.count(b"\n") == 3
    assert parse_error_of(under_digest(four_record_collection, short)) == (
        "expected 4 requests, found 3", None, None)


def test_reduced_collection_without_body_is_refused(four_record_collection):
    data = under_digest(four_record_collection, b"", four_record_collection.digest)
    assert parse_error_of(data) == ("reduced collection has no requests", None, None)


def test_missing_final_line_feed_is_read_as_present(four_record_collection):
    data = serialize(four_record_collection)
    assert data.endswith(b"\n")
    back = read_collection(io.BytesIO(data[:-1]))
    assert back == four_record_collection
    assert back.body == four_record_collection.body
    assert back.digest == four_record_collection.digest


def test_empty_request_survives_round_trip():
    # three deletes in a row empty out a 3-letter command; the empty body
    # line must come back as an empty request, not be dropped
    col = build_collection(
        FuzzConfig(commands=("PWD",), max_arg_len=0, instances=2, mutations=3,
                   seed=30)
    )
    assert any(r.bytes == b"" for r in col.records)
    assert read_collection(io.BytesIO(serialize(col))) == col


def test_save_and_load(tmp_path, four_record_collection):
    path = tmp_path / "requests.fc"
    save_collection(four_record_collection, path)
    assert load_collection(path) == four_record_collection


def test_save_is_deterministic(tmp_path, four_record_collection):
    a = tmp_path / "a.fc"
    b = tmp_path / "b.fc"
    save_collection(four_record_collection, a)
    save_collection(four_record_collection, b)
    assert a.read_bytes() == b.read_bytes()


# --- the reader against a per-line reference decoder --------------------------

# CI sweeps more seeds through this variable
FC_ORACLE_SEEDS = int(os.environ.get("FC_ORACLE_SEEDS", "200"))

# The per-line decode that read_collection once did, kept as its reference:
# each body line checked against the canonical spelling and decoded alone.
LINE_CANONICAL = re.compile(r"(?:[ -\[\]-~]|\\\\|\\x(?:[01][0-9a-f]|7f|[89a-f][0-9a-f]))*")


def reference_read(data: bytes) -> tuple[list[bytes], bytes, str]:
    """The requests, body and digest of a collection file, decoded line by
    line; a bad line raises the ParseError the reader must raise."""
    lines = decode_ascii(data, "collection file").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    _, start = parse_header(lines, fuzzgen._FC_HEADER, "digest", optional=("reduced-from",))
    requests = []
    for line_no, line in enumerate(lines[start:], start=start + 1):
        end = LINE_CANONICAL.match(line).end()
        if end < len(line):
            raise ParseError(f"not a printable character or canonical escape: "
                             f"{line[end:end + 4]!r}", line_no, end + 1)
        request = line.encode("ascii").decode("unicode_escape").encode("latin-1")
        if 0x0D in request or 0x0A in request:
            raise ParseError("request must not contain CR or LF", line_no)
        requests.append(request)
    body = "".join(line + "\n" for line in lines[start:]).encode("ascii")
    return requests, body, hashlib.sha256(body).hexdigest()


# Each one spoils one body line at a boundary between two escaped bytes,
# except CRLF, which ends every body line with CR LF.
CORRUPTIONS = {
    "second spelling of O": lambda chooser: "\\x4f",
    "uppercase hex": lambda chooser: "\\x" + chooser.choice(
        [f"{b:02X}" for b in range(0x80, 0x100) if not f"{b:02x}".isdigit()]),
    "lone trailing backslash": None,
    "escaped LF": lambda chooser: "\\x0a",
    "escaped CR": lambda chooser: "\\x0d",
    "non-ASCII byte": lambda chooser: chr(chooser.randrange(0x80, 0x100)),
    "CRLF line endings": None,
}
SWEPT_BYTES = [b for b in range(256) if b not in (0x0A, 0x0D)]


def random_request(chooser: random.Random) -> bytes:
    favoured = [0x5C, 0x7F, 0x00, 0xFF, 0x20]  # backslash, DEL, edges, space
    length = chooser.choice([0, 0, 1, 2, chooser.randrange(3, 24)])
    return bytes(chooser.choice(favoured if chooser.random() < 0.2 else SWEPT_BYTES)
                 for _ in range(length))


def spoiled(lines: list[str], kind: str, chooser: random.Random) -> str:
    if kind == "CRLF line endings":
        return "".join(line + "\r\n" for line in lines)
    lines = list(lines)
    at = chooser.randrange(len(lines))
    units = re.findall(r"\\x..|\\\\|.", lines[at])
    if kind == "lone trailing backslash":
        lines[at] += "\\"
    else:
        cut = chooser.randrange(len(units) + 1)
        lines[at] = "".join(units[:cut]) + CORRUPTIONS[kind](chooser) + "".join(units[cut:])
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("seed", range(FC_ORACLE_SEEDS))
def test_reader_matches_the_per_line_reference(seed):
    chooser = random.Random(seed)
    requests = [random_request(chooser) for _ in range(chooser.randint(1, 40))]
    reduced = chooser.random() < 0.5
    # a full collection's count is its config's: instances alone set it here
    config = FuzzConfig(commands=("NOOP",), max_arg_len=0, instances=len(requests),
                        mutations=0, seed=seed)
    collection = FuzzCollection(tuple(RequestRecord(i, r) for i, r in enumerate(requests)),
                                config, reduced_from="ab" * 32 if reduced else None)
    data = serialize(collection)
    if requests[-1] and chooser.random() < 0.2:
        data = data[:-1]  # no final LF; after an empty last request it would drop that request

    expected_requests, expected_body, expected_digest = reference_read(data)
    assert expected_requests == requests
    back = read_collection(io.BytesIO(data))
    assert [r.bytes for r in back.records] == requests
    assert [r.index for r in back.records] == list(range(len(requests)))
    assert back.body == expected_body == collection.body
    assert back.digest == expected_digest == collection.digest
    assert back == collection

    kind = list(CORRUPTIONS)[seed % len(CORRUPTIONS)]
    lines = [escape_line(r) for r in requests]
    body = spoiled(lines, kind, chooser).encode("latin-1")
    bad = under_digest(collection, body)
    with pytest.raises(ParseError) as expected:
        reference_read(bad)
    got = parse_error_of(bad)
    assert got == (expected.value.reason, expected.value.line_no, expected.value.column)
