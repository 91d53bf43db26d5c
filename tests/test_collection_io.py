from __future__ import annotations

import hashlib
import io

import pytest

from fingerfuzz.errors import IntegrityError, ParseError
from fingerfuzz.fuzzgen import (
    FuzzConfig,
    build_collection,
    load_collection,
    read_collection,
    save_collection,
    write_collection,
)


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


def test_record_count_must_match_config(four_record_collection):
    data = serialize(four_record_collection)
    truncated = data.rsplit(b"\n", 2)[0] + b"\n"
    with pytest.raises((ParseError, IntegrityError)):
        read_collection(io.BytesIO(truncated))


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
