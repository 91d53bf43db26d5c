"""The text-file layer: ASCII decoding, the `#key value` header of `.fc` and
`.fp` files, and atomic output, so interrupted runs leave no truncated files."""

from __future__ import annotations

import os
import tempfile
from typing import Callable, Iterable

from .errors import ParseError


def decode_ascii(data: bytes, what: str) -> str:
    """The whole file as text; a non-ASCII byte is an error naming its line."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"non-ASCII byte in {what}", line_no) from None


def parse_header(lines: list[str], fields: dict[str, Callable[[str], object]],
                 closing: str, optional: Iterable[str] = ()) -> tuple[dict, int]:
    """Parse the `#key value` lines that open a file, up to the `#closing` one.

    `fields` maps each known key to the function that converts its value text
    (raising ValueError on bad text); keys not in `optional` must appear, and
    none twice.  Returns the values and the header's line count.  Every error
    names its line.
    """
    values: dict[str, object] = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.startswith("#"):
            raise ParseError(f"expected a '#' header line before '#{closing}'", line_no)
        key, _, text = line[1:].partition(" ")
        if key not in fields:
            raise ParseError(f"unknown header '{key}'", line_no)
        if key in values:
            raise ParseError(f"duplicate header '{key}'", line_no)
        try:
            values[key] = fields[key](text)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        if key == closing:
            break
    else:
        raise ParseError(f"missing header '{closing}'", len(lines) or None)
    for key in fields:
        if key not in values and key not in optional:
            raise ParseError(f"missing header '{key}'", line_no)
    return values, line_no


def format_header(fields: Iterable[tuple[str, object]]) -> bytes:
    """The `#key value` lines of a header, in the given order; None omits a key."""
    lines = (f"#{key} {value}\n" for key, value in fields if value is not None)
    return "".join(lines).encode("ascii")


def atomic_write(path, data: bytes) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
