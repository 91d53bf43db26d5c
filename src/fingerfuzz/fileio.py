"""The text-file layer: ASCII decoding, the `#key value` header of `.fc` and
`.fp` files, read and written from one table per format, loading a file so
that its errors name the path, and atomic output, so interrupted runs leave
no truncated files."""

from __future__ import annotations

import os
import tempfile
from typing import BinaryIO, Callable, Iterable, TypeVar

from .errors import IntegrityError, ParseError

T = TypeVar("T")


def decode_ascii(data: bytes, what: str) -> str:
    """The whole file as text; a non-ASCII byte is an error naming its line."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"non-ASCII byte in {what}", line_no) from None


def parse_header(lines: list[str], table: dict, closing: str,
                 optional: Iterable[str] = ()) -> tuple[dict, int]:
    """Parse the `#key value` lines that open a file, up to the `#closing` one.

    `table` maps each key, in the order the writer emits them, to the name
    of the field its value holds, the function that converts the value text
    (raising ValueError on bad text) and the one that writes it.  Keys not
    in `optional` must appear, and none twice.  Returns the values by field
    name, None for an absent optional key, and the header's line count.
    Every error names its line.
    """
    values: dict[str, object] = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.startswith("#"):
            raise ParseError(f"expected a '#' header line before '#{closing}'", line_no)
        key, _, text = line[1:].partition(" ")
        if key not in table:
            raise ParseError(f"unknown header '{key}'", line_no)
        name, parse, _ = table[key]
        if name in values:
            raise ParseError(f"duplicate header '{key}'", line_no)
        try:
            values[name] = parse(text)
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        if key == closing:
            break
    else:
        raise ParseError(f"missing header '{closing}'", len(lines) or None)
    for key, (name, _, _) in table.items():
        if name not in values:
            if key not in optional:
                raise ParseError(f"missing header '{key}'", line_no)
            values[name] = None
    return values, line_no


def format_header(table: dict, values: dict) -> bytes:
    """The `#key value` lines of a header in table order, each value taken
    by its field name; a None value omits its key."""
    lines = (f"#{key} {write(values[name])}\n" for key, (name, _, write) in table.items()
             if values[name] is not None)
    return "".join(lines).encode("ascii")


def load(path, read: Callable[[BinaryIO], T]) -> T:
    """`read` of the file at `path`; a ParseError or IntegrityError names the path."""
    with open(path, "rb") as fh:
        try:
            return read(fh)
        except ParseError as exc:
            raise ParseError(exc.reason, exc.line_no, exc.column, path) from None
        except IntegrityError as exc:
            raise IntegrityError(f"{path}: {exc}") from None


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
