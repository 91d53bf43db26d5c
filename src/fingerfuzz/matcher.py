"""Positional comparison of fingerprints and ranking against a database.

Two fingerprints are comparable only when they were taken with the same
request collection (equal digests and vector lengths) and the same scan
method (equal fp-versions; `match` checks the probe's).  A FingerprintDB
checks its entries when it is built and names each by its label (`#label`,
else the file stem) in every `match` output; rank checks only the probe.  An
observation is its token (`"200"`, `"TMO"`, ...), and agreement is exact
token equality per position; fault sentinels count like codes, since the
absence of a status code is itself a distinguishing signal.

A FingerprintDB keeps each entry once, as its header fields and its string
of token ids: a table gives every distinct token of the database an id, one
character per position, and one more id, reserved, stands for every probe
token that no entry holds.  `FingerprintDB.load` maps each body line of a
`.fp` file straight to its id, so a load checks every token but builds no
observations; `db[label]` rebuilds the entry's Fingerprint on demand, from
the shared observations of `wire.BY_TOKEN`.  A database built from
Fingerprints encodes their observations into the same form.

The entries are packed once, when the database is built.  Most positions
hold the same id in every entry, so the database keeps apart `kept`, the
positions where some entry differs from the first.  The ids of the other
positions are stored once, in one packed constant; each entry is one integer
made of its ids' bytes at the kept positions only: one byte per position
while the table and the reserved id fit in 256 ids, two (`utf-16-le`) beyond
that.  Two vectors packed alike agree exactly where `a ^ b` has a zero lane,
so rank and match_matrix count the zero bytes of `(a ^ b).to_bytes(...)`; at
two bytes per position each lane's two bytes are ORed first.  Two entries
agree at every position outside `kept`, and a probe's agreement there is
counted once, against the constant.  The count is exact, so ratios and
percentages are the same as counting position by position.  match_pair
counts the same way: it ranks the probe against a database of the one
candidate.
"""

from __future__ import annotations

import csv
import heapq
import io
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import partial
from itertools import combinations, compress, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable

from . import fileio, wire
from .errors import DatabaseError, IncomparableError
from .scanner import Fingerprint, parse_fingerprint


@dataclass(frozen=True)
class MatchResult:
    label: str
    agree: int
    total: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.agree, self.total)

    @property
    def percent(self) -> float:
        return _percent(self.agree, self.total)


def _percent(agree: int, total: int) -> float:
    """Display percentage, two decimals, rounded half away from zero."""
    q, r = divmod(agree * 10000, total)
    return (q + (2 * r >= total)) / 100


def match_pair(a: Fingerprint, b: Fingerprint) -> MatchResult:
    """Count equal positions; labelled after the candidate b's label or target."""
    label = b.label if b.label is not None else b.target
    return rank(a, FingerprintDB({label: b}), k=1)[0]


class _TokenIds(dict):
    """Observation token -> one-character token id, handed out on first
    sight.  A string that is no observation token is a KeyError."""

    def __missing__(self, token: str) -> str:
        if token not in wire.BY_TOKEN:
            raise KeyError(token)
        self[token] = token_id = chr(len(self))
        return token_id

    def encode(self, tokens: Iterable[str]) -> str:
        """The tokens as one token id each."""
        return "".join(map(self.__getitem__, tokens))


# every Fingerprint field but the observations: what an entry keeps beside its ids
_HEADER = tuple(f.name for f in fields(Fingerprint) if f.name != "observations")


class FingerprintDB:
    """All known fingerprints for one collection, indexed by unique label.

    An entry is stored once, as its header fields (every Fingerprint field
    but the observations) and its string of token ids over the database's
    one token table; `db[label]` rebuilds its Fingerprint from them.  The
    entries are packed once, on construction (see the module docstring):
    `kept`, the positions where some entry differs from the first; the ids
    of the other positions in one packed constant, the first entry over
    every position, with a mask of the kept lanes; the kept columns as one
    column-major id string (column after column, each entry's id in label
    order); and one integer per entry over the kept positions, for rank and
    match_matrix to XOR.
    """

    def __init__(self, fingerprints: dict[str, Fingerprint]):
        ids = _TokenIds()
        entries = {}
        for label, fp in fingerprints.items():
            try:
                entry_ids = ids.encode(fp.observations)
            except KeyError as exc:
                raise DatabaseError(
                    f"entry '{label}' holds {exc.args[0]!r}, no observation token") from None
            entries[label] = {name: getattr(fp, name) for name in _HEADER}, entry_ids
        self._build(entries, ids)

    @classmethod
    def load(cls, directory) -> "FingerprintDB":
        """The `.fp` files of a directory, each labelled by its `#label`, else
        its file stem.  Each body becomes its token ids as it is read: every
        token is checked here, and no Fingerprint is built."""
        directory = Path(directory)
        if not directory.is_dir():
            raise DatabaseError(f"not a directory: {directory}")
        ids = _TokenIds()
        parse = partial(parse_fingerprint, encode=ids.encode)
        entries: dict[str, tuple[dict, str]] = {}
        # by name: on POSIX the order of sorting the paths, at a third of the cost
        for path in sorted(directory.glob("*.fp"), key=attrgetter("name")):
            header, entry_ids = fileio.load(path, parse)
            label = header["label"] if header["label"] is not None else path.stem
            if label in entries:
                raise DatabaseError(f"duplicate label '{label}' ({path.name})")
            entries[label] = header, entry_ids
        if not entries:
            raise DatabaseError(f"no .fp files in {directory}")
        db = cls.__new__(cls)
        db._build(entries, ids)
        return db

    def _build(self, entries: dict[str, tuple[dict, str]], ids: _TokenIds) -> None:
        """Check the entries (label -> header fields, token ids) and pack them."""
        if not entries:
            raise DatabaseError("database holds no fingerprints")
        digests = {header["collection_digest"] for header, _ in entries.values()}
        if len(digests) > 1:
            offenders = ", ".join(
                f"{label} ({header['collection_digest'][:12]}…)"
                for label, (header, _) in sorted(entries.items())
            )
            raise DatabaseError(f"mixed collection digests: {offenders}")
        lengths = {len(entry_ids) for _, entry_ids in entries.values()}
        if len(lengths) > 1:
            raise DatabaseError("entries disagree on observation count")
        if lengths == {0}:
            raise DatabaseError("entries hold no observations")
        versions = {header["fp_version"] for header, _ in entries.values()}
        if len(versions) > 1:
            old = ", ".join(label for label, (header, _) in sorted(entries.items())
                            if header["fp_version"] != max(versions))
            raise DatabaseError(f"entries mix fp-versions {sorted(versions)}; "
                                f"rescan the older ones: {old}")
        self.digest, self.fp_version = digests.pop(), versions.pop()
        self._entries = dict(sorted(entries.items()))
        # the table keyed by the shared observations: a probe holds those, and
        # a lookup that finds its key by identity skips comparing the strings
        self._ids = {wire.BY_TOKEN[token]: token_id for token, token_id in ids.items()}
        # token id -> the shared observation, to rebuild entries
        self._tokens = {token_id: token for token, token_id in self._ids.items()}
        # every entry's ids, entry after entry in label order
        table = "".join([entry_ids for _, entry_ids in self._entries.values()])
        self._reserved = chr(len(ids))  # the id of every token no entry holds
        # one byte per position while the ids and the reserved one fit in 256
        self._codec = "latin-1" if len(ids) < 256 else "utf-16-le"
        self._length = length = lengths.pop()
        first = self._pack(table[:length])
        differ = 0
        for start in range(length, len(table), length):
            differ |= self._pack(table[start:start + length]) ^ first
        self.kept = tuple(compress(range(length), self._lanes(differ, length)))
        # a probe's ids at the kept positions; one position gives a bare character
        self._take_kept = itemgetter(*self.kept) if self.kept else (lambda ids: "")
        # the shared ids: the first entry over every position, and a mask
        # that is nonzero in exactly the kept lanes
        self._constant, self._kept_mask = first, differ
        self._columns = "".join([table[i::length] for i in self.kept])
        n = len(self._entries)
        self._packed = tuple(self._pack(self._columns[r::n]) for r in range(n))

    def _pack(self, ids: str) -> int:
        """A token-id string as one integer of its bytes under `_codec`."""
        return int.from_bytes(ids.encode(self._codec), "big")

    def _lanes(self, x: int, count: int) -> bytes:
        """One byte per lane of a packed `count`-lane integer, zero exactly
        where the lane is zero."""
        if self._codec == "latin-1":
            return x.to_bytes(count, "big")
        # two bytes per position: OR each pair into its second byte
        return (x | x >> 8).to_bytes(2 * count, "big")[1::2]

    def _encode(self, fp: Fingerprint) -> tuple[int, int]:
        """A probe's kept positions packed like the entries, unknown tokens as
        the reserved id, and its agreement with the shared ids elsewhere: the
        zero lanes of its XOR with the constant, the kept ones masked."""
        ids = "".join(map(self._ids.get, fp.observations, repeat(self._reserved)))
        other = (self._pack(ids) ^ self._constant) | self._kept_mask
        base = self._lanes(other, self._length).count(0)
        return self._pack("".join(self._take_kept(ids))), base

    def _agree(self, a: int, b: int) -> int:
        """Equal kept positions of two packed entries: the zero lanes of a ^ b."""
        return self._lanes(a ^ b, len(self.kept)).count(0)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, label: str) -> Fingerprint:
        """The entry as a Fingerprint, rebuilt from its header fields and ids."""
        header, entry_ids = self._entries[label]
        return Fingerprint(observations=tuple(map(self._tokens.__getitem__, entry_ids)),
                           **header)

    def columns(self):
        """Token ids of the kept positions, one string per position in
        `kept` holding each entry's id in label order: contiguous slices of
        the column-major id string.  Equal ids mean equal observations."""
        columns, n = self._columns, len(self)
        return (columns[j:j + n] for j in range(0, len(columns), n))


def rank(probe: Fingerprint, db: FingerprintDB, k: int = 5) -> list[MatchResult]:
    """Best k database entries by exact agreement ratio, ties by database label."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if probe.collection_digest != db.digest:
        raise IncomparableError(
            "probe was taken with a different collection than the database "
            f"entries {', '.join(db.labels)}"
        )
    total = db._length
    if len(probe.observations) != total:
        raise IncomparableError(
            f"vector lengths differ: {len(probe.observations)} vs {total}")
    packed, base = db._encode(probe)
    agree = [db._agree(packed, entry) for entry in db._packed]
    # one total, so agree orders ratio; nlargest keeps label order in ties
    best = heapq.nlargest(k, range(len(agree)), key=agree.__getitem__)
    labels = db.labels
    return [MatchResult(labels[i], base + agree[i], total) for i in best]


def match_matrix(db: FingerprintDB) -> list[list[float]]:
    """All-pairs percent matrix in label order; symmetric, diagonal 100.00."""
    if len(db) < 2:
        raise DatabaseError("matrix needs at least two fingerprints")
    n, total = len(db), db._length
    constant = total - len(db.kept)  # every pair agrees outside kept
    matrix = [[100.0] * n for _ in range(n)]
    for (i, a), (j, b) in combinations(enumerate(db._packed), 2):
        matrix[i][j] = matrix[j][i] = _percent(constant + db._agree(a, b), total)
    return matrix


def matrix_csv(db: FingerprintDB) -> str:
    """Matrix as CSV with a label header row and column."""
    matrix = match_matrix(db)
    labels = db.labels
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", *labels])
    for label, row in zip(labels, matrix):
        writer.writerow([label, *(f"{cell:.2f}" for cell in row)])
    return out.getvalue()
