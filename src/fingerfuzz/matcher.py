"""Positional comparison of fingerprints and ranking against a database.

Two fingerprints are comparable only when they were taken with the same
request collection (equal digests and vector lengths) and the same scan
method (equal fp-versions; `match` checks the probe's).  A FingerprintDB
checks its entries when it is built and names each by its label (`#label`,
else the file stem) in every `match` output; rank checks only the probe.  An
observation is its token (`"200"`, `"TMO"`, ...), and agreement is exact
token equality per position; fault sentinels count like codes, since the
absence of a status code is itself a distinguishing signal.

A FingerprintDB packs its entries once, when it is built.  A table gives
every distinct token of the database an id, and one more id, reserved, stands
for every probe token that no entry holds.  An entry becomes its string of
ids, one character per position, and one integer made of that string's
bytes: one byte per position while the table and the reserved id fit in 256
ids, two (`utf-16-le`) beyond that.  Two vectors packed alike agree exactly
where `a ^ b` has a zero lane, so rank and match_matrix count the zero bytes
of `(a ^ b).to_bytes(...)`; at two bytes per position each lane's two bytes
are ORed first.  The count is exact, so ratios and percentages are the same
as counting position by position.  match_pair, which has no database to
pack against, compares the two token vectors directly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from pathlib import Path

from .errors import DatabaseError, IncomparableError
from .scanner import Fingerprint, load_fingerprint


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


def _check_comparable(a: Fingerprint, b: Fingerprint) -> None:
    if a.collection_digest != b.collection_digest:
        raise IncomparableError(
            f"collection digests differ: {a.collection_digest[:12]}… vs "
            f"{b.collection_digest[:12]}…"
        )
    if len(a.observations) != len(b.observations):
        raise IncomparableError(
            f"vector lengths differ: {len(a.observations)} vs {len(b.observations)}"
        )
    if not a.observations:
        raise IncomparableError("fingerprints are empty")


def match_pair(a: Fingerprint, b: Fingerprint) -> MatchResult:
    """Count equal positions; labelled after the candidate b's label or target."""
    _check_comparable(a, b)
    agree = sum(map(str.__eq__, a.observations, b.observations))
    label = b.label if b.label is not None else b.target
    return MatchResult(label, agree, len(a.observations))


class _TokenIds(dict):
    """Observation token -> one-character token id, handed out on first sight."""

    def __missing__(self, token: str) -> str:
        self[token] = token_id = chr(len(self))
        return token_id

    def encode(self, fp: Fingerprint) -> str:
        """The fingerprint as one token id per position."""
        return "".join(map(self.__getitem__, fp.observations))


class FingerprintDB:
    """All known fingerprints for one collection, indexed by unique label.

    Entries are packed once, on construction, over one token table: all
    entries' token ids as one row-major string (entry after entry, in label
    order), and one integer per entry made of its id bytes, for rank and
    match_matrix to XOR (see the module docstring).
    """

    def __init__(self, fingerprints: dict[str, Fingerprint]):
        if not fingerprints:
            raise DatabaseError("database holds no fingerprints")
        digests = {fp.collection_digest for fp in fingerprints.values()}
        if len(digests) > 1:
            offenders = ", ".join(
                f"{label} ({fp.collection_digest[:12]}…)"
                for label, fp in sorted(fingerprints.items())
            )
            raise DatabaseError(f"mixed collection digests: {offenders}")
        lengths = {len(fp.observations) for fp in fingerprints.values()}
        if len(lengths) > 1:
            raise DatabaseError("entries disagree on observation count")
        if lengths == {0}:
            raise DatabaseError("entries hold no observations")
        versions = {fp.fp_version for fp in fingerprints.values()}
        if len(versions) > 1:
            old = ", ".join(label for label, fp in sorted(fingerprints.items())
                            if fp.fp_version != max(versions))
            raise DatabaseError(f"entries mix fp-versions {sorted(versions)}; "
                                f"rescan the older ones: {old}")
        self._by_label = dict(sorted(fingerprints.items()))
        self._ids = _TokenIds()
        vectors = tuple(map(self._ids.encode, self._by_label.values()))
        self._reserved = chr(len(self._ids))  # the id of every token no entry holds
        # one byte per position while the ids and the reserved one fit in 256
        self._codec = "latin-1" if len(self._ids) < 256 else "utf-16-le"
        self._length = lengths.pop()
        self._table = "".join(vectors)
        self._packed = tuple(map(self._pack, vectors))

    def _pack(self, vector: str) -> int:
        """A token-id vector as one integer of its bytes under `_codec`."""
        return int.from_bytes(vector.encode(self._codec), "big")

    def _encode(self, fp: Fingerprint) -> int:
        """A probe packed like the entries, unknown tokens as the reserved id."""
        ids = map(self._ids.get, fp.observations, repeat(self._reserved))
        return self._pack("".join(ids))

    def _agree(self, a: int, b: int) -> int:
        """Equal positions of two packed vectors: the zero lanes of a ^ b."""
        x = a ^ b
        if self._codec == "latin-1":
            return x.to_bytes(self._length, "big").count(0)
        # two bytes per position: OR each pair into its second byte
        return (x | x >> 8).to_bytes(2 * self._length, "big")[1::2].count(0)

    @classmethod
    def load(cls, directory) -> "FingerprintDB":
        directory = Path(directory)
        if not directory.is_dir():
            raise DatabaseError(f"not a directory: {directory}")
        entries: dict[str, Fingerprint] = {}
        for path in sorted(directory.glob("*.fp")):
            fp = load_fingerprint(path)
            label = fp.label if fp.label is not None else path.stem
            if label in entries:
                raise DatabaseError(f"duplicate label '{label}' ({path.name})")
            entries[label] = fp
        if not entries:
            raise DatabaseError(f"no .fp files in {directory}")
        return cls(entries)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._by_label)

    @property
    def digest(self) -> str:
        return next(iter(self._by_label.values())).collection_digest

    @property
    def fp_version(self) -> int:
        return next(iter(self._by_label.values())).fp_version

    def __len__(self) -> int:
        return len(self._by_label)

    def __getitem__(self, label: str) -> Fingerprint:
        return self._by_label[label]

    def columns(self):
        """Token ids position by position: one string per position holding
        each entry's id in label order, a strided slice of the row-major id
        table.  Equal ids mean equal observations."""
        table, stride = self._table, self._length
        return (table[i::stride] for i in range(stride))


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
    packed = db._encode(probe)
    results = [
        MatchResult(label, db._agree(packed, entry), total)
        for label, entry in zip(db.labels, db._packed)
    ]
    results.sort(key=lambda m: (-m.agree, m.label))  # one total, so agree orders ratio
    return results[:k]


def match_matrix(db: FingerprintDB) -> list[list[float]]:
    """All-pairs percent matrix in label order; symmetric, diagonal 100.00."""
    if len(db) < 2:
        raise DatabaseError("matrix needs at least two fingerprints")
    n, total = len(db), db._length
    matrix = [[100.0] * n for _ in range(n)]
    for (i, a), (j, b) in combinations(enumerate(db._packed), 2):
        matrix[i][j] = matrix[j][i] = _percent(db._agree(a, b), total)
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
