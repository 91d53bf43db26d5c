"""Positional comparison of fingerprints and ranking against a database.

Two fingerprints are comparable only when they were taken with the same
request collection (equal digests and vector lengths) and the same scan
method (equal fp-versions; checked when a database is built and by the
`match` command).  An observation is its token (`"200"`, `"TMO"`, ...), and
agreement is exact token equality per position; fault sentinels count like
codes, since the absence of a status code is itself a distinguishing signal.

Agreement is counted on bitset planes.  A table gives every distinct token
an id, and a fingerprint becomes one integer per distinct token, with bit
i set where observation i is that token.  The equal positions of a and b
are then sum over tokens t of popcount(a[t] & b[t]): an exact integer
count, so ratios and percentages are the same as counting position by
position.  FingerprintDB encodes its entries once, when it is built;
rank, match_matrix and match_pair all count through `_agree`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
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
        """Display percentage, two decimals, rounded half away from zero."""
        q, r = divmod(self.agree * 10000, self.total)
        if 2 * r >= self.total:
            q += 1
        return q / 100


def display_label(fp: Fingerprint) -> str:
    return fp.label if fp.label is not None else fp.target


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
    """Count equal positions; the result is labelled after the candidate b."""
    _check_comparable(a, b)
    ids = _TokenIds()
    agree = _agree(_planes(ids.encode(a)), _planes(ids.encode(b)))
    return MatchResult(display_label(b), agree, len(a.observations))


class _TokenIds(dict):
    """Observation token -> one-character token id, handed out on first sight."""

    def __missing__(self, token: str) -> str:
        self[token] = token_id = chr(len(self))
        return token_id

    def encode(self, fp: Fingerprint) -> str:
        """The fingerprint as one token id per position."""
        return "".join(map(self.__getitem__, fp.observations))


def _planes(vector: str) -> dict[str, int]:
    """One bitset per distinct token id: bit i set where vector[i] is that id."""
    reverse = vector[::-1]  # int(..., 2) reads the last character as bit 0
    zeros = dict.fromkeys(map(ord, set(vector)), "0")
    return {
        chr(code): int(reverse.translate({**zeros, code: "1"}), 2) for code in zeros
    }


def _agree(a: dict[str, int], b: dict[str, int]) -> int:
    """Equal positions of two fingerprints encoded with the same token ids."""
    return sum((plane & b.get(t, 0)).bit_count() for t, plane in a.items())


class FingerprintDB:
    """All known fingerprints for one collection, indexed by unique label.

    Entries are encoded once, on construction: one token-id vector and one
    set of bitset planes per entry, in label order, over one token table.
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
        versions = {fp.fp_version for fp in fingerprints.values()}
        if len(versions) > 1:
            old = ", ".join(label for label, fp in sorted(fingerprints.items())
                            if fp.fp_version != max(versions))
            raise DatabaseError(f"entries mix fp-versions {sorted(versions)}; "
                                f"rescan the older ones: {old}")
        self._by_label = dict(sorted(fingerprints.items()))
        self._ids = _TokenIds()
        self._vectors = tuple(map(self._ids.encode, self._by_label.values()))
        self._planes = tuple(map(_planes, self._vectors))

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

    def items(self):
        return self._by_label.items()

    def fingerprints(self):
        return tuple(self._by_label.values())

    def columns(self):
        """Token ids position by position: one tuple per position holding
        each entry's id in label order.  Equal ids mean equal observations."""
        return zip(*self._vectors)


def rank(probe: Fingerprint, db: FingerprintDB, k: int = 5) -> list[MatchResult]:
    """Best k database entries by exact agreement ratio, ties by label."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if probe.collection_digest != db.digest:
        raise IncomparableError(
            "probe was taken with a different collection than the database "
            f"entries {', '.join(db.labels)}"
        )
    fps = db.fingerprints()
    _check_comparable(probe, fps[0])
    # encoded on a copy of the table: a token no entry holds gets a new id
    # that no entry's planes contain
    planes = _planes(_TokenIds(db._ids).encode(probe))
    total = len(probe.observations)
    results = [
        MatchResult(display_label(fp), _agree(planes, entry), total)
        for fp, entry in zip(fps, db._planes)
    ]
    results.sort(key=lambda m: (-m.agree, m.label))  # one total, so agree orders ratio
    return results[:k]


def match_matrix(db: FingerprintDB) -> list[list[float]]:
    """All-pairs percent matrix in label order; symmetric, diagonal 100.00."""
    if len(db) < 2:
        raise DatabaseError("matrix needs at least two fingerprints")
    fps = db.fingerprints()
    _check_comparable(fps[0], fps[-1])  # entries share digest and length
    n = len(fps)
    total = len(fps[0].observations)
    matrix = [[100.0] * n for _ in range(n)]
    for (i, a), (j, b) in combinations(enumerate(db._planes), 2):
        percent = MatchResult(display_label(fps[j]), _agree(a, b), total).percent
        matrix[i][j] = percent
        matrix[j][i] = percent
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
