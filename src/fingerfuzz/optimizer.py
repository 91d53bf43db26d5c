"""Shrinks a collection to the requests that actually tell servers apart.

A request index is kept iff at least one pair of database fingerprints
disagrees at that position, so every pair distinguishable under the full
collection stays distinguishable under the reduced one.  These are the
database's `kept` positions, found when it was loaded.  Existing
fingerprints can be projected onto the reduced index set instead of
re-scanning; for deterministic servers both paths give the same vector.

How many pairs differ at each kept position is counted by `pair_counts`,
only where it is written: the `--emit-indexes` CSV of `selection_csv`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

from .errors import DatabaseError, FingerfuzzError
from .fuzzgen import FuzzCollection, RequestRecord
from .matcher import FingerprintDB
from .scanner import Fingerprint


@dataclass(frozen=True)
class IndexSelection:
    source_digest: str
    kept: tuple[int, ...]


def discriminating_indexes(db: FingerprintDB) -> IndexSelection:
    """Indexes where at least one unordered pair of fingerprints differs:
    the database's `kept` positions, where some entry differs from the
    first.  Nothing is counted here; see `pair_counts`."""
    if len(db) < 2:
        raise DatabaseError("need at least two fingerprints to compare")
    return IndexSelection(db.digest, db.kept)


def pair_counts(db: FingerprintDB) -> tuple[int, ...]:
    """How many unordered pairs of fingerprints differ at each kept
    position, aligned with `db.kept`, counted on its string of token ids
    (`FingerprintDB.columns`).  It is the score FiG gives a query
    (Caballero et al., NDSS 2007)."""
    all_pairs = len(db) * (len(db) - 1) // 2
    return tuple(
        all_pairs - sum(c * (c - 1) // 2 for c in map(column.count, set(column)))
        for column in db.columns()
    )


def reduce_collection(full: FuzzCollection, sel: IndexSelection) -> FuzzCollection:
    """New collection holding only the kept records, re-indexed from zero."""
    if sel.source_digest != full.digest:
        raise FingerfuzzError(
            "selection was computed for a different collection "
            f"({sel.source_digest[:12]}… vs {full.digest[:12]}…)"
        )
    if not sel.kept:
        raise FingerfuzzError(
            "selection is empty: the database fingerprints are identical, "
            "so no request discriminates between them"
        )
    if sel.kept[-1] >= len(full.records):
        raise FingerfuzzError("selection index beyond collection size")
    kept = [full.records[i].bytes for i in sel.kept]
    # the full body holds every request escaped already, one per line
    lines = full.body.split(b"\n")
    body = b"".join([lines[i] + b"\n" for i in sel.kept])
    return FuzzCollection(tuple(map(RequestRecord._make, enumerate(kept))), full.config,
                          reduced_from=full.digest, _body=body)


def project_fingerprint(
    fp: Fingerprint, sel: IndexSelection, reduced_digest: str
) -> Fingerprint:
    """Restrict an existing fingerprint to the kept indexes.

    Equivalent to re-scanning with the reduced collection only when the
    target answers deterministically.
    """
    if fp.collection_digest != sel.source_digest:
        raise FingerfuzzError(
            "fingerprint was taken with a different collection than the selection"
        )
    if not sel.kept:
        raise FingerfuzzError("selection is empty")
    if sel.kept[-1] >= len(fp.observations):
        raise FingerfuzzError("selection index beyond fingerprint length")
    observations = tuple(fp.observations[i] for i in sel.kept)
    return replace(fp, collection_digest=reduced_digest, observations=observations)


def selection_csv(db: FingerprintDB) -> str:
    """The kept positions of `db`, each with its differing pairs, as CSV."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["index", "provenance"])
    for index, count in zip(db.kept, pair_counts(db)):
        writer.writerow([index, count])
    return out.getvalue()
