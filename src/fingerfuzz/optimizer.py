"""Shrinks a collection to the requests that actually tell servers apart.

A request index is kept iff at least one pair of database fingerprints
disagrees at that position, so every pair distinguishable under the full
collection stays distinguishable under the reduced one.  Existing
fingerprints can be projected onto the reduced index set instead of
re-scanning; for deterministic servers both paths give the same vector.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

from .errors import FingerfuzzError, InsufficientDataError
from .fuzzgen import FuzzCollection, RequestRecord, body_digest, escape_line
from .matcher import FingerprintDB
from .scanner import Fingerprint


@dataclass(frozen=True)
class IndexSelection:
    source_digest: str
    kept: tuple[int, ...]
    provenance: tuple[int, ...]  # discriminating pair count, aligned with kept


def discriminating_indexes(db: FingerprintDB) -> IndexSelection:
    """Indexes where at least one unordered pair of fingerprints differs,
    counted on each position's string of token ids (`FingerprintDB.columns`)."""
    if len(db) < 2:
        raise InsufficientDataError("need at least two fingerprints to compare")
    all_pairs = len(db) * (len(db) - 1) // 2
    kept: list[int] = []
    provenance: list[int] = []
    for i, column in enumerate(db.columns()):
        agreeing = sum(c * (c - 1) // 2 for c in map(column.count, set(column)))
        differing = all_pairs - agreeing
        if differing > 0:
            kept.append(i)
            provenance.append(differing)
    return IndexSelection(db.digest, tuple(kept), tuple(provenance))


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
    records = tuple(
        RequestRecord(new_index, full.records[old_index].bytes)
        for new_index, old_index in enumerate(sel.kept)
    )
    digest = body_digest(escape_line(r.bytes) for r in records)
    return FuzzCollection(records, full.config, digest, reduced_from=full.digest)


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


def selection_csv(sel: IndexSelection) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["index", "provenance"])
    for index, count in zip(sel.kept, sel.provenance):
        writer.writerow([index, count])
    return out.getvalue()
