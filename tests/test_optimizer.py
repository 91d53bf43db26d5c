from __future__ import annotations

import random
from dataclasses import replace
from itertools import combinations

import pytest

from fingerfuzz.errors import DatabaseError, FingerfuzzError
from fingerfuzz.fuzzgen import FuzzConfig, build_collection
from fingerfuzz.labserver import Rule, ServerScript
from fingerfuzz.matcher import FingerprintDB, match_pair
from fingerfuzz.optimizer import (
    IndexSelection,
    discriminating_indexes,
    pair_counts,
    project_fingerprint,
    reduce_collection,
    selection_csv,
)
from fingerfuzz.scanner import Fingerprint, fingerprint_target
from fingerfuzz.wire import ReplyObservation

from conftest import ALL_TOKENS, fast_target, mixed_observations

DIGEST = "cd" * 32


def make_fp(tokens, label, digest=DIGEST) -> Fingerprint:
    return Fingerprint(
        collection_digest=digest,
        target="lab:21",
        observations=tuple(ReplyObservation.from_token(t) for t in tokens),
        label=label,
        greeting="220",
        login=("230",),
    )


def db_of(*token_lists) -> FingerprintDB:
    return FingerprintDB({
        f"s{i}": make_fp(tokens, f"s{i}") for i, tokens in enumerate(token_lists)
    })


def test_identical_pair_keeps_nothing():
    db = db_of(["200", "500"], ["200", "500"])
    assert discriminating_indexes(db).kept == ()


def test_two_fingerprints_differing_at_two_positions():
    a = ["200"] * 10
    b = list(a)
    b[3] = "500"
    b[7] = "TMO"
    db = db_of(a, b)
    sel = discriminating_indexes(db)
    assert sel.kept == (3, 7)
    assert pair_counts(db) == (1, 1)
    assert sel.source_digest == DIGEST


def test_provenance_counts_disagreeing_pairs():
    # position 0: all equal; position 1: one odd one out (2 pairs);
    # position 2: all three distinct (3 pairs)
    db = db_of(["200", "200", "500"], ["200", "200", "502"], ["200", "501", "550"])
    sel = discriminating_indexes(db)
    assert sel.kept == (1, 2)
    assert pair_counts(db) == (2, 3)


def test_provenance_matches_brute_force():
    chooser = random.Random(31)
    for trial in range(20):
        # the last database draws from all 503 tokens: more than 255 distinct
        pool = ALL_TOKENS if trial == 19 else ("200", "500", "TMO")
        length = chooser.randint(300, 400) if trial == 19 else 24
        entries = {}
        for i in range(chooser.randint(2, 6)):
            tokens = [chooser.choice(pool) for _ in range(length)]
            entries[f"s{i}"] = replace(make_fp(tokens, f"s{i}"),
                                       observations=mixed_observations(chooser, tokens))
        db = FingerprintDB(entries)
        sel = discriminating_indexes(db)
        fps = [db[label] for label in db.labels]
        for index, count in zip(sel.kept, pair_counts(db), strict=True):
            expected = sum(
                1 for x, y in combinations(fps, 2)
                if x.observations[index] != y.observations[index]
            )
            assert count == expected
        discarded = set(range(length)) - set(sel.kept)
        for index in discarded:
            assert len({fp.observations[index] for fp in fps}) == 1
    assert len(set().union(*(fp.observations for fp in fps))) > 255


def test_needs_two_entries():
    with pytest.raises(DatabaseError, match="at least two fingerprints"):
        discriminating_indexes(db_of(["200"]))


# --- reduce -------------------------------------------------------------------

@pytest.fixture
def small_collection():
    return build_collection(
        FuzzConfig(commands=("NOOP", "SYST"), max_arg_len=1, instances=1,
                   mutations=1, seed=7)
    )


def test_identity_reduction_preserves_digest(small_collection):
    total = len(small_collection.records)
    sel = IndexSelection(small_collection.digest, tuple(range(total)))
    reduced = reduce_collection(small_collection, sel)
    assert reduced.digest == small_collection.digest
    assert reduced.reduced_from == small_collection.digest
    assert [r.bytes for r in reduced.records] == [r.bytes for r in small_collection.records]


def test_single_record_reduction(small_collection):
    sel = IndexSelection(small_collection.digest, (0,))
    reduced = reduce_collection(small_collection, sel)
    assert len(reduced.records) == 1
    assert reduced.records[0].bytes == small_collection.records[0].bytes
    assert reduced.records[0].index == 0


def test_reduce_requires_matching_digest(small_collection):
    sel = IndexSelection("ff" * 32, (0,))
    with pytest.raises(FingerfuzzError):
        reduce_collection(small_collection, sel)


def test_reduce_rejects_empty_selection(small_collection):
    sel = IndexSelection(small_collection.digest, ())
    with pytest.raises(FingerfuzzError, match="discriminates"):
        reduce_collection(small_collection, sel)


def test_reduced_file_round_trip(tmp_path, small_collection):
    import io

    from fingerfuzz.fuzzgen import read_collection, write_collection

    sel = IndexSelection(small_collection.digest, (1, 3))
    reduced = reduce_collection(small_collection, sel)
    buf = io.BytesIO()
    write_collection(reduced, buf)
    text = buf.getvalue().decode("ascii")
    assert f"#reduced-from {small_collection.digest}" in text
    again = read_collection(io.BytesIO(buf.getvalue()))
    assert again == reduced


def test_reduced_file_starting_with_hash_byte_round_trips():
    # a mutant request may begin with '#'; as the first body line it must
    # not be mistaken for a header
    import io

    from fingerfuzz.fuzzgen import read_collection, write_collection

    col = build_collection(
        FuzzConfig(commands=("NOOP",), max_arg_len=1, instances=2, mutations=3,
                   seed=6)
    )
    hash_record = next(r for r in col.records if r.bytes.startswith(b"#"))
    sel = IndexSelection(col.digest, (hash_record.index,))
    reduced = reduce_collection(col, sel)
    buf = io.BytesIO()
    write_collection(reduced, buf)
    assert read_collection(io.BytesIO(buf.getvalue())) == reduced


# --- projection -----------------------------------------------------------------

def test_projection_of_full_selection_is_identity():
    fp = make_fp(["200", "500", "TMO"], "x")
    sel = IndexSelection(DIGEST, (0, 1, 2))
    projected = project_fingerprint(fp, sel, "ee" * 32)
    assert projected.observations == fp.observations
    assert projected.collection_digest == "ee" * 32
    assert projected.label == fp.label


def test_projection_restricts_positions():
    fp = make_fp(["200", "500", "TMO", "502"], "x")
    sel = IndexSelection(DIGEST, (1, 3))
    projected = project_fingerprint(fp, sel, "ee" * 32)
    assert [o.token() for o in projected.observations] == ["500", "502"]


def test_projection_rejects_empty_selection():
    fp = make_fp(["200"], "x")
    with pytest.raises(FingerfuzzError):
        project_fingerprint(fp, IndexSelection(DIGEST, ()), "ee" * 32)


def test_projection_requires_matching_digest():
    fp = make_fp(["200"], "x", digest="ff" * 32)
    with pytest.raises(FingerfuzzError):
        project_fingerprint(fp, IndexSelection(DIGEST, (0,)), "ee" * 32)


# --- end-to-end reduction behaviour ----------------------------------------------

def lab_scripts():
    base_rules = (
        Rule("NOOP", "ANY", "REPLY:200:ok"),
        Rule("SYST", "ANY", "REPLY:215:UNIX"),
    )
    return [
        ServerScript(name="prod-a", rules=base_rules, default_code=502),
        ServerScript(name="prod-b", rules=base_rules, default_code=500),
        ServerScript(
            name="prod-a2",
            rules=(Rule("NOOP", "ANY", "REPLY:250:ok"),) + base_rules[1:],
            default_code=502,
        ),
    ]


def test_discrimination_preserved_after_reduction(lab_factory):
    collection = build_collection(
        FuzzConfig(commands=("NOOP", "SYST", "HELP"), max_arg_len=1, instances=1,
                   mutations=0, seed=5)
    )
    fps = {}
    for script in lab_scripts():
        server = lab_factory(script)
        fps[script.name] = fingerprint_target(
            collection, fast_target(server.port), label=script.name
        )
    db = FingerprintDB(fps)
    sel = discriminating_indexes(db)
    assert sel.kept  # the scripts differ, something must discriminate
    reduced = reduce_collection(collection, sel)

    projected = {
        label: project_fingerprint(db[label], sel, reduced.digest) for label in db.labels
    }
    for a, b in combinations(sorted(projected), 2):
        full_ratio = match_pair(db[a], db[b]).ratio
        red_ratio = match_pair(projected[a], projected[b]).ratio
        if full_ratio < 1:
            assert red_ratio < 1


def test_projection_equals_rescan(lab_factory):
    collection = build_collection(
        FuzzConfig(commands=("NOOP", "SYST", "HELP"), max_arg_len=1, instances=1,
                   mutations=1, seed=11)
    )
    scripts = lab_scripts()
    servers = {s.name: lab_factory(s) for s in scripts}
    fps = {
        name: fingerprint_target(collection, fast_target(server.port), label=name)
        for name, server in servers.items()
    }
    sel = discriminating_indexes(FingerprintDB(fps))
    reduced = reduce_collection(collection, sel)
    for name, server in servers.items():
        projected = project_fingerprint(fps[name], sel, reduced.digest)
        rescanned = fingerprint_target(reduced, fast_target(server.port), label=name)
        assert rescanned.observations == projected.observations
        assert rescanned.collection_digest == projected.collection_digest


def test_selection_csv_format():
    # four entries: one odd one out at 3 (3 pairs), two pairs at 7 (4),
    # a pair and two singles at 9 (5)
    a = ["200"] * 10
    b, c, d = list(a), list(a), list(a)
    d[3] = d[9] = "TMO"
    c[7] = d[7] = "500"
    b[9] = "502"
    assert selection_csv(db_of(a, b, c, d)) == "index,provenance\n3,3\n7,4\n9,5\n"
