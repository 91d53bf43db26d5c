from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from fingerfuzz.errors import DatabaseError, IncomparableError
from fingerfuzz.matcher import (
    FingerprintDB,
    MatchResult,
    match_matrix,
    match_pair,
    matrix_csv,
    rank,
)
from fingerfuzz.optimizer import discriminating_indexes
from fingerfuzz.scanner import Fingerprint, save_fingerprint
from fingerfuzz.wire import ReplyObservation

from conftest import ALL_TOKENS, mixed_observations

DIGEST_A = "aa" * 32
DIGEST_B = "bb" * 32

TOKEN_POOL = ("200", "220", "500", "502", "550", "TMO", "DRP", "GBL")
PROBE_ONLY = ("421", "599")  # tokens no database entry holds


def make_fp(tokens, digest=DIGEST_A, label="fp") -> Fingerprint:
    return Fingerprint(
        collection_digest=digest,
        target="lab:21",
        observations=tuple(ReplyObservation.from_token(t) for t in tokens),
        label=label,
        greeting="220",
        login=("230",),
    )


def random_tokens(chooser: random.Random, length: int) -> list[str]:
    return [chooser.choice(TOKEN_POOL) for _ in range(length)]


def brute_force_agreement(a: Fingerprint, b: Fingerprint) -> int:
    count = 0
    for i in range(len(a.observations)):
        if a.observations[i] == b.observations[i]:
            count += 1
    return count


def test_identity_is_100_percent():
    fp = make_fp(["200", "TMO", "500"])
    result = match_pair(fp, fp)
    assert result.percent == 100.00
    assert result.ratio == 1


def test_close_version_delta_percentage():
    # 1000 positions, 22 disagreements -> exactly 97.80%
    base = ["200"] * 1000
    other = list(base)
    for i in range(22):
        other[i * 40] = "500"
    a = make_fp(base, label="v1")
    b = make_fp(other, label="v2")
    result = match_pair(a, b)
    assert result.agree == 978
    assert result.ratio == Fraction(978, 1000)
    assert result.percent == 97.80
    assert f"{result.percent:.2f}" == "97.80"


def test_sentinels_compare_like_codes():
    a = make_fp(["TMO", "DRP", "500"])
    b = make_fp(["TMO", "500", "500"])
    result = match_pair(a, b)
    assert result.agree == 2  # TMO==TMO, DRP!=500, 500==500


def test_symmetry():
    chooser = random.Random(5)
    for _ in range(50):
        length = chooser.randint(1, 60)
        a = make_fp(random_tokens(chooser, length), label="a")
        b = make_fp(random_tokens(chooser, length), label="b")
        assert match_pair(a, b).ratio == match_pair(b, a).ratio


def brute_force_percent(a: Fingerprint, b: Fingerprint) -> float:
    total = len(a.observations)
    return ((brute_force_agreement(a, b) * 20000 + total) // (2 * total)) / 100


def test_matches_brute_force_oracle():
    chooser = random.Random(17)
    for trial in range(200):
        # every tenth database draws from all 503 tokens and so holds more
        # than 255 distinct ones; the others leave PROBE_ONLY to the probe
        wide = trial % 10 == 0
        pool = ALL_TOKENS if wide else TOKEN_POOL
        length = chooser.randint(300, 400) if wide else chooser.randint(1, 80)

        def fp(label, extra=()):
            tokens = [chooser.choice(pool + extra) for _ in range(length)]
            return replace(make_fp(tokens, label=label),
                           observations=mixed_observations(chooser, tokens))

        entries = {f"e{i}": fp(f"e{i}") for i in range(chooser.randint(2, 5))}
        probe = fp("probe", extra=PROBE_ONLY)
        a, b = entries["e0"], entries["e1"]
        assert match_pair(a, b).agree == brute_force_agreement(a, b)
        assert match_pair(probe, a).agree == brute_force_agreement(probe, a)

        db = FingerprintDB(entries)
        expected = sorted(
            (-brute_force_agreement(probe, entry), label) for label, entry in entries.items()
        )
        assert [(m.label, m.agree, m.total) for m in rank(probe, db, k=len(db))] == [
            (label, -negated, length) for negated, label in expected
        ]
        labels = sorted(entries)
        assert match_matrix(db) == [
            [brute_force_percent(entries[x], entries[y]) for y in labels] for x in labels
        ]
        if wide:
            assert len(set().union(*(e.observations for e in entries.values()))) > 255


def test_ratio_one_iff_identical():
    chooser = random.Random(3)
    for _ in range(100):
        length = chooser.randint(1, 30)
        a = make_fp(random_tokens(chooser, length))
        b = make_fp(random_tokens(chooser, length))
        assert (match_pair(a, b).ratio == 1) == (a.observations == b.observations)


def test_percent_rounds_half_away_from_zero():
    # 25 of 4000 -> 0.625% -> displays 0.63, not banker's 0.62
    assert MatchResult("x", 25, 4000).percent == 0.63
    assert MatchResult("x", 1, 3).percent == 33.33
    assert MatchResult("x", 2, 3).percent == 66.67


def test_digest_mismatch_is_incomparable():
    a = make_fp(["200"], digest=DIGEST_A)
    b = make_fp(["200"], digest=DIGEST_B)
    with pytest.raises(IncomparableError):
        match_pair(a, b)


def test_length_mismatch_is_incomparable():
    with pytest.raises(IncomparableError):
        match_pair(make_fp(["200"]), make_fp(["200", "200"]))


# --- database and ranking ---------------------------------------------------

def test_rank_orders_by_ratio_then_label():
    probe = make_fp(["200"] * 10, label="probe")
    exact = make_fp(["200"] * 10, label="exact")
    off_one = make_fp(["500"] + ["200"] * 9, label="near")
    db = FingerprintDB({"exact": exact, "near": off_one})
    results = rank(probe, db, k=5)
    assert [(m.label, m.percent) for m in results] == [("exact", 100.0), ("near", 90.0)]


def test_rank_tie_broken_by_label():
    probe = make_fp(["200"] * 4, label="probe")
    tie1 = make_fp(["500"] + ["200"] * 3, label="zeta")
    tie2 = make_fp(["502"] + ["200"] * 3, label="alpha")
    db = FingerprintDB({"zeta": tie1, "alpha": tie2})
    results = rank(probe, db, k=2)
    assert [m.label for m in results] == ["alpha", "zeta"]


def test_rank_top_k_is_prefix_of_full_sort():
    chooser = random.Random(11)
    probe = make_fp(random_tokens(chooser, 20), label="probe")
    entries = {
        f"s{i:02d}": make_fp(random_tokens(chooser, 20), label=f"s{i:02d}")
        for i in range(8)
    }
    db = FingerprintDB(entries)
    full = rank(probe, db, k=8)
    assert rank(probe, db, k=1) == full[:1]
    assert rank(probe, db, k=3) == full[:3]


def test_rank_order_stable_under_entry_removal():
    chooser = random.Random(47)
    probe = make_fp(random_tokens(chooser, 25), label="probe")
    entries = {
        f"e{i}": make_fp(random_tokens(chooser, 25), label=f"e{i}") for i in range(6)
    }
    full_order = [m.label for m in rank(probe, FingerprintDB(entries), k=6)]
    for removed in list(entries):
        remaining = {k: v for k, v in entries.items() if k != removed}
        order = [m.label for m in rank(probe, FingerprintDB(remaining), k=5)]
        assert order == [label for label in full_order if label != removed]


def test_rank_digest_mismatch_names_entries():
    probe = make_fp(["200"], digest=DIGEST_B, label="probe")
    db = FingerprintDB({"known": make_fp(["200"], label="known")})
    with pytest.raises(IncomparableError, match="known"):
        rank(probe, db)


def test_db_load_from_directory(tmp_path):
    save_fingerprint(make_fp(["200", "500"], label="alpha"), tmp_path / "a.fp")
    save_fingerprint(make_fp(["200", "200"], label=None), tmp_path / "beta.fp")
    db = FingerprintDB.load(tmp_path)
    assert db.labels == ("alpha", "beta")  # unlabeled entry falls back to stem
    assert len(db) == 2


def test_db_rejects_duplicate_labels(tmp_path):
    save_fingerprint(make_fp(["200"], label="twin"), tmp_path / "a.fp")
    save_fingerprint(make_fp(["200"], label="twin"), tmp_path / "b.fp")
    with pytest.raises(DatabaseError, match="twin"):
        FingerprintDB.load(tmp_path)


def test_db_rejects_mixed_digests(tmp_path):
    save_fingerprint(make_fp(["200"], digest=DIGEST_A, label="a"), tmp_path / "a.fp")
    save_fingerprint(make_fp(["200"], digest=DIGEST_B, label="b"), tmp_path / "b.fp")
    with pytest.raises(DatabaseError):
        FingerprintDB.load(tmp_path)


def test_db_rejects_empty_directory(tmp_path):
    with pytest.raises(DatabaseError):
        FingerprintDB.load(tmp_path)


# --- matrix -------------------------------------------------------------------

def test_matrix_of_identical_pair():
    db = FingerprintDB({
        "x": make_fp(["200", "500"], label="x"),
        "y": make_fp(["200", "500"], label="y"),
    })
    assert match_matrix(db) == [[100.0, 100.0], [100.0, 100.0]]


def test_matrix_diagonal_and_symmetry():
    chooser = random.Random(23)
    entries = {
        name: make_fp(random_tokens(chooser, 16), label=name)
        for name in ("a", "b", "c", "d")
    }
    db = FingerprintDB(entries)
    matrix = match_matrix(db)
    for i in range(4):
        assert matrix[i][i] == 100.0
        for j in range(4):
            assert matrix[i][j] == matrix[j][i]


def test_matrix_csv_shape():
    db = FingerprintDB({
        "one": make_fp(["200", "500", "TMO"], label="one"),
        "two": make_fp(["200", "502", "TMO"], label="two"),
    })
    lines = matrix_csv(db).splitlines()
    assert lines[0] == "label,one,two"
    assert lines[1] == "one,100.00,66.67"
    assert lines[2] == "two,66.67,100.00"


# --- token-table width ----------------------------------------------------------

def brute_force_kept(fps: list[Fingerprint]) -> list[tuple[int, int]]:
    """(index, differing pairs) for every index where some pair differs."""
    kept = []
    for i in range(len(fps[0].observations)):
        differing = sum(
            1 for x in range(len(fps)) for y in range(x + 1, len(fps))
            if fps[x].observations[i] != fps[y].observations[i]
        )
        if differing:
            kept.append((i, differing))
    return kept


@pytest.mark.parametrize("distinct", [254, 255, 256, 300])
@pytest.mark.parametrize("unknown", [1, 2])
def test_width_boundary_matches_brute_force(distinct, unknown):
    # a table of 255 tokens plus the reserved id is the last to fit one
    # byte per position; from 256 on each position takes two
    chooser = random.Random(distinct * 10 + unknown)
    pool = chooser.sample(ALL_TOKENS, distinct)
    absent = [t for t in ALL_TOKENS if t not in pool][:unknown]
    length = distinct + 40
    first = pool + [chooser.choice(pool) for _ in range(40)]
    chooser.shuffle(first)
    vectors = [first]
    for _ in range(4):
        vector = list(chooser.choice(vectors))
        for pos in chooser.sample(range(length), length // 3):
            vector[pos] = chooser.choice(pool)
        vectors.append(vector)
    entries = {f"e{i}": make_fp(v, label=f"e{i}") for i, v in enumerate(vectors)}
    probe_tokens = list(vectors[2])
    for pos in chooser.sample(range(length), 10):
        probe_tokens[pos] = chooser.choice(pool)
    for pos, token in zip(chooser.sample(range(length), unknown), absent):
        probe_tokens[pos] = token
    probe = make_fp(probe_tokens, label="probe")

    db = FingerprintDB(entries)
    assert len(set().union(*vectors)) == distinct
    expected = sorted((-brute_force_agreement(probe, e), label) for label, e in entries.items())
    assert [(m.label, m.agree) for m in rank(probe, db, k=len(db))] == [
        (label, -negated) for negated, label in expected
    ]
    labels = sorted(entries)
    assert match_matrix(db) == [
        [brute_force_percent(entries[x], entries[y]) for y in labels] for x in labels
    ]
    for label, entry in entries.items():
        assert match_pair(probe, entry).agree == brute_force_agreement(probe, entry)
    selection = discriminating_indexes(db)
    assert list(zip(selection.kept, selection.provenance)) == brute_force_kept(
        [entries[label] for label in labels])


def test_zero_length_entries_build_but_do_not_rank():
    db = FingerprintDB({"a": make_fp([], label="a"), "b": make_fp([], label="b")})
    assert list(db.columns()) == []
    with pytest.raises(IncomparableError):
        rank(make_fp([], label="probe"), db)
