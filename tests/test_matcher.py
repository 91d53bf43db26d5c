from __future__ import annotations

import errno
import os
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from fingerfuzz.cli import main
from fingerfuzz.errors import DatabaseError, IncomparableError, ParseError
from fingerfuzz.matcher import (
    FingerprintDB,
    MatchResult,
    match_matrix,
    match_pair,
    matrix_csv,
    rank,
)
from fingerfuzz.optimizer import discriminating_indexes, pair_counts
from fingerfuzz.scanner import Fingerprint, load_fingerprint, save_fingerprint
from fingerfuzz.wire import BY_TOKEN, ReplyObservation

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
    with pytest.raises(IncomparableError, match=r"^vector lengths differ: 1 vs 2$"):
        match_pair(make_fp(["200"]), make_fp(["200", "200"]))


def test_match_pair_is_labelled_after_the_candidate():
    a = make_fp(["200", "500"], label="probe")
    assert match_pair(a, make_fp(["200", "200"], label="cand")) == MatchResult("cand", 1, 2)
    assert match_pair(a, make_fp(["500", "500"], label=None)) == MatchResult("lab:21", 1, 2)


def test_match_pair_refuses_a_candidate_no_database_holds():
    with pytest.raises(DatabaseError, match="entries hold no observations"):
        match_pair(make_fp(["200"]), make_fp([]))
    with pytest.raises(DatabaseError, match="entry 'fp' holds 'WAT', no observation token"):
        match_pair(make_fp(["200"]), replace(make_fp(["200"]), observations=("WAT",)))


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


def test_rank_labels_results_by_database_label():
    # the keys differ from every entry's own label, which may be absent; a
    # result carries the key, as the matrix does
    chooser = random.Random(59)
    for _ in range(50):
        length = chooser.randint(1, 40)
        entries = {
            f"k{i}": make_fp(random_tokens(chooser, length),
                             label=chooser.choice([None, "fp", f"k{i + 1}"]))
            for i in range(chooser.randint(1, 6))
        }
        probe = make_fp(random_tokens(chooser, length), label="probe")
        db = FingerprintDB(entries)
        results = rank(probe, db, k=len(db))
        assert sorted(m.label for m in results) == list(db.labels) == sorted(entries)
        for m in results:
            assert m.agree == brute_force_agreement(probe, db[m.label])


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


# --- corrupt entries ------------------------------------------------------------

def write_entries(directory, count=3, length=12):
    """e0.fp .. e{count-1}.fp, labelled like their stems; header lines 1-7,
    body lines 8 on."""
    directory.mkdir()
    for i in range(count):
        tokens = ["200"] * length
        tokens[i] = "500"
        save_fingerprint(make_fp(tokens, label=f"e{i}"), directory / f"e{i}.fp")


def set_line(path, line_no, data: bytes | None):
    """Replace line `line_no` of the file with `data`, or delete it (None)."""
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1:line_no] = [] if data is None else [data]
    path.write_bytes(b"\n".join(lines))


# case -> (corruption, error type, file the error names, reason, line)
CORRUPT_ENTRIES = {
    "bad token": (lambda d: set_line(d / "e2.fp", 19, b"20O"),
                  ParseError, "e2.fp", "bad observation token '20O'", 19),
    "blank line": (lambda d: set_line(d / "e1.fp", 10, b""),
                   ParseError, "e1.fp", "blank line", 10),
    "carriage return": (lambda d: set_line(d / "e0.fp", 8, b"200\r"),
                        ParseError, "e0.fp", "bad observation token '200\\r'", 8),
    "non-ascii byte": (lambda d: set_line(d / "e1.fp", 12, b"2\xe90"),
                       ParseError, "e1.fp", "non-ASCII byte in fingerprint file", 12),
    "no body": (lambda d: [set_line(d / "e1.fp", 8, None) for _ in range(12)],
                ParseError, "e1.fp", "fingerprint has no observations", None),
    "missing login": (lambda d: set_line(d / "e1.fp", 7, None),
                      ParseError, "e1.fp", "expected a '#' header line before '#login'", 7),
    "fp-version 1": (lambda d: set_line(d / "e1.fp", 1, b"#fp-version 1"),
                     DatabaseError, None,
                     "entries mix fp-versions [1, 2]; rescan the older ones: e1", None),
    "duplicate label": (lambda d: set_line(d / "e2.fp", 4, b"#label e0"),
                        DatabaseError, None, "duplicate label 'e0' (e2.fp)", None),
    "directory": (lambda d: (d / "x.fp").mkdir(),
                  IsADirectoryError, "x.fp", os.strerror(errno.EISDIR), None),
}


@pytest.mark.parametrize("case", CORRUPT_ENTRIES)
def test_corrupt_entry_fails_the_load(tmp_path, case, capsys):
    corrupt, kind, name, reason, line_no = CORRUPT_ENTRIES[case]
    db_dir = tmp_path / "db"
    write_entries(db_dir)
    corrupt(db_dir)
    with pytest.raises(kind) as info:
        FingerprintDB.load(db_dir)
    error = info.value
    assert type(error) is kind
    if kind is ParseError:
        assert (error.reason, error.line_no) == (reason, line_no)
        where = f"line {line_no}: " if line_no else ""
        assert str(error) == f"{db_dir / name}: {where}{reason}"
    elif kind is IsADirectoryError:
        assert (error.errno, error.strerror) == (errno.EISDIR, reason)
        assert os.fspath(error.filename) == os.fspath(db_dir / name)
    else:
        assert str(error) == reason
    # the CLI reports the same error and exits 1, with or without a probe
    probe = tmp_path / "probe.fp"
    save_fingerprint(make_fp(["200"] * 12, label="probe"), probe)
    for args in (["--matrix"], ["--fingerprint", str(probe)]):
        assert main(["match", "--db", str(db_dir), *args]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"


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
    assert discriminating_indexes(db).kept == db.kept
    assert list(zip(db.kept, pair_counts(db), strict=True)) == brute_force_kept(
        [entries[label] for label in labels])


def test_zero_length_entries_are_refused():
    with pytest.raises(DatabaseError, match="no observations"):
        FingerprintDB({"a": make_fp([], label="a"), "b": make_fp([], label="b")})
    db = FingerprintDB({"a": make_fp(["200"], label="a")})
    for tokens in ([], ["200", "200"]):
        with pytest.raises(IncomparableError, match="vector lengths differ"):
            rank(make_fp(tokens, label="probe"), db)


# --- packed layout against position-by-position counts ------------------------

# CI sweeps more seeds through this variable
MATCH_ORACLE_SEEDS = int(os.environ.get("MATCH_ORACLE_SEEDS", "40"))
# seed % 5 picks the shape: one entry; every entry identical, so nothing is
# kept; every position kept; probe tokens no entry holds only at positions
# that are not kept; 255 or 256 distinct tokens, the last table of one byte
# per position and the first of two, with some positions not kept
SHAPES = ("one entry", "identical", "no constant", "unknown at constant", "width edge")


def shaped_vectors(chooser: random.Random, seed: int):
    """The random database of `seed`: its shape, token pool, probe-only
    tokens, length and token vectors, the first one the base."""
    shape = SHAPES[seed % len(SHAPES)]
    if shape == "width edge":
        pool = chooser.sample(ALL_TOKENS, 255 + seed // len(SHAPES) % 2)
        unknown = [t for t in ALL_TOKENS if t not in pool][:3]
        length = len(pool) + chooser.randint(1, 60)
        base = pool + [chooser.choice(pool) for _ in range(length - len(pool))]
        chooser.shuffle(base)  # the first entry holds every token of the pool
    else:
        pool, unknown = list(TOKEN_POOL), list(PROBE_ONLY)
        length = chooser.randint(2, 60)
        base = random_tokens(chooser, length)
    count = 1 if shape == "one entry" else chooser.randint(2, 6)
    if shape == "identical":
        varying = []
    elif shape == "no constant":
        varying = range(length)
    else:
        varying = chooser.sample(range(length), chooser.randint(1, length - 1))
    vectors = [base]
    for _ in range(count - 1):
        vector = list(base)
        for pos in varying:
            if chooser.random() < 0.6:
                vector[pos] = chooser.choice(pool)
        vectors.append(vector)
    if shape == "no constant":
        for pos in range(length):
            if all(vector[pos] == base[pos] for vector in vectors):
                vectors[1][pos] = next(t for t in pool if t != base[pos])
    return shape, pool, unknown, length, vectors


@pytest.mark.parametrize("seed", range(MATCH_ORACLE_SEEDS))
def test_packed_database_matches_brute_force(seed):
    chooser = random.Random(seed)
    shape, pool, unknown, length, vectors = shaped_vectors(chooser, seed)
    count = len(vectors)
    entries = {f"e{i}": make_fp(v, label=f"e{i}") for i, v in enumerate(vectors)}
    labels = sorted(entries)
    fps = [entries[label] for label in labels]

    varied = [i for i in range(length) if len({v[i] for v in vectors}) > 1]
    probe_tokens = list(chooser.choice(vectors))
    for pos in chooser.sample(range(length), chooser.randint(0, length // 3)):
        probe_tokens[pos] = chooser.choice(pool)
    constant = [i for i in range(length) if i not in varied]
    if shape in ("unknown at constant", "width edge"):  # both keep a constant position
        for pos in chooser.sample(constant, chooser.randint(1, min(3, len(constant)))):
            probe_tokens[pos] = chooser.choice(unknown)
    else:
        for pos in chooser.sample(range(length), chooser.randint(0, 2)):
            probe_tokens[pos] = chooser.choice(unknown)
    probe = make_fp(probe_tokens, label="probe")

    db = FingerprintDB(entries)
    assert db.kept == tuple(varied)
    if shape == "identical":
        assert db.kept == ()
    elif shape == "no constant":
        assert db.kept == tuple(range(length))
    elif shape == "unknown at constant":
        assert constant and [t for t in probe_tokens if t in unknown]
        assert all(probe_tokens[i] not in unknown for i in varied)
    elif shape == "width edge":
        assert len(set().union(*vectors)) == len(pool) and 0 < len(db.kept) < length

    expected = sorted((-brute_force_agreement(probe, e), label) for label, e in entries.items())
    for k in range(1, count + 1):
        assert [(m.label, m.agree, m.total) for m in rank(probe, db, k=k)] == [
            (label, -negated, length) for negated, label in expected[:k]
        ]
    if count == 1:
        with pytest.raises(DatabaseError):
            match_matrix(db)
        with pytest.raises(DatabaseError):
            discriminating_indexes(db)
        return
    assert match_matrix(db) == [[brute_force_percent(x, y) for y in fps] for x in fps]
    assert discriminating_indexes(db).kept == db.kept
    assert list(zip(db.kept, pair_counts(db), strict=True)) == brute_force_kept(fps)


@pytest.mark.parametrize("seed", range(MATCH_ORACLE_SEEDS))
def test_packed_database_loads_like_the_built_one(seed, tmp_path):
    chooser = random.Random(seed)
    _, _, unknown, length, vectors = shaped_vectors(chooser, seed)
    # odd entries have no #label and take their file stem; the dict is in
    # file order, the order in which both databases hand out token ids
    entries, paths = {}, {}
    for i, vector in enumerate(vectors):
        stem = f"f{i}"
        fp = replace(make_fp(vector, label=None if i % 2 else f"e{i}"),
                     observations=mixed_observations(chooser, vector))
        label = stem if fp.label is None else fp.label
        paths[label] = tmp_path / f"{stem}.fp"
        save_fingerprint(fp, paths[label])
        entries[label] = fp
    built, loaded = FingerprintDB(entries), FingerprintDB.load(tmp_path)

    assert loaded.labels == built.labels == tuple(sorted(entries))
    assert loaded.kept == built.kept
    assert loaded._packed == built._packed
    assert (loaded._constant, loaded._kept_mask) == (built._constant, built._kept_mask)
    assert list(loaded.columns()) == list(built.columns())
    assert (loaded.digest, loaded.fp_version) == (built.digest, built.fp_version) == (DIGEST_A, 2)
    for label, path in paths.items():
        for db in (built, loaded):
            entry = db[label]
            assert entry == load_fingerprint(path) == entries[label]
            assert entry.label == (None if label.startswith("f") else label)
            assert all(obs is BY_TOKEN[obs] for obs in entry.observations)
    probe_tokens = list(chooser.choice(vectors))
    probe_tokens[chooser.randrange(length)] = chooser.choice(unknown)
    probe = make_fp(probe_tokens, label="probe")
    assert rank(probe, loaded, k=len(vectors)) == rank(probe, built, k=len(vectors))


def test_database_refuses_a_string_that_is_no_token():
    good = make_fp(["200", "500"], label="a")
    bad = replace(good, observations=(ReplyObservation.from_token("200"), "20O"))
    with pytest.raises(DatabaseError, match="entry 'b' holds '20O', no observation token"):
        FingerprintDB({"a": good, "b": bad})
