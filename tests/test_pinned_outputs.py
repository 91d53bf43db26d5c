r"""Byte-exact outputs of `generate`, and of `match` and `optimize` on two
seeded databases.

The sha256 of the whole `.fc` file `generate` writes is pinned for the
default collection and for a small one whose lines hold `\\` and `\xhh`
escapes, so a change to generation or to the escape codec shows here.

Each match database holds 30 entries of 600 positions with a fixed `#created`.
The narrow one draws from 24 tokens, the wide one from all 503, so it holds
more than 256 distinct tokens.  Both rewrite random positions, so almost
every position varies somewhere in them; the clustered one draws from the
24 tokens but rewrites only 60% of the positions, so about half of its
positions hold the same token in every entry.  The sha256 of every output is pinned: a
change to how the matcher stores or counts its database must leave the
bytes of `match`, `match --json`, `match --matrix` and `optimize` (the
reduced `.fc` and the `--emit-indexes` CSV) as they are.  `optimize`
without `--emit-indexes` must write the same reduced `.fc` and stdout line.
"""

from __future__ import annotations

import hashlib
import random
from datetime import datetime, timezone

import pytest

from fingerfuzz.cli import main
from fingerfuzz.fuzzgen import FuzzConfig, build_collection, save_collection
from fingerfuzz.scanner import Fingerprint, save_fingerprint
from fingerfuzz.wire import ReplyObservation

from conftest import ALL_TOKENS

ENTRIES = 30
CREATED = datetime(2024, 1, 1, tzinfo=timezone.utc)
# 4 commands x 15 argument lengths x 2 instances x 5 forms = 600 records
CONFIG = FuzzConfig(commands=("NOOP", "SYST", "LIST", "RETR"), max_arg_len=14,
                    instances=2, mutations=4, seed=11)
NARROW = (
    "200", "202", "214", "215", "220", "221", "226", "250", "257", "331",
    "332", "421", "425", "500", "501", "502", "503", "504", "530", "550",
    "553", "DRP", "TMO", "GBL",
)

PINS = {
    "narrow": {
        "match-0": "15856ba4ae7ec38eae0251ab095c8a8603c17f5ee8cf3a444c96271e4acdfd14",
        "match-1": "a1d8f52af9d8dae00e868a12cc786d140c2df362e4a0f67ab63db3f72ca8e672",
        "match-2": "f13ec76df90080907c3adbf5ed7de8e733076dbaf5875bcdf2b8f7075b4c7e07",
        "json-0": "b1061425d31f3a5fe3a2ae4be41fdf134be75bdf01813d4d7b727c2beb231130",
        "json-1": "42fbf69977c27615c45e6086db7413fb329adb0ba3eb1deb10fda8d9ba3e0d96",
        "json-2": "a7c830ddf021a6bc680c03dd46c199891871eb0808cb041ee04a89c4f580108f",
        "matrix": "e2f57e777fcdab7d8cc7a3b2d1d546751ff171fd3f1c8e2ee68ba7740f72e5b7",
        "reduced-fc": "ffbc5b2af2237a80da52bcf970e6b71bb4446a458c009e0da5df2a0bbca5a57d",
        "indexes-csv": "ced906db4cbc68b126e632317d2d1404a70da23ca275b30645b5a2cfc58b9f9a",
    },
    "wide": {
        "match-0": "6a295de258fcb60dd743854d98fc74945bcbc5a4029853b57271ec3f09614e7c",
        "match-1": "aeb04ed876740a341626fcd99e021f4cc996747c2b6350429f4597ccbeef0cfc",
        "match-2": "76646fde7ce4698a3eedebc100924261f4ad6c841f5ee7f6c491897f3fe410c6",
        "json-0": "7e8f504878817302bd765b7b21539b8956066520b2143c460a81433018d15bfb",
        "json-1": "3ed47a0b90f00c2daef557c57b5a62c20e809cbd159a6518c93dee7a7e390b2a",
        "json-2": "b9aeecdb16d42e67950fd823feb6159c05fa1358f19debe47660d04e7643850a",
        "matrix": "bb53966df7525320a0d76c74e6fb8ec5ab6990ceb6e41868ccaed0dabf03d315",
        "reduced-fc": "957891d42033fa4d25f0dd5453b4c0d2652f5fef204cdf2a0a852d07bb73cc65",
        "indexes-csv": "c5cffa4e9924fe0a3c0dbb269ad872854008478cadd7a39913a6440f981eb02d",
    },
    "clustered": {
        "match-0": "c8209247b13823d3905dbea236008ea777ca88e06af378dabdbd1e4a3d06b1c4",
        "match-1": "5eeddc07ecc6677f681071bef22a6de7c6a8cdf88b5767a169426f58eb0be004",
        "match-2": "62da01d96438b22577200790958719df7edea9dc86c43fd05058f81917fc5cc1",
        "json-0": "f192fbecb43486f2419c9813290d96f2514cb9a33c471f704c3069c74b6d797f",
        "json-1": "779b6e183474358aebcf7e45bc0a6ba3d08d6f5cfe6570ac1c4d157146da3001",
        "json-2": "d93c7a06d23e25675e0619e0a217c0a445617dbb8f21cdcc1b4cd09cc0b67585",
        "matrix": "b8b11c16c7a0ea9679bf339028bbd141784bb367a7cbfe641402c37d84aafecf",
        "reduced-fc": "b10c8d1684a8c1d8fe2fc68dfa49311ac29a7331b2394e5ffdd5950bb29010fe",
        "indexes-csv": "c19e609badd3957916383688f3eb9fe0798c0c29ad9a1edef20ed94193f0e6f1",
    },
}


GENERATE_PINS = {
    (): "542424a5780bb6aeafb40f1e95868b26fd940068e77172f63454db07e1135ac9",
    ("--max-len", "3", "--instances", "2", "--mutations", "4", "--seed", "7"):
        "3f5662b335d8cc27974f4e09a6250263292a735b221d15b41fda0e6ae831394c",
}


@pytest.mark.parametrize("flags", GENERATE_PINS, ids=["default", "small"])
def test_generate_output_is_pinned(tmp_path, flags):
    out = tmp_path / "out.fc"
    assert main(["generate", *flags, "-o", str(out)]) == 0
    data = out.read_bytes()
    assert b"\\\\" in data and b"\\x" in data
    assert sha(data) == GENERATE_PINS[flags]


def fingerprint(digest: str, label: str, tokens) -> Fingerprint:
    return Fingerprint(
        collection_digest=digest,
        target=f"lab-{label}",
        observations=tuple(map(ReplyObservation.from_token, tokens)),
        label=label,
        created_at=CREATED,
        greeting=ReplyObservation.from_token("220"),
        login=(ReplyObservation.from_token("331"), ReplyObservation.from_token("230")),
    )


def write_inputs(tmp_path, pool, seed, varying=1.0):
    """A collection, a database of families that rewrite a shared base
    vector at a `varying` share of its positions, and three probes: each a
    member with positions changed anywhere, some to tokens no entry holds."""
    collection = build_collection(CONFIG)
    size = len(collection.records)
    fc = tmp_path / "full.fc"
    save_collection(collection, fc)
    chooser = random.Random(seed)
    base = [chooser.choice(pool) for _ in range(size)]
    positions = range(size)
    if varying < 1:
        positions = sorted(chooser.sample(positions, int(size * varying)))
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    vectors = []
    for family in range(ENTRIES // 5):
        current = list(base)
        for pos in chooser.sample(positions, len(positions) // 4):
            current[pos] = chooser.choice(pool)
        for version in range(5):
            for pos in chooser.sample(positions, chooser.randint(0, 12)):
                current[pos] = chooser.choice(pool)
            label = f"fam{family}-v{version}"
            save_fingerprint(fingerprint(collection.digest, label, current),
                             db_dir / f"{label}.fp")
            vectors.append(list(current))
    held = set().union(*vectors)
    absent = [token for token in ALL_TOKENS if token not in held]
    probes = []
    for n in range(3):
        noisy = list(chooser.choice(vectors))
        for pos in chooser.sample(range(size), 20):
            noisy[pos] = chooser.choice(pool)
        for pos in chooser.sample(range(size), n):
            noisy[pos] = absent[n]
        path = tmp_path / f"probe{n}.fp"
        save_fingerprint(fingerprint(collection.digest, f"probe{n}", noisy), path)
        probes.append(path)
    constant = sum(len(set(column)) == 1 for column in zip(*vectors))
    return fc, db_dir, probes, len(held), constant


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("ascii")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, pool, seed", [
    ("narrow", NARROW, 5), ("wide", ALL_TOKENS, 6), ("clustered", NARROW, 7)])
def test_outputs_are_pinned(tmp_path, capsys, name, pool, seed):
    varying = 0.6 if name == "clustered" else 1.0
    fc, db_dir, probes, distinct, constant = write_inputs(tmp_path, pool, seed, varying)
    assert (distinct > 256) == (name == "wide")
    assert (constant > 200) == (name == "clustered")  # 273 of 600 positions
    got = {}
    for n, probe in enumerate(probes):
        assert main(["match", "--db", str(db_dir), "--fingerprint", str(probe),
                     "--top", "8"]) == 0
        got[f"match-{n}"] = sha(capsys.readouterr().out)
        assert main(["match", "--db", str(db_dir), "--fingerprint", str(probe),
                     "--json", "--threshold", "80"]) == 0
        got[f"json-{n}"] = sha(capsys.readouterr().out)
    assert main(["match", "--db", str(db_dir), "--matrix"]) == 0
    got["matrix"] = sha(capsys.readouterr().out)
    reduced, csv_path = tmp_path / "reduced.fc", tmp_path / "kept.csv"
    assert main(["optimize", "--db", str(db_dir), "--collection", str(fc),
                 "-o", str(reduced), "--emit-indexes", str(csv_path)]) == 0
    got["reduced-fc"] = sha(reduced.read_bytes())
    got["indexes-csv"] = sha(csv_path.read_bytes())
    assert got == PINS[name]


def test_optimize_without_emit_indexes_writes_the_pinned_collection(tmp_path, capsys):
    # the differing pairs are counted only for --emit-indexes; the reduced
    # .fc and the stdout line must not depend on it
    fc, db_dir, _, _, _ = write_inputs(tmp_path, NARROW, 7, varying=0.6)
    reduced = tmp_path / "reduced.fc"
    lines, data = [], []
    for extra in (["--emit-indexes", str(tmp_path / "kept.csv")], []):
        assert main(["optimize", "--db", str(db_dir), "--collection", str(fc),
                     "-o", str(reduced), *extra]) == 0
        lines.append(capsys.readouterr().out)
        data.append(reduced.read_bytes())
        reduced.unlink()
    assert lines[0] == lines[1] and lines[0].startswith(f"wrote {reduced}: kept ")
    assert data[0] == data[1]
    assert sha(data[1]) == PINS["clustered"]["reduced-fc"]
