"""match-db: load, rank, matrix and optimize over a synthetic database.

The database holds N=200 `.fp` files, 20 families of 10 versions, for the
default collection.  Differences sit in blocks of ten positions (one
command at one argument length).  About half the blocks are identical
across the whole database; each family rewrites about 60% of the others;
each version adds one 10-20 position edit to its predecessor, so versions
of one family agree on roughly 96-99.8% of positions.

The generator writes the files itself and keeps every vector as one byte
per position, so the oracles below share no code with the program.
"""

from __future__ import annotations

import io
import os
import random
import time
from statistics import median

from common import Budget, SpeedClock, Tally

from fingerfuzz import fuzzgen, matcher, optimizer, scanner
from fingerfuzz.wire import ReplyObservation

FAMILIES = 20
VERSIONS = 10
BLOCK = 10
FAMILY_SHARE = 0.6
MATRIX_LABELS = 50
PROBES = 24
RANKS_PER_ROUND = 8
TOP_K = 5
CURVE_SIZES = (10, 100)  # rank size curve of the traced run; 200 comes from the rounds
CURVE_PROBES = 6

PALETTE = (
    "200", "202", "214", "215", "220", "221", "226", "250", "257", "331",
    "332", "421", "425", "500", "501", "502", "503", "504", "530", "550",
    "553", "DRP", "TMO", "GBL",
)


def _block_pattern(rng: random.Random) -> list[int]:
    main = rng.randrange(len(PALETTE))
    return [main if rng.random() < 0.7 else rng.randrange(len(PALETTE)) for _ in range(BLOCK)]


def _other(rng: random.Random, current: int) -> int:
    token = rng.randrange(len(PALETTE) - 1)
    return token if token < current else token + 1


def generate(seed: int, size: int) -> dict[str, bytes]:
    """label -> vector of palette indexes, one byte per position."""
    rng = random.Random(seed)
    blocks = size // BLOCK
    base: list[int] = []
    for _ in range(blocks):
        base.extend(_block_pattern(rng))
    base.extend(rng.randrange(len(PALETTE)) for _ in range(size - len(base)))
    variable = sorted(rng.sample(range(blocks), blocks // 2))
    vectors: dict[str, bytes] = {}
    for family in range(FAMILIES):
        current = list(base)
        for block in variable:
            if rng.random() < FAMILY_SHARE:
                current[block * BLOCK:(block + 1) * BLOCK] = _block_pattern(rng)
        for version in range(VERSIONS):
            if version:
                first = rng.choice(variable)
                span = [first * BLOCK + i for i in range(BLOCK)]
                nxt = first + 1
                if nxt in variable:
                    span += [nxt * BLOCK + i for i in range(BLOCK)]
                for pos in rng.sample(span, min(len(span), rng.randint(10, 20))):
                    current[pos] = _other(rng, current[pos])
            vectors[f"fam{family:02d}-v{version}"] = bytes(current)
    return vectors


def write_db(vectors: dict[str, bytes], digest: str, directory: str) -> None:
    """Write the `.fp` text format directly (fp-version 1)."""
    os.makedirs(directory, exist_ok=True)
    for label, vector in vectors.items():
        header = (
            f"#fp-version 1\n#collection {digest}\n#target lab-{label}\n#label {label}\n"
            "#created 2024-01-01T00:00:00Z\n#greeting 220\n#login 331,230\n"
        )
        body = "\n".join(PALETTE[t] for t in vector)
        with open(os.path.join(directory, f"{label}.fp"), "w", encoding="ascii") as fh:
            fh.write(header + body + "\n")


# -- oracles (plain Python, untimed) ---------------------------------------

def agree(a: bytes, b: bytes) -> int:
    """Equal positions of two vectors: zero bytes of their XOR."""
    x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return x.to_bytes(len(a), "big").count(0)


def oracle_rank(probe: bytes, vectors: dict[str, bytes], k: int) -> list[tuple[str, int]]:
    scored = sorted(((-agree(probe, v), label) for label, v in vectors.items()))
    return [(label, -neg) for neg, label in scored[:k]]


def oracle_percent(agreeing: int, total: int) -> float:
    """Percent with two decimals, halves rounded up."""
    return ((agreeing * 20000 + total) // (2 * total)) / 100


def oracle_matrix(labels: list[str], vectors: dict[str, bytes]) -> list[list[float]]:
    total = len(vectors[labels[0]])
    return [[oracle_percent(agree(vectors[a], vectors[b]), total) for b in labels] for a in labels]


def oracle_kept(vectors: dict[str, bytes]) -> list[int]:
    rows = list(vectors.values())
    return [i for i, column in enumerate(zip(*rows)) if len(set(column)) > 1]


def tokens_of(fp) -> bytes:
    index = {token: i for i, token in enumerate(PALETTE)}
    return bytes(index.get(obs.token(), 255) for obs in fp.observations)


def make_probe(rng: random.Random, label: str, vector: bytes, digest: str):
    """A database member with 3-12 positions changed; returns (vector, Fingerprint)."""
    noisy = bytearray(vector)
    for pos in rng.sample(range(len(noisy)), rng.randint(3, 12)):
        noisy[pos] = _other(rng, noisy[pos])
    fp = scanner.Fingerprint(
        collection_digest=digest,
        target="probe",
        observations=tuple(ReplyObservation.from_token(PALETTE[t]) for t in noisy),
        label=f"probe-of-{label}",
        greeting=ReplyObservation.from_token("220"),
        login=(ReplyObservation.from_token("331"), ReplyObservation.from_token("230")),
    )
    return bytes(noisy), fp


class MatchWorkload:
    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.db_dir = os.path.join(work, "db")
        self.tally = Tally()
        self.clock = SpeedClock()
        self.load_times: list[float] = []
        self.rank_times: list[float] = []
        self.matrix_times: list[float] = []
        self.optimize_times: list[float] = []
        self.kept_share = 0.0
        self._next_probe = 0

    def prepare(self) -> None:
        """Inputs and oracles; none of this is timed."""
        self.collection = fuzzgen.build_collection(fuzzgen.FuzzConfig(seed=self.seed))
        size = len(self.collection.records)
        self.vectors = generate(self.seed, size)
        write_db(self.vectors, self.collection.digest, self.db_dir)
        rng = random.Random(self.seed ^ 0x5EED)
        labels = sorted(self.vectors)
        self.probes = []
        for _ in range(PROBES):
            label = rng.choice(labels)
            vector, fp = make_probe(rng, label, self.vectors[label], self.collection.digest)
            self.probes.append((fp, oracle_rank(vector, self.vectors, TOP_K)))
        self.matrix_labels = labels[:MATRIX_LABELS]
        self.expected_matrix = oracle_matrix(self.matrix_labels, self.vectors)
        self.expected_kept = oracle_kept(self.vectors)
        self.kept_share = len(self.expected_kept) / size

    # -- timed operations, each followed by its untimed check ---------------

    def load(self, full_check: bool):
        db, seconds = self.clock.timed(matcher.FingerprintDB.load, self.db_dir)
        self.load_times.append(seconds)
        ok = tuple(db.labels) == tuple(sorted(self.vectors))
        if ok:
            checked = db.labels if full_check else random.Random(len(self.load_times)).sample(db.labels, 5)
            ok = all(tokens_of(db[label]) == self.vectors[label] for label in checked)
        self.tally.check(ok, "loaded database differs from the generated one")
        return db

    def rank_one(self, db) -> None:
        fp, expected = self.probes[self._next_probe % len(self.probes)]
        self._next_probe += 1
        results, seconds = self.clock.timed(matcher.rank, fp, db, TOP_K)
        self.rank_times.append(seconds)
        got = [(m.label, m.agree) for m in results]
        self.tally.check(
            got == expected and all(m.total == len(fp.observations) for m in results),
            "ranking differs from the oracle",
        )

    def matrix(self, db) -> None:
        sub = matcher.FingerprintDB({label: db[label] for label in self.matrix_labels})
        got, seconds = self.clock.timed(matcher.match_matrix, sub)
        self.matrix_times.append(seconds)
        self.tally.check(got == self.expected_matrix, "matrix differs from the oracle")

    def optimize(self, db) -> None:
        path = os.path.join(self.work, "reduced.fc")
        sel, seconds = self.clock.timed(self._optimize, db, path)
        self.optimize_times.append(seconds)
        with open(path, "rb") as fh:
            saved = fh.read().decode("ascii").splitlines()
        records = self.collection.records
        self.tally.check(
            list(sel.kept) == self.expected_kept
            and saved[-len(self.expected_kept):]
            == [fuzzgen.escape_line(records[i].bytes) for i in self.expected_kept],
            "optimize result differs from the oracle",
        )

    def _optimize(self, db, path):
        sel = optimizer.discriminating_indexes(db)
        reduced = optimizer.reduce_collection(self.collection, sel)
        fuzzgen.save_collection(reduced, path)
        return sel

    def round(self) -> float:
        """load, ranks, matrix, ranks, optimize: interleaved so CPU drift
        within a run spreads over every metric instead of one.  Returns the
        round's wall time."""
        start = time.perf_counter()
        db = self.load(full_check=not self.load_times)
        half = RANKS_PER_ROUND // 2
        for _ in range(half):
            self.rank_one(db)
        self.matrix(db)
        for _ in range(RANKS_PER_ROUND - half):
            self.rank_one(db)
        self.optimize(db)
        return time.perf_counter() - start

    def run(self, seconds: float) -> None:
        budget = Budget(seconds)
        while budget.more():
            budget.done_round(self.round())

    def layer_extras(self) -> None:
        """Calls made only in the traced run: the rank size curve, direct
        match_pair and write_fingerprint calls, and projection of every
        probe onto the kept positions."""
        db = matcher.FingerprintDB.load(self.db_dir)
        labels = db.labels
        for size in CURVE_SIZES:
            sub = matcher.FingerprintDB({label: db[label] for label in labels[:size]})
            for fp, _ in self.probes[:CURVE_PROBES]:
                matcher.rank(fp, sub, TOP_K)
        for a, b in zip(labels[:20], labels[1:21]):
            result = matcher.match_pair(db[a], db[b])
            self.tally.check(result.agree == agree(self.vectors[a], self.vectors[b]),
                             "match_pair differs from the oracle")
        for label in labels[:20]:
            scanner.write_fingerprint(db[label], io.BytesIO())
        sel = optimizer.discriminating_indexes(db)
        reduced = optimizer.reduce_collection(self.collection, sel)
        for fp, _ in self.probes:
            projected = optimizer.project_fingerprint(fp, sel, reduced.digest)
            self.tally.check(
                [obs.token() for obs in projected.observations]
                == [fp.observations[i].token() for i in self.expected_kept],
                "projection differs from the oracle",
            )

    def rounds_done(self) -> int:
        return len(self.optimize_times)

    def round_s(self, first: int = 0, last: int | None = None) -> float:
        """Work of one round after its load, from per-kind medians over
        rounds first..last: a slow moment inflates one sample of one kind,
        not a whole round."""
        last = self.rounds_done() if last is None else last
        ranks = self.rank_times[first * RANKS_PER_ROUND:last * RANKS_PER_ROUND]
        return (
            RANKS_PER_ROUND * median(ranks)
            + median(self.matrix_times[first:last])
            + median(self.optimize_times[first:last])
        )

    def end_to_end(self) -> dict:
        return {
            "setup_s": median(self.load_times),
            "rate_per_s": len(self.rank_times) / sum(self.rank_times),
            "op_samples": [s * 1000 for s in self.rank_times],
            "round_s": self.round_s(),
        }
