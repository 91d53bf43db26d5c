"""Acceptance suite: one test per release criterion, stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines.  Every check either holds exactly (zero violations) or at
the tolerance written next to it; nothing here is calibrated after the fact.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from fingerfuzz.cli import main
from fingerfuzz.fuzzgen import (
    FuzzConfig,
    build_collection,
    escape_line,
    mutate,
    unescape_line,
)
from fingerfuzz.labserver import Rule, ServerScript
from fingerfuzz.matcher import FingerprintDB, match_pair, rank
from fingerfuzz.optimizer import (
    discriminating_indexes,
    project_fingerprint,
    reduce_collection,
)
from fingerfuzz.rng import SplitMix64
from fingerfuzz.scanner import Fingerprint, fingerprint_target
from fingerfuzz.wire import (
    BY_TOKEN,
    DRP,
    TMO,
    ReplyAccumulator,
    ReplyObservation,
    TargetSpec,
)

from conftest import layout


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL  {summary}")
        raise
    print(f"[criterion {number:02d}] PASS  {summary}")


def lab_target(port: int, reply_timeout: float = 1.0,
               drain_window: float = 0.002) -> TargetSpec:
    return TargetSpec("127.0.0.1", port, reply_timeout=reply_timeout,
                      drain_window=drain_window, connect_timeout=2.0)


def count_agreements(a: Fingerprint, b: Fingerprint) -> int:
    """Independent brute-force position counter (kept separate from matcher)."""
    assert len(a.observations) == len(b.observations)
    agree = 0
    for i in range(len(a.observations)):
        if a.observations[i] == b.observations[i]:
            agree += 1
    return agree


def test_criterion_1_generation_determinism(tmp_path):
    with criterion(1, "default generation run twice is byte-identical"):
        first = tmp_path / "one.fc"
        second = tmp_path / "two.fc"
        assert main(["generate", "--seed", "1", "-o", str(first)]) == 0
        assert main(["generate", "--seed", "1", "-o", str(second)]) == 0
        digest_one = hashlib.sha256(first.read_bytes()).hexdigest()
        digest_two = hashlib.sha256(second.read_bytes()).hexdigest()
        assert digest_one == digest_two


def test_criterion_2_mutation_properties():
    with criterion(2, "mutation metric over 10,000 trials, zero violations"):
        rng = SplitMix64(2024)
        chooser = random.Random(2024)
        alphabet = tuple(sorted(set(range(256)) - {0x0D, 0x0A}))
        for _ in range(10_000):
            length = chooser.randint(0, 48)
            message = bytes(chooser.choice(alphabet) for _ in range(length))
            out = mutate(message, rng)
            delta = len(out) - len(message)
            assert delta in (-1, 0, 1)
            if delta == 0:
                differing = sum(1 for x, y in zip(out, message) if x != y)
                assert differing == 1
            assert 0x0D not in out and 0x0A not in out


def test_criterion_3_codec_round_trip():
    with criterion(3, "escape codec round-trip over 10,000 byte strings"):
        chooser = random.Random(31337)
        for _ in range(10_000):
            length = chooser.randint(0, 64)
            data = bytes(chooser.randint(0, 255) for _ in range(length))
            assert unescape_line(escape_line(data)) == data


def _random_pair_corpus():
    chooser = random.Random(404)
    tokens = ("200", "220", "500", "502", "550", "257", "TMO", "DRP", "GBL")
    pairs = []
    for i in range(1_000):
        length = chooser.randint(1, 120)
        digest = f"{i:064x}"

        def fp(label):
            return Fingerprint(
                collection_digest=digest,
                target="corpus:21",
                observations=tuple(
                    ReplyObservation.from_token(chooser.choice(tokens))
                    for _ in range(length)
                ),
                label=label,
                login=("230",),
            )

        pairs.append((fp("a"), fp("b")))
    return pairs


def test_criterion_4_matcher_oracle_equivalence():
    with criterion(4, "matcher equals brute-force counter on 1,000 pairs"):
        for a, b in _random_pair_corpus():
            expected_agree = count_agreements(a, b)
            result = match_pair(a, b)
            assert result.agree == expected_agree
            assert result.ratio == Fraction(expected_agree, len(a.observations))


def test_criterion_5_identity_and_symmetry():
    with criterion(5, "identity is 100.00 and ratio is symmetric on the corpus"):
        for a, b in _random_pair_corpus():
            assert match_pair(a, a).percent == 100.00
            assert match_pair(a, a).ratio == 1
            assert match_pair(a, b).ratio == match_pair(b, a).ratio


def test_criterion_6_lab_discrimination_formula(lab_factory):
    with criterion(6, "one-command script delta matches the exact count formula"):
        # Mutation-free collection: every request keeps its command token, so
        # a per-command rule delta affects exactly that command's records.
        config = FuzzConfig(mutations=0)  # 27 commands, L=16, n=2 -> 918
        collection = build_collection(config)
        total = len(collection.records)
        per_command = (config.max_arg_len + 1) * config.instances
        assert total == 918 and per_command == 34 == config.block_length

        changed = "SYST"
        for record in collection.records:
            token = record.bytes.split(b" ", 1)[0]
            assert (token == changed.encode()) == (
                config.commands[record.index // config.block_length] == changed)

        shared = (Rule("NOOP", "ANY", "REPLY:200:ok"),)
        script_a = ServerScript(
            name="product-a",
            rules=shared + (Rule(changed, "ANY", "REPLY:215:UNIX"),),
        )
        script_b = ServerScript(
            name="product-b",
            rules=shared + (Rule(changed, "ANY", "REPLY:500:err"),),
        )
        fp_a = fingerprint_target(collection, lab_target(lab_factory(script_a).port))
        fp_b = fingerprint_target(collection, lab_target(lab_factory(script_b).port))

        agree = count_agreements(fp_a, fp_b)
        assert agree == total - per_command
        result = match_pair(fp_a, fp_b)
        assert result.ratio == Fraction(total - per_command, total)
        assert result.ratio == Fraction(26, 27)
        assert result.percent == 96.30


def test_criterion_7_self_recognition(lab_factory):
    with criterion(7, "re-scan of a known server ranks itself first at 100.00"):
        collection = build_collection(
            FuzzConfig(commands=("NOOP", "SYST", "HELP"), max_arg_len=2,
                       instances=1, mutations=1, seed=21)
        )
        known = ServerScript(
            name="known",
            rules=(Rule("NOOP", "ANY", "REPLY:200:ok"),),
        )
        distractor = ServerScript(name="other", default_code=500)
        server = lab_factory(known)
        first = fingerprint_target(collection, lab_target(server.port), label="known")
        other = fingerprint_target(
            collection, lab_target(lab_factory(distractor).port), label="other"
        )
        db = FingerprintDB({"known": first, "other": other})
        second = fingerprint_target(collection, lab_target(server.port), label="probe")
        results = rank(second, db, k=5)
        assert results[0].label == "known"
        assert results[0].percent == 100.00
        assert results[0].ratio == 1


def test_criterion_8_version_delta_sensitivity(lab_factory):
    with criterion(8, "small rule delta stays in (95, 100) and is reproducible"):
        # 27 commands, L=1, n=1, m=1 -> 108 records; the CWD reply delta hits
        # only CWD-token records (2 bases plus any token-preserving mutants),
        # i.e. roughly 2% of the collection.
        collection = build_collection(
            FuzzConfig(max_arg_len=1, instances=1, mutations=1, seed=1)
        )
        versions = []
        for label, cwd_code in (("v1", 250), ("v2", 257)):
            versions.append(ServerScript(
                name=label,
                rules=(Rule("CWD", "ANY", f"REPLY:{cwd_code}:ok"),),
            ))
        server_a = lab_factory(versions[0])
        server_b = lab_factory(versions[1])
        percents = []
        for _ in range(3):
            fp_a = fingerprint_target(collection, lab_target(server_a.port))
            fp_b = fingerprint_target(collection, lab_target(server_b.port))
            percents.append(match_pair(fp_a, fp_b).percent)
        assert len(set(percents)) == 1
        assert 95.0 < percents[0] < 100.0


def test_criterion_9_optimizer_preservation(lab_factory):
    with criterion(9, "reduction keeps every distinguishable pair distinguishable"):
        collection = build_collection(
            FuzzConfig(commands=("NOOP", "SYST", "HELP", "CWD"), max_arg_len=1,
                       instances=1, mutations=1, seed=3)
        )
        scripts = [
            ServerScript(name="p1", rules=(
                Rule("NOOP", "ANY", "REPLY:200:a"),)),
            ServerScript(name="p2", rules=(
                Rule("NOOP", "ANY", "REPLY:250:b"),)),
            ServerScript(name="p3", rules=(
                Rule("NOOP", "ANY", "REPLY:200:a"),
                Rule("SYST", "ANY", "REPLY:215:c"),)),
            ServerScript(name="p4", default_code=500),
        ]
        servers = {s.name: lab_factory(s) for s in scripts}
        fps = {
            name: fingerprint_target(collection, lab_target(server.port), label=name)
            for name, server in servers.items()
        }
        db = FingerprintDB(fps)
        selection = discriminating_indexes(db)
        reduced = reduce_collection(collection, selection)
        projected = {
            name: project_fingerprint(fp, selection, reduced.digest)
            for name, fp in fps.items()
        }
        for a, b in combinations(sorted(fps), 2):
            if match_pair(fps[a], fps[b]).ratio < 1:
                assert match_pair(projected[a], projected[b]).ratio < 1
        discarded = set(range(len(collection.records))) - set(selection.kept)
        vectors = [fp.observations for fp in fps.values()]
        for index in discarded:
            assert len({v[index] for v in vectors}) == 1
        # the projection shortcut matches an actual re-scan
        rescan = fingerprint_target(reduced, lab_target(servers["p1"].port),
                                    label="p1")
        assert rescan.observations == projected["p1"].observations


def test_criterion_10_drop_timeout_alignment(lab_factory):
    with criterion(10, "DRP/TMO land at scripted positions, alignment preserved"):
        collection = build_collection(
            FuzzConfig(commands=("NOOP", "QUIT", "REIN", "SYST"), max_arg_len=1,
                       instances=1, mutations=0, seed=9)
        )
        script = ServerScript(
            name="moody",
            rules=(Rule("QUIT", "ANY", "DROP"),
                   Rule("REIN", "ANY", "SILENCE")),
            default_code=200,
        )
        server = lab_factory(script)
        fp = fingerprint_target(
            collection, lab_target(server.port, reply_timeout=0.25)
        )
        assert len(fp.observations) == len(collection.records)
        for record, obs in zip(collection.records, fp.observations):
            command = layout(collection.config, record.index)[0]
            if command == "QUIT":
                assert obs == DRP
            elif command == "REIN":
                assert obs == TMO
            else:
                assert obs == "200"
        # positions after the drops are populated with real codes
        assert fp.observations[-1] == "200"


def test_criterion_11_reply_parser_totality():
    with criterion(11, "parser yields a code or sentinel for 10,000 byte streams"):
        chooser = random.Random(1117)
        for trial in range(10_000):
            length = chooser.randint(0, 120)
            stream = bytes(chooser.randint(0, 255) for _ in range(length))
            acc = ReplyAccumulator()
            decision = None
            step = chooser.choice((1, 3, 7, 4096))
            for i in range(0, len(stream), step):
                decision = acc.feed(stream[i : i + step])
                if decision is not None:
                    break
            if decision is None:
                decision = (acc.finish_eof() if trial % 2 else acc.finish_timeout())
            assert decision is BY_TOKEN.get(decision)  # a shared, valid observation
