"""The benchmark's correctness checks must be able to fail.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import layers  # noqa: E402
import matchdb  # noqa: E402
import scans  # noqa: E402
import tracing  # noqa: E402
from common import Tally, tail  # noqa: E402
from fingerfuzz import fuzzgen, labserver, matcher  # noqa: E402
from fingerfuzz.scanner import Fingerprint  # noqa: E402
from fingerfuzz.wire import ReplyObservation  # noqa: E402


def _fingerprint(collection, tokens):
    def obs(token):
        return ReplyObservation.from_token(token)

    return Fingerprint(collection.digest, "lab", tuple(obs(t) for t in tokens),
                       greeting=obs("220"), login=(obs("331"), obs("230")))


@pytest.fixture(scope="module")
def faulty_case():
    script = labserver.load_script_file(os.path.join(HERE, "scripts", "faulty.lab"))
    collection = fuzzgen.build_collection(fuzzgen.FuzzConfig(seed=5))
    return script, collection, scans.expected_tokens(script, collection)


def test_scan_oracle_accepts_the_expected_vector(faulty_case):
    script, collection, expected = faulty_case
    assert {"DRP", "TMO"} <= set(expected)
    tally = Tally()
    scans.check_scan(_fingerprint(collection, expected), script, expected, tally)
    assert tally.failed == 0 and tally.attempted == len(expected) + 2


def test_fingerprint_shifted_by_one_position_fails(faulty_case):
    script, collection, expected = faulty_case
    tally = Tally()
    scans.check_scan(_fingerprint(collection, expected[1:] + expected[:1]), script, expected, tally)
    assert tally.failed > 0


def test_scan_that_raised_fails_every_position(faulty_case):
    script, _, expected = faulty_case
    tally = Tally()
    scans.check_scan(None, script, expected, tally)
    assert tally.failed == tally.attempted > len(expected)


@pytest.fixture(scope="module")
def match_workload(tmp_path_factory):
    workload = matchdb.MatchWorkload(seed=5, work=str(tmp_path_factory.mktemp("matchdb")))
    workload.prepare()
    return workload, workload.load(full_check=True)


def test_ranking_matches_oracle(match_workload):
    workload, db = match_workload
    before = workload.tally.failed
    workload.rank_one(db)
    assert workload.tally.failed == before == 0


def test_corrupted_ranking_fails(match_workload, monkeypatch):
    workload, db = match_workload
    real_rank = matcher.rank

    def swapped(probe, database, k=5):
        results = real_rank(probe, database, k)
        return [results[1], results[0], *results[2:]]

    monkeypatch.setattr(matcher, "rank", swapped)
    before = workload.tally.failed
    workload.rank_one(db)
    assert workload.tally.failed == before + 1


def test_synthetic_database_shape():
    vectors = matchdb.generate(seed=5, size=4590)
    assert len(vectors) == 200
    kept = matchdb.oracle_kept(vectors)
    assert 0.4 < len(kept) / 4590 < 0.6
    family = [vectors[f"fam07-v{v}"] for v in range(10)]
    shares = [matchdb.agree(a, b) / 4590 for i, a in enumerate(family) for b in family[i + 1:]]
    assert 0.96 <= min(shares) and max(shares) <= 0.998 + 1e-9


def test_oracle_percent_rounds_halves_up():
    assert matchdb.oracle_percent(1, 8) == 12.5
    assert matchdb.oracle_percent(1, 3) == 33.33
    assert matchdb.oracle_percent(2, 3) == 66.67
    assert matchdb.oracle_percent(1, 40000) == 0.0
    assert matchdb.oracle_percent(1, 20000) == 0.01


def test_tail_has_ten_samples_beyond_it():
    assert tail(list(range(100))) == (89, 90)
    assert tail([3.0, 1.0]) == (3.0, 100)


def test_spans_belong_to_the_scan_on_their_parent_chain():
    tracer = tracing.Tracer()
    scan = tracer.wrap("scanner.fingerprint_target", lambda step: step(), None)
    exchange = tracer.wrap("wire.exchange", lambda: None, None)
    exchange()
    scan(exchange)
    assert tracer.enclosing("scanner.fingerprint_target") == [-1, 1, 1]


def test_missing_hook_is_reported_absent_not_zero():
    tracer = tracing.Tracer()
    tracer.absent.add("wire.drain")
    out = layers.finish(tracer, {"wire.drain_ms": 0.0, "wire.connect_ms": 0.0},
                        {"wire.drain_ms": "ms", "wire.connect_ms": "ms", "trace.absent_hooks": "count"})
    assert out["wire.drain_ms"]["value"] == layers.ABSENT
    assert out["wire.connect_ms"]["value"] == 0.0
    assert out["trace.absent_hooks"] == {"value": 1, "unit": "count"}
