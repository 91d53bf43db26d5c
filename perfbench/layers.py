"""Per-layer metrics derived from the spans of a traced run.

Counts are per scan.  Timings are medians over every span of that name
unless the name says otherwise.  A layer the workload never calls reports
0 with a zero count; a metric whose hook no longer exists reports ABSENT.
"""

from __future__ import annotations

import statistics

ABSENT = -1.0

# metric -> the hooks it is derived from; metrics not listed need none
HOOKS_OF = {
    "fuzzgen.build_collection_ms": ("fuzzgen.build_collection",),
    "fuzzgen.write_collection_ms": ("fuzzgen.write_collection",),
    "fuzzgen.read_collection_ms": ("fuzzgen.read_collection",),
    "wire.exchange.count": ("wire.exchange",),
    "wire.exchange_p50_ms": ("wire.exchange",),
    "wire.exchange_p99_ms": ("wire.exchange",),
    "wire.decide_ms": ("wire.exchange", "wire.drain"),
    "wire.drain_ms": ("wire.drain",),
    "wire.drain.count": ("wire.drain",),
    "wire.connect.count": ("wire.connect",),
    "wire.connect_ms": ("wire.connect",),
    "wire.login_ms": ("wire.login",),
    "scanner.reconnect.count": ("wire.connect",),
    "wire.timeout.count": ("wire.exchange",),
    "wire.drop.count": ("wire.exchange",),
    "wire.garbled.count": ("wire.exchange",),
    "wire.timeout_wait_s": ("wire.exchange",),
    "scanner.self_s": ("wire.connect", "wire.login", "wire.exchange"),
    "scanner.read_fingerprint_ms": ("scanner.read_fingerprint",),
    "scanner.write_fingerprint_ms": ("scanner.write_fingerprint",),
    "matcher.load_ms": ("matcher.load",),
    "matcher.match_pair_us": ("matcher.match_pair",),
    "matcher.rank_ms.n10": ("matcher.rank",),
    "matcher.rank_ms.n100": ("matcher.rank",),
    "matcher.rank_ms.n200": ("matcher.rank",),
    "matcher.match_matrix_ms": ("matcher.match_matrix",),
    "optimizer.discriminating_indexes_ms": ("optimizer.discriminating_indexes",),
    "optimizer.reduce_collection_ms": ("optimizer.reduce_collection",),
    "optimizer.project_fingerprint_ms": ("optimizer.project_fingerprint",),
}

# every scan-side metric needs the scan span as its root
_SCAN_ROOTED = {
    name for name in HOOKS_OF
    if name.startswith("wire.") or name in ("scanner.reconnect.count", "scanner.self_s")
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ms(tracer, name) -> float:
    return _median([d * 1000 for d in tracer.durations_s(name)])


def codec_and_lab(tracer) -> dict:
    """Layers every workload may call: generation, codecs, matcher, optimizer."""
    rank_by_size: dict[int, list[float]] = {}
    for i in tracer.indexes("matcher.rank"):
        rank_by_size.setdefault(tracer.tags[i], []).append(tracer.duration_s(i) * 1000)
    return {
        "fuzzgen.build_collection_ms": _ms(tracer, "fuzzgen.build_collection"),
        "fuzzgen.write_collection_ms": _ms(tracer, "fuzzgen.write_collection"),
        "fuzzgen.read_collection_ms": _ms(tracer, "fuzzgen.read_collection"),
        "scanner.read_fingerprint_ms": _ms(tracer, "scanner.read_fingerprint"),
        "scanner.write_fingerprint_ms": _ms(tracer, "scanner.write_fingerprint"),
        "matcher.load_ms": _ms(tracer, "matcher.load"),
        "matcher.match_pair_us": _ms(tracer, "matcher.match_pair") * 1000,
        "matcher.rank_ms.n10": _median(rank_by_size.get(10, [])),
        "matcher.rank_ms.n100": _median(rank_by_size.get(100, [])),
        "matcher.rank_ms.n200": _median(rank_by_size.get(200, [])),
        "matcher.match_matrix_ms": _ms(tracer, "matcher.match_matrix"),
        "optimizer.discriminating_indexes_ms": _ms(tracer, "optimizer.discriminating_indexes"),
        "optimizer.reduce_collection_ms": _ms(tracer, "optimizer.reduce_collection"),
        "optimizer.project_fingerprint_ms": _ms(tracer, "optimizer.project_fingerprint"),
    }


def scan_side(tracer) -> dict:
    """Wire and scanner layers, counted per traced scan."""
    roots = tracer.indexes("scanner.fingerprint_target")
    scans = len(roots) or 1
    kids = tracer.children()
    scan_of = tracer.enclosing("scanner.fingerprint_target")

    def inside(name):
        return [i for i in tracer.indexes(name) if scan_of[i] >= 0]

    exchanges = inside("wire.exchange")
    drains = inside("wire.drain")
    connects = inside("wire.connect")
    ex_ms = [tracer.duration_s(i) * 1000 for i in exchanges]
    tokens = [tracer.tags[i] for i in exchanges]
    return {
        "wire.exchange.count": len(exchanges) / scans,
        "wire.exchange_p50_ms": _median(ex_ms),
        "wire.exchange_p99_ms": statistics.quantiles(ex_ms, n=100)[98] if len(ex_ms) > 1 else 0.0,
        "wire.decide_ms": _median([tracer.self_s(i, kids) * 1000 for i in exchanges]),
        "wire.drain_ms": _median([tracer.duration_s(i) * 1000 for i in drains]),
        "wire.drain.count": len(drains) / scans,
        "wire.connect.count": len(connects) / scans,
        "wire.connect_ms": _median([tracer.duration_s(i) * 1000 for i in connects]),
        "wire.login_ms": _median([tracer.duration_s(i) * 1000 for i in inside("wire.login")]),
        "scanner.reconnect.count": max(0, len(connects) - len(roots)) / scans,
        "wire.timeout.count": tokens.count("TMO") / scans,
        "wire.drop.count": tokens.count("DRP") / scans,
        "wire.garbled.count": tokens.count("GBL") / scans,
        "wire.timeout_wait_s": sum(
            tracer.duration_s(i) for i, token in zip(exchanges, tokens) if token == "TMO"
        ) / scans,
        "scanner.self_s": _median([tracer.self_s(r, kids) for r in roots]),
    }


def finish(tracer, values: dict, units: dict[str, str]) -> dict:
    """Attach the units (metric name -> unit) and mark the metrics of
    missing hooks ABSENT."""
    values = dict(values)
    values["trace.absent_hooks"] = len(tracer.absent)
    out = {}
    for name, unit in units.items():
        needs = set(HOOKS_OF.get(name, ()))
        if name in _SCAN_ROOTED:
            needs.add("scanner.fingerprint_target")
        value = ABSENT if needs & tracer.absent else values[name]
        out[name] = {"value": value, "unit": unit}
    return out
