"""fingerfuzz benchmark: scan-clean, scan-faulty and match-db.

Run from the repository root:

    python3 perfbench/run.py --workload scan-clean --seed 1 --seconds 40 --trace 0

`--trace 0` measures the end-to-end metrics with the program untouched.
`--trace 1` spends half the run untraced and half with span recorders
around each layer's public calls, and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Exit code 0
means a result was printed; any other code means none was.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACES = os.path.join(ROOT, ".perfbench_traces")
WORKLOADS = ("scan-clean", "scan-faulty", "match-db")


def declared_metrics(kind: str) -> dict[str, str]:
    """name -> unit of the `end_to_end` or `per_layer` list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="fingerfuzz benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, work, modules):
    """Returns (tally, metrics) for one run."""
    import layers
    import tracing
    from common import peak_rss_mb, tail

    if args.workload == "match-db":
        from matchdb import MatchWorkload

        workload = MatchWorkload(args.seed, work)
        workload.prepare()
    else:
        from scans import ScanWorkload

        workload = ScanWorkload(args.workload, args.seed, work, SRC)
        workload.setup()

    if not args.trace:
        workload.run(args.seconds)
        e2e = workload.end_to_end()
        tail_ms, tail_pct = tail(e2e["op_samples"])
        print(f"op_tail_ms is p{tail_pct} of {len(e2e['op_samples'])} samples", file=sys.stderr)
        values = {
            "setup_s": e2e["setup_s"],
            "rate_per_s": e2e["rate_per_s"],
            "op_p50_ms": statistics.median(e2e["op_samples"]),
            "op_tail_ms": tail_ms,
            "round_s": e2e["round_s"],
            "peak_rss_mb": peak_rss_mb(),
            "ok_share": 1 - workload.tally.failed / workload.tally.attempted,
        }
        return workload.tally, {name: {"value": values[name], "unit": unit}
                                for name, unit in declared_metrics("end_to_end").items()}

    workload.run(args.seconds / 2)
    split = workload.rounds_done()
    with tracing.Tracer() as tracer:
        tracer.install(modules)
        if args.workload == "match-db":
            workload.run(args.seconds / 2)
            workload.layer_extras()
        else:
            workload.setup(repeats=3)
            workload.run(args.seconds / 2)
    values = layers.codec_and_lab(tracer)
    values.update(layers.scan_side(tracer))
    values["reference_kernel_ms"] = statistics.median(workload.clock.kernel_s) * 1000
    values["trace_overhead_share"] = workload.round_s(split) / workload.round_s(0, split) - 1
    if args.workload == "match-db":
        values["matrix_s"] = statistics.median(workload.matrix_times[:split])
        values["optimize_s"] = statistics.median(workload.optimize_times[:split])
        values["optimizer.kept_share"] = workload.kept_share
        values["scanner.client_cpu_s"] = values["labserver.target_cpu_s"] = 0.0
    else:
        values["matrix_s"] = values["optimize_s"] = values["optimizer.kept_share"] = 0.0
        values["scanner.client_cpu_s"] = statistics.median(workload.client_cpu[:split])
        values["labserver.target_cpu_s"] = statistics.median(workload.target_cpu[:split])
    os.makedirs(TRACES, exist_ok=True)
    tracer.write(os.path.join(TRACES, f"{args.workload}-seed{args.seed}.json"))
    if tracer.absent:
        print("absent hooks: " + ", ".join(sorted(tracer.absent)), file=sys.stderr)
    return workload.tally, layers.finish(tracer, values, declared_metrics("per_layer"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fingerfuzz", "__init__.py")):
        print(f"error: no fingerfuzz source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from fingerfuzz import fuzzgen, matcher, optimizer, scanner, wire

    modules = {"fuzzgen": fuzzgen, "wire": wire, "scanner": scanner,
               "matcher": matcher, "optimizer": optimizer}
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        tally, metrics = measure(args, work, modules)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in tally.notes:
        print(f"check failed: {note}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
