"""Command-line interface: generate, scan, match, optimize, lab.

Exit codes: 0 success, 1 operational error (network, bad data), 2 usage
error, 130 interrupted (Ctrl-C).  Output files are written atomically
(temp file plus rename).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import fuzzgen, labserver, matcher, optimizer, scanner, wire
from .errors import ConfigError, FingerfuzzError, IncomparableError, ParseError
from .fileio import atomic_write, decode_ascii

SEED_ENV_VAR = "FINGERFUZZ_SEED"


class UsageError(Exception):
    pass


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_int(text: str) -> int:
    value = _nonnegative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _port(text: str) -> int:
    value = _nonnegative_int(text)
    if value > 65535:
        raise argparse.ArgumentTypeError("must be in 0..65535")
    return value


def _percent(text: str) -> float:
    """An argument type: a number from 0 to 100; NaN is refused too."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 <= value <= 100:  # NaN fails it too
        raise argparse.ArgumentTypeError("must be a percentage in 0..100")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fingerfuzz",
        description="Identify FTP services by their replies to fuzz-generated requests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a deterministic request collection")
    gen.add_argument("--commands", default="default",
                     help="'default' or a file with one command mnemonic per line")
    gen.add_argument("--max-len", type=_nonnegative_int,
                     default=fuzzgen.DEFAULT_MAX_ARG_LEN,
                     help="largest argument length to generate")
    gen.add_argument("--instances", type=_positive_int,
                     default=fuzzgen.DEFAULT_INSTANCES,
                     help="base requests per command and length")
    gen.add_argument("--mutations", type=_nonnegative_int,
                     default=fuzzgen.DEFAULT_MUTATIONS,
                     help="cumulative mutation steps per base request")
    gen.add_argument("--seed", type=_nonnegative_int, default=None,
                     help=f"generator seed (default: ${SEED_ENV_VAR} or "
                          f"{fuzzgen.DEFAULT_SEED})")
    gen.add_argument("-o", "--output", required=True, help="collection file to write")
    gen.set_defaults(func=cmd_generate)

    scan = sub.add_parser("scan", help="fingerprint a target with a collection")
    scan.add_argument("--collection", required=True)
    scan.add_argument("--host")
    scan.add_argument("--port", type=_positive_int, default=wire.DEFAULT_PORT)
    scan.add_argument("--user", default=wire.ANONYMOUS_USER)
    scan.add_argument("--pass", dest="password", default=wire.ANONYMOUS_PASSWORD)
    scan.add_argument("--label", default=None, help="name stored in the fingerprint")
    scan.add_argument("--delay", type=float, default=wire.TargetSpec.delay,
                      help="seconds each session waits between requests")
    scan.add_argument("--sessions", type=_positive_int, default=wire.DEFAULT_SESSIONS,
                      help="command blocks scanned at the same time, each on its "
                           f"own connection (1..{wire.MAX_SESSIONS}); fewer are used "
                           "while the server refuses more connections")
    scan.add_argument("--timeout", type=float, default=wire.TargetSpec.reply_timeout,
                      help="seconds to wait for each reply")
    scan.add_argument("--drain-window", type=float,
                      default=wire.TargetSpec.drain_window,
                      help="seconds to discard trailing bytes after each reply")
    scan.add_argument("--targets", default=None,
                      help="file with one host[:port] per line; scans run "
                           "concurrently and -o names a directory")
    scan.add_argument("-o", "--output", required=True)
    scan.set_defaults(func=cmd_scan)

    match = sub.add_parser("match", help="rank a fingerprint against a database")
    match.add_argument("--db", required=True, help="directory of .fp files")
    match.add_argument("--fingerprint", help="probe .fp file")
    match.add_argument("--top", type=_positive_int, default=5)
    match.add_argument("--json", action="store_true", help="machine-readable output")
    match.add_argument("--matrix", action="store_true",
                       help="print the all-pairs percent matrix of the db as CSV")
    match.add_argument("--threshold", type=_percent, default=None,
                       help="advisory percent bound (0..100); results at or above "
                            "are flagged")
    match.set_defaults(func=cmd_match)

    opt = sub.add_parser("optimize",
                         help="keep only the requests that discriminate the db")
    opt.add_argument("--db", required=True)
    opt.add_argument("--collection", required=True)
    opt.add_argument("--emit-indexes", default=None,
                     help="also write the kept indexes as CSV, each with the "
                          "number of db pairs that differ there")
    opt.add_argument("-o", "--output", required=True)
    opt.set_defaults(func=cmd_optimize)

    lab = sub.add_parser("lab", help="run a scripted responder until interrupted")
    lab.add_argument("--script", required=True)
    lab.add_argument("--port", type=_port, default=0,
                     help="0 binds an ephemeral port and prints it")
    lab.set_defaults(func=cmd_lab)

    return parser


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is None:
        return fuzzgen.DEFAULT_SEED
    try:
        return int(env)  # FuzzConfig checks its range
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _list_file(source: str, kind: str) -> list[str]:
    """The stripped lines of an ASCII list file, without blanks and comments."""
    path = Path(source)
    if not path.is_file():
        raise UsageError(f"{kind} file not found: {source}")
    try:
        text = decode_ascii(path.read_bytes(), f"{kind} file {source}")
    except ParseError as exc:
        raise UsageError(str(exc)) from None
    lines = (line.strip() for line in text.splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def _load_commands(source: str) -> tuple[str, ...]:
    if source == "default":
        return fuzzgen.DEFAULT_COMMANDS
    return tuple(_list_file(source, "command"))


def cmd_generate(args) -> int:
    try:
        config = fuzzgen.FuzzConfig(
            commands=_load_commands(args.commands),
            max_arg_len=args.max_len,
            instances=args.instances,
            mutations=args.mutations,
            seed=_resolve_seed(args.seed),
        )
    except ConfigError as exc:
        raise UsageError(str(exc)) from None
    collection = fuzzgen.build_collection(config)
    fuzzgen.save_collection(collection, args.output)
    print(f"wrote {args.output}: {len(collection.records)} requests, "
          f"digest {collection.digest}")
    return 0


def _histogram(observations) -> str:
    counts = Counter(observations)
    parts = [f"{token}x{count}" for token, count in sorted(counts.items())]
    return " ".join(parts)


def _target(args, host: str, port: int) -> wire.TargetSpec:
    try:
        return wire.TargetSpec(
            host=host,
            port=port,
            username=args.user,
            password=args.password,
            reply_timeout=args.timeout,
            drain_window=args.drain_window,
            sessions=args.sessions,
            delay=args.delay,
        )
    except ValueError as exc:
        raise UsageError(f"target {wire.host_port(host, port)}: {exc}") from None


def _scan_one(collection, args, target: wire.TargetSpec, output: str,
              stop: threading.Event | None = None) -> int:
    fp = scanner.fingerprint_target(collection, target, label=args.label, stop=stop)
    scanner.save_fingerprint(fp, output)
    print(f"wrote {output}: {len(fp.observations)} observations "
          f"[{_histogram(fp.observations)}]")
    return 0


def _check_output_file(path: str) -> None:
    """Refuse an output file that could not be written when the scan ends."""
    output = Path(path)
    if output.is_dir():
        raise UsageError(f"-o {path} is a directory")
    if not output.parent.is_dir():
        raise UsageError(f"-o {path}: {output.parent} is not a directory")


def _check_output_dir(path: str) -> None:
    """Refuse an output directory that could not be made when the scans end."""
    output = Path(path)
    existing = next(p for p in (output, *output.parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"-o {path} is not a directory" if existing == output
                         else f"-o {path}: {existing} is not a directory")


def _parse_host_port(text: str, default_port: int) -> tuple[str, int]:
    """`host`, `host:port`, `[address]` or `[address]:port`; an address with
    more than one colon and no brackets is an IPv6 host on the default port."""
    host, port_text = text, None
    if text.startswith("["):
        host, bracket, rest = text[1:].partition("]")
        if not bracket or rest[:1] not in ("", ":"):
            raise UsageError(f"bad target {text!r}")
        port_text = rest[1:] if rest else None
    elif text.count(":") == 1:
        host, _, port_text = text.partition(":")
    if port_text is None:
        return host, default_port
    try:
        return host, int(port_text)
    except ValueError:
        raise UsageError(f"bad target {text!r}") from None


def cmd_scan(args) -> int:
    if args.label is not None:
        if args.targets is not None:
            raise UsageError("--label cannot be combined with --targets: every "
                             "fingerprint would carry the same label")
        try:
            scanner.check_label(args.label)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if args.targets is None:
        if args.host is None:
            raise UsageError("--host is required unless --targets is given")
        target = _target(args, args.host, args.port)
        _check_output_file(args.output)
        return _scan_one(fuzzgen.load_collection(args.collection), args, target,
                         args.output)

    targets = [_target(args, *_parse_host_port(line, args.port))
               for line in _list_file(args.targets, "targets")]
    if not targets:
        raise UsageError("targets file lists no hosts")
    counts = Counter(target.descriptor for target in targets)  # host and port
    if twice := [name for name, n in counts.items() if n > 1]:
        raise UsageError(f"targets file lists {', '.join(twice)} more than once")
    _check_output_dir(args.output)
    collection = fuzzgen.load_collection(args.collection)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    # Ctrl-C reaches only this thread, which then sets `stop`: a running
    # scan ends before its next request and writes nothing, and no other starts
    stop = threading.Event()

    def worker(target: wire.TargetSpec) -> str | None:
        if stop.is_set():
            return None
        output = out_dir / f"{target.host.replace(':', '_')}_{target.port}.fp"
        try:
            _scan_one(collection, args, target, str(output), stop)
        except FingerfuzzError as exc:
            return f"{target.descriptor}: {exc}"
        return None

    with ThreadPoolExecutor(max_workers=min(8, len(targets))) as pool:
        try:
            failures = [failure for failure in pool.map(worker, targets) if failure]
        finally:
            stop.set()
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def cmd_match(args) -> int:
    if args.matrix:
        sys.stdout.write(matcher.matrix_csv(matcher.FingerprintDB.load(args.db)))
        return 0
    if args.fingerprint is None:
        raise UsageError("--fingerprint is required unless --matrix is given")
    probe = scanner.load_fingerprint(args.fingerprint)
    db = matcher.FingerprintDB.load(args.db)
    if probe.fp_version != db.fp_version:
        raise IncomparableError(
            f"probe is fp-version {probe.fp_version} and the database "
            f"fp-version {db.fp_version}; rescan the older side")
    results = matcher.rank(probe, db, k=args.top)
    if args.json:
        payload = [
            {
                "rank": i,
                "label": m.label,
                "agree": m.agree,
                "total": m.total,
                "ratio": f"{m.ratio.numerator}/{m.ratio.denominator}",
                "percent": m.percent,
                "meets_threshold": (
                    None if args.threshold is None else m.percent >= args.threshold
                ),
            }
            for i, m in enumerate(results, start=1)
        ]
        print(json.dumps(payload, indent=2))
        return 0
    for i, m in enumerate(results, start=1):
        line = f"{i}. {m.label}  {m.percent:.2f}%  ({m.agree}/{m.total})"
        if args.threshold is not None and m.percent >= args.threshold:
            line += "  [meets threshold]"
        print(line)
    return 0


def cmd_optimize(args) -> int:
    db = matcher.FingerprintDB.load(args.db)
    collection = fuzzgen.load_collection(args.collection)
    selection = optimizer.discriminating_indexes(db)
    reduced = optimizer.reduce_collection(collection, selection)
    fuzzgen.save_collection(reduced, args.output)
    if args.emit_indexes:
        atomic_write(args.emit_indexes, optimizer.selection_csv(db).encode("ascii"))
    total = len(collection.records)
    kept = len(selection.kept)
    print(f"wrote {args.output}: kept {kept} of {total} requests "
          f"({100 * kept / total:.1f}%), digest {reduced.digest}")
    return 0


def cmd_lab(args) -> int:
    try:
        script = labserver.load_script_file(args.script)
    except (FingerfuzzError, OSError) as exc:
        print(f"script error: {exc}", file=sys.stderr)
        return 2
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(message)s")
    # a SIGTERM stops the server like Ctrl-C, so the counts below are printed
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    server = labserver.LabServer(script, port=args.port).start()
    print(f"serving '{script.name}' on port {server.port}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print(f"{server.connections} connections; requests by action:", file=sys.stderr)
    for action, count in sorted(server.actions.items()):
        print(f"  {action}: {count}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FingerfuzzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
