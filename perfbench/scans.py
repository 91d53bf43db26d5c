"""scan-clean and scan-faulty: the production scan against a lab target.

The target runs in its own process (`python -m fingerfuzz.cli lab`), one
fresh process per scan, with its log discarded.  The scanner runs here,
one connection at a time, so the load is two busy processes.  Every
position of every scan is checked against the script oracle.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from statistics import median

from common import Budget, SpeedClock, Tally, children_cpu_s

from fingerfuzz import fuzzgen, labserver, scanner
from fingerfuzz.errors import FingerfuzzError
from fingerfuzz.wire import TargetSpec

REPLY_TIMEOUT = 0.25
DRAIN_WINDOW = 0.002
SETUP_REPEATS = 5
SCRIPTS = {"scan-clean": "clean.lab", "scan-faulty": "faulty.lab"}
HERE = os.path.dirname(os.path.abspath(__file__))


def expected_tokens(script: labserver.ServerScript, collection) -> list[str]:
    """Script oracle: the token the scanner must record for each request."""
    tokens = []
    for record in collection.records:
        action, payload = labserver.apply_rules(script, record.bytes)
        if action == "DROP":
            tokens.append("DRP")
        elif action == "SILENCE":
            tokens.append("TMO")
        else:
            tokens.append(payload[:3].decode("ascii"))
    return tokens


def check_scan(fp, script, expected: list[str], tally: Tally) -> None:
    """Positions that differ from the oracle fail, and so do a wrong
    greeting or wrong login tokens.  A scan that raised (fp is None)
    fails every position."""
    if fp is None:
        tally.count(len(expected) + 2, len(expected) + 2, "scan raised")
        return
    got = [obs.token() for obs in fp.observations]
    wrong = sum(1 for i, token in enumerate(expected) if i >= len(got) or got[i] != token)
    wrong += max(0, len(got) - len(expected))
    tally.count(len(expected), wrong, "positions differ from the script oracle")
    tally.check(fp.greeting.token() == f"{script.greeting_code:03d}", "greeting")
    login = ",".join(obs.token() for obs in fp.login)
    tally.check(login == f"{script.user_code:03d},{script.pass_code:03d}", "login tokens")


def fp_round_trip(fp, path, tally: Tally) -> None:
    scanner.save_fingerprint(fp, path)
    back = scanner.load_fingerprint(path)
    tally.check(
        back.observations == fp.observations
        and back.greeting == fp.greeting
        and back.login == fp.login
        and back.label == fp.label
        and back.collection_digest == fp.collection_digest,
        ".fp write/read round trip",
    )


class Target:
    """The lab target process for one scan; records its CPU time on stop."""

    def __init__(self, script_path: str, src: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "fingerfuzz.cli", "lab", "--script", script_path, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        self.cpu_s = None
        self.port = self._read_port()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline().decode("ascii", "replace") if ready else ""
        if " on port " not in line:
            self.stop()
            raise RuntimeError(f"lab target did not start: {line!r}")
        return int(line.rsplit(" ", 1)[1])

    def stop(self) -> None:
        before = children_cpu_s()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.cpu_s = children_cpu_s() - before

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.cpu_s is None:
            self.stop()


def setup_once(seed: int, path: str):
    """Build, save and load the default collection."""
    built = fuzzgen.build_collection(fuzzgen.FuzzConfig(seed=seed))
    fuzzgen.save_collection(built, path)
    return built, fuzzgen.load_collection(path)


class ScanWorkload:
    def __init__(self, name: str, seed: int, work: str, src: str):
        self.name = name
        self.seed = seed
        self.work = work
        self.src = src
        self.script_path = os.path.join(HERE, "scripts", SCRIPTS[name])
        self.script = labserver.load_script_file(self.script_path)
        self.tally = Tally()
        self.clock = SpeedClock()
        self.setup_times: list[float] = []
        self.scan_times: list[float] = []
        self.round_times: list[float] = []
        self.requests = 0
        self.client_cpu: list[float] = []
        self.target_cpu: list[float] = []
        self.collection = None
        self.expected: list[str] = []

    def setup(self, repeats: int = SETUP_REPEATS) -> None:
        for _ in range(repeats):
            (built, loaded), seconds = self.clock.timed(
                setup_once, self.seed, os.path.join(self.work, "default.fc"))
            self.setup_times.append(seconds)
            self.tally.check(
                loaded.digest == built.digest
                and [r.bytes for r in loaded.records] == [r.bytes for r in built.records],
                ".fc write/read round trip",
            )
            self.collection = loaded
        self.expected = expected_tokens(self.script, self.collection)
        self.tally.check(len(self.expected) == 4590, "default collection size")

    def scan_round(self) -> float:
        """One scan against a fresh target; returns the scan's wall time."""
        with Target(self.script_path, self.src) as target:
            target_spec = TargetSpec(
                "127.0.0.1", target.port,
                reply_timeout=REPLY_TIMEOUT, drain_window=DRAIN_WINDOW, connect_timeout=5.0,
            )
            cpu0 = time.process_time()
            start = time.perf_counter()
            try:
                fp = scanner.fingerprint_target(self.collection, target_spec, label=self.name)
            except FingerfuzzError:
                fp = None
            scan_s = time.perf_counter() - start
            self.client_cpu.append(time.process_time() - cpu0)
            if fp is not None:
                fp_round_trip(fp, os.path.join(self.work, "scan.fp"), self.tally)
            round_s = time.perf_counter() - start
            target.stop()
        self.target_cpu.append(target.cpu_s)
        check_scan(fp, self.script, self.expected, self.tally)
        self.scan_times.append(scan_s)
        self.round_times.append(round_s)
        self.requests += len(self.expected)
        return round_s

    def run(self, seconds: float) -> None:
        budget = Budget(seconds)
        while budget.more():
            budget.done_round(self.scan_round())

    def rounds_done(self) -> int:
        return len(self.round_times)

    def round_s(self, first: int = 0, last: int | None = None) -> float:
        return median(self.round_times[first:last])

    def end_to_end(self) -> dict:
        return {
            "setup_s": median(self.setup_times),
            "rate_per_s": self.requests / sum(self.scan_times),
            "op_samples": [s * 1000 for s in self.scan_times],
            "round_s": self.round_s(),
        }
