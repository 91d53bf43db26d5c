"""Span recorder wrapped around the public calls of each fingerfuzz layer.

Hooks replace module attributes and class methods for the duration of a
traced phase and are removed afterwards, so untraced phases run the
program's own code untouched.  Each span keeps its name, start and end in
nanoseconds, the index of the span that was open when it began, and an
optional tag computed from the call (a reply token, a database size).
Spans stay in memory until `write` dumps them at the end of a run.

A hook whose target no longer exists is recorded in `absent`; metrics
derived from it are reported as absent, never as zero.
"""

from __future__ import annotations

import functools
import json
import time

# (span name, module attribute path, tag kind)
HOOKS = (
    ("fuzzgen.build_collection", "fuzzgen.build_collection", None),
    ("fuzzgen.write_collection", "fuzzgen.write_collection", None),
    ("fuzzgen.read_collection", "fuzzgen.read_collection", None),
    ("wire.connect", "wire.connect", None),
    ("wire.login", "wire.FtpSession.login", None),
    ("wire.exchange", "wire.FtpSession.exchange", "token"),
    ("wire.drain", "wire.FtpSession._drain", None),
    ("scanner.fingerprint_target", "scanner.fingerprint_target", None),
    ("scanner.write_fingerprint", "scanner.write_fingerprint", None),
    ("scanner.read_fingerprint", "scanner.read_fingerprint", None),
    ("matcher.load", "matcher.FingerprintDB.load", None),
    ("matcher.match_pair", "matcher.match_pair", None),
    ("matcher.rank", "matcher.rank", "db_size"),
    ("matcher.match_matrix", "matcher.match_matrix", None),
    ("optimizer.discriminating_indexes", "optimizer.discriminating_indexes", None),
    ("optimizer.reduce_collection", "optimizer.reduce_collection", None),
    ("optimizer.project_fingerprint", "optimizer.project_fingerprint", None),
)


def _tag(kind, args, result):
    if kind == "token":
        return result.token()
    if kind == "db_size":
        return len(args[1])
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.tags: list = []
        self.absent: set[str] = set()
        self._open: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, tag_kind):
        names, starts, ends, parents, tags, open_ = (
            self.names, self.starts, self.ends, self.parents, self.tags, self._open
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            starts.append(0)
            ends.append(0)
            tags.append(None)
            open_.append(index)
            starts[index] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter_ns()
                open_.pop()
            if tag_kind is not None:
                tags[index] = _tag(tag_kind, args, result)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Patch every hook target found in `modules` (name -> module)."""
        for name, path, tag_kind in HOOKS:
            module_name, *attrs = path.split(".")
            owner = modules[module_name]
            for attr in attrs[:-1]:
                owner = getattr(owner, attr, None)
            raw = vars(owner).get(attrs[-1]) if owner is not None else None
            if raw is None:
                self.absent.add(name)
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__, tag_kind))
            else:
                patched = self.wrap(name, raw, tag_kind)
            setattr(owner, attrs[-1], patched)
            self._undo.append((owner, attrs[-1], raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- queries -----------------------------------------------------------

    def indexes(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name]

    def duration_s(self, index: int) -> float:
        return (self.ends[index] - self.starts[index]) / 1e9

    def durations_s(self, name: str) -> list[float]:
        return [self.duration_s(i) for i in self.indexes(name)]

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                kids.setdefault(parent, []).append(i)
        return kids

    def self_s(self, index: int, kids: dict[int, list[int]]) -> float:
        """Span duration minus the time its direct children cover."""
        covered = sum(self.duration_s(k) for k in kids.get(index, ()))
        return self.duration_s(index) - covered

    def enclosing(self, name: str) -> list[int]:
        """For each span, the index of the nearest `name` span on its chain
        of parents (itself included), or -1 if there is none."""
        found: list[int] = []
        for i, (n, parent) in enumerate(zip(self.names, self.parents)):
            # a parent is always recorded before its children
            found.append(i if n == name else found[parent] if parent >= 0 else -1)
        return found

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "absent": sorted(self.absent),
                    "spans": [
                        {"name": n, "start_ns": s, "end_ns": e, "parent": p, "tag": t}
                        for n, s, e, p, t in zip(
                            self.names, self.starts, self.ends, self.parents, self.tags
                        )
                    ],
                },
                fh,
            )
