"""Deterministic scriptable FTP responder for desk-scale experiments.

A script fixes the greeting, the USER/PASS reply codes, an ordered rule
table, and a default reply.  Each connection runs its own login and then
the rules in one socket-free `LabSession`, which the tests' scan oracle
drives too.  After the login, replies are a pure function of the request
line, so repeated scans of a script give identical fingerprints; scripts
that differ in a few rules stand in for distinct products or versions.

A `Rule` is its three script fields as written.  Its reply, like a
script's default reply, is rendered once, when it is built.
"""

from __future__ import annotations

import contextlib
import logging
import re
import socket
import threading
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from .errors import ParseError
from .fileio import decode_ascii, load

log = logging.getLogger("fingerfuzz.labserver")

_RULE_COMMAND_RE = re.compile(r"^([A-Z]{3,8}|\*)$")

# seconds a connection may stay silent before the server closes it
IDLE_TIMEOUT = 60.0

# the longest DELAY a rule may ask for
MAX_DELAY_MS = int(threading.TIMEOUT_MAX * 1000)


@dataclass(frozen=True)
class Rule:
    """One rule as a script spells it, such as
    `Rule("NOOP", "LEN_GT:8", "REPLY:500:argument too long")`.  Construction
    checks the three fields and works out, once, the predicate's threshold
    and the response the rule gives."""

    command: str
    predicate: str
    action: str
    # LEN_GT's threshold, None for the other predicates
    threshold: int | None = field(init=False, compare=False, repr=False)
    # (action, wire bytes or None, seconds to wait before sending)
    response: tuple[str, bytes | None, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not _RULE_COMMAND_RE.match(self.command):
            raise ValueError(f"bad command {self.command!r}")
        threshold = None
        if self.predicate not in ("ANY", "NONPRINT", "EMPTY"):
            if not self.predicate.startswith("LEN_GT:"):
                raise ValueError(f"unknown predicate {self.predicate!r}")
            threshold = _parse_count(self.predicate[7:], f"LEN_GT threshold in {self.predicate!r}")
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "response", _parse_action(self.action))

    def matches(self, request: bytes) -> bool:
        head, _, arg = request.partition(b" ")
        if self.command != "*" and head.upper() != self.command.encode("ascii"):
            return False
        if self.threshold is not None:
            return len(arg) > self.threshold
        if self.predicate == "ANY":
            return True
        if self.predicate == "NONPRINT":
            return any(b < 0x20 or b > 0x7E for b in arg)
        return len(arg) == 0  # EMPTY


def _parse_action(action: str) -> tuple[str, bytes | None, float]:
    """(action, wire bytes or None, seconds to wait before sending) of
    REPLY:<code>:<text>, MULTI:<code>:<line>|<line>..., DROP, SILENCE or
    DELAY:<ms>:<code>:<text>."""
    if action in ("DROP", "SILENCE"):
        return action, None, 0.0
    kind, _, payload = action.partition(":")
    delay_ms = 0
    if kind == "DELAY":
        ms, _, payload = payload.partition(":")
        delay_ms = _parse_count(ms, f"DELAY milliseconds in {action!r}")
        if delay_ms > MAX_DELAY_MS:  # a thread's wait refuses a longer timeout
            raise ValueError(f"DELAY milliseconds in {action!r} must be at most {MAX_DELAY_MS}")
    elif kind not in ("REPLY", "MULTI"):
        raise ValueError(f"unknown action {action!r}")
    code, _, text = payload.partition(":")
    code = _check_code(code)
    _check_text(text, kind)
    if kind == "MULTI":
        if not text:
            raise ValueError("MULTI needs at least one line")
        return kind, render_multiline(code, tuple(text.split("|"))), 0.0
    return kind, render_reply(code, text), delay_ms / 1000


def _parse_count(digits: str, what: str) -> int:
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad {what}")
    return int(digits)


@dataclass(frozen=True)
class ServerScript:
    name: str
    greeting_code: int = 220
    greeting_text: str = "service ready"
    user_code: int = 331
    pass_code: int = 230
    rules: tuple[Rule, ...] = ()
    default_code: int = 502
    default_text: str = "command not implemented"
    # the response where no rule matches, as Rule.response
    default_reply: tuple[str, bytes, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError("name: must be a single non-empty word")
        for where, code in (("greeting: ", self.greeting_code), ("login USER: ", self.user_code),
                            ("login PASS: ", self.pass_code), ("default: ", self.default_code)):
            _check_code(f"{code:03d}", where)  # the format refuses a code that is no int
        _check_text(self.greeting_text, "greeting")
        _check_text(self.default_text, "default")
        object.__setattr__(self, "default_reply",
                           ("DEFAULT", render_reply(self.default_code, self.default_text), 0.0))


def _check_code(code: str, where: str = "") -> int:
    """The value of a reply code written as three digits, in 100..599."""
    if not (len(code) == 3 and code.isascii() and code.isdigit() and 100 <= int(code) <= 599):
        raise ValueError(f"{where}code {code} outside 100..599")
    return int(code)


def _check_text(text: str, where: str) -> None:
    if any(ch in "\r\n" for ch in text):
        raise ValueError(f"{where}: text must not contain line breaks")


def render_reply(code: int, text: str) -> bytes:
    return f"{code:03d} {text}".encode("latin-1") + b"\r\n"


def render_multiline(code: int, lines: tuple[str, ...]) -> bytes:
    parts = [f"{code:03d}-{line}" for line in lines[:-1]]
    parts.append(f"{code:03d} {lines[-1]}")
    return "\r\n".join(parts).encode("latin-1") + b"\r\n"


def _rule_reply(script: ServerScript, request: bytes) -> tuple[str, bytes | None, float]:
    """The response of the first matching rule, or the default reply where
    none matches."""
    for rule in script.rules:
        if rule.matches(request):
            return rule.response
    return script.default_reply


def apply_rules(script: ServerScript, request: bytes) -> tuple[str, bytes | None]:
    """First matching rule wins; returns (action, wire bytes or None).  A
    DELAY rule's bytes are its reply, which the server sends late."""
    return _rule_reply(script, request)[:2]


class LabSession:
    """One connection's behaviour, without its socket: `greeting`, then the
    login (USER, and PASS unless the USER code is final), then the rules.  A
    line other than the awaited login command goes to the rules and leaves
    the login where it was."""

    def __init__(self, script: ServerScript):
        self.script = script
        self.greeting = render_reply(script.greeting_code, script.greeting_text)
        self._awaiting: bytes | None = b"USER"  # None once logged in

    def respond(self, line: bytes) -> tuple[str, bytes | None, float]:
        """(action as logged, wire bytes or None, seconds to wait before
        sending) for one request line; DROP closes the connection."""
        script = self.script
        if self._awaiting is None or line.partition(b" ")[0].upper() != self._awaiting:
            return _rule_reply(script, line)
        if self._awaiting == b"USER":
            self._awaiting = b"PASS" if script.user_code in (331, 332) else None
            return f"login USER {script.user_code}", render_reply(script.user_code, "ok"), 0.0
        self._awaiting = None
        return f"login PASS {script.pass_code}", render_reply(script.pass_code, "ok"), 0.0


class LabServer:
    """Threaded listener; every connection evaluates the script independently.

    Each connection counts the actions it took (`LabSession.respond`'s
    first value) and adds them to `actions` when it ends; `stop` ends the
    connections still open, so after it `actions` holds every request."""

    def __init__(self, script: ServerScript, host: str = "127.0.0.1", port: int = 0):
        self.script = script
        self.host = host
        self.port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self.connections = 0  # accepted so far
        self.actions: Counter[str] = Counter()  # of the connections that ended
        self._lock = threading.Lock()  # guards actions and _open
        self._open: dict[socket.socket, threading.Thread] = {}

    def start(self) -> "LabServer":
        # on POSIX this sets SO_REUSEADDR, and a failed bind closes the socket;
        # the default backlog admits a scan that opens every session at once
        self._listener = socket.create_server((self.host, self.port))
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"lab-{self.script.name}", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            with contextlib.suppress(OSError):  # on Linux this wakes the blocked accept at once
                self._listener.shutdown(socket.SHUT_RDWR)
            self._accept_thread.join(timeout=5)
            self._listener.close()
            self._listener = None
        with self._lock:
            still_open = list(self._open.items())
        for conn, handler in still_open:
            with contextlib.suppress(OSError):  # the handler may have closed it
                conn.shutdown(socket.SHUT_RDWR)
            handler.join(timeout=5)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            handler = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            with self._lock:
                self._open[conn] = handler
            handler.start()

    def _serve(self, conn: socket.socket) -> None:
        session = LabSession(self.script)
        counts: Counter[str] = Counter()
        try:
            # any OSError, the idle timeout too, ends the connection
            with conn, conn.makefile("rb") as lines, contextlib.suppress(OSError):
                conn.settimeout(IDLE_TIMEOUT)
                conn.sendall(session.greeting)
                for line in lines:
                    # a last line with no LF before the end is no request
                    if not line.endswith(b"\n") or self._stopping.is_set():
                        return
                    line = line[:-1].rstrip(b"\r")
                    action, payload, delay = session.respond(line)
                    counts[action] += 1
                    log.debug("%s %r -> %s", self.script.name, line, action)
                    if action == "DROP":
                        return
                    if payload is None:
                        continue
                    if delay and self._stopping.wait(delay):
                        return
                    conn.sendall(payload)
        finally:
            with self._lock:
                self.actions.update(counts)
                del self._open[conn]


# Script file grammar, ASCII only, one directive per line; `#` opens a
# comment line.  Each directive but `rule` may appear once:
#   name <label>
#   greeting <code> <text>
#   login USER=<code> PASS=<code>
#   rule <CMD|*> <ANY|LEN_GT:n|NONPRINT|EMPTY> <action>
#     action: REPLY:code:text | MULTI:code:l1|l2 | DROP | SILENCE | DELAY:ms:code:text
#   default <code> <text>
# A rule line's three fields are the Rule as written.


def _parse_name(rest: str) -> tuple[str]:
    if not rest:
        raise ValueError("name needs a label")
    if any(ch.isspace() for ch in rest):
        raise ValueError("name: must be a single non-empty word")
    return (rest,)


def _parse_code_text(rest: str, where: str) -> tuple[int, str]:
    code, _, text = rest.partition(" ")
    _check_text(text, where)
    return _check_code(code), text


def _parse_login(rest: str) -> tuple[int, int]:
    parts = rest.split()
    if len(parts) != 2 or not parts[0].startswith("USER=") or not parts[1].startswith("PASS="):
        raise ValueError("login line must be 'login USER=<code> PASS=<code>'")
    return _check_code(parts[0][5:]), _check_code(parts[1][5:])


# the directives that may appear once: their line parser, and the
# ServerScript fields its values fill
_SINGLE_DIRECTIVES = {
    "name": (_parse_name, ("name",)),
    "greeting": (partial(_parse_code_text, where="greeting"),
                 ("greeting_code", "greeting_text")),
    "login": (_parse_login, ("user_code", "pass_code")),
    "default": (partial(_parse_code_text, where="default"), ("default_code", "default_text")),
}


def load_script(source: str) -> ServerScript:
    fields: dict[str, object] = {}  # ServerScript's, by the table
    rules: list[Rule] = []
    # LF only: str.splitlines would also break at form feeds and other
    # separators a reply text may hold; strip() takes the CR of CRLF
    for line_no, raw in enumerate(source.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        directive, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if directive == "rule":
                parts = rest.split(" ", 2)
                if len(parts) != 3:
                    raise ValueError("rule line must be 'rule <CMD|*> <predicate> <action>'")
                rules.append(Rule(*parts))
                continue
            if directive not in _SINGLE_DIRECTIVES:
                raise ValueError(f"unknown directive {directive!r}")
            parse, names = _SINGLE_DIRECTIVES[directive]
            if names[0] in fields:
                raise ValueError(f"duplicate {directive} line")
            fields.update(zip(names, parse(rest)))
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    if "name" not in fields:
        raise ParseError("script needs a 'name' line")
    if "default_code" not in fields:
        raise ParseError("script needs exactly one 'default' line")
    try:
        return ServerScript(rules=tuple(rules), **fields)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_script_file(path) -> ServerScript:
    return load(path, lambda fh: load_script(decode_ascii(fh.read(), "lab script")))
