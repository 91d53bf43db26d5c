"""Deterministic scriptable FTP responder for desk-scale experiments.

A script fixes the greeting, the USER/PASS reply codes, an ordered rule
table, and a default reply.  Replies are a pure function of the request
line (after the login phase), so repeated scans of the same script always
produce identical fingerprints; scripts that differ in a few rules stand
in for distinct server products or versions.
"""

from __future__ import annotations

import logging
import re
import socket
import threading
from dataclasses import dataclass

from .errors import ParseError
from .fileio import decode_ascii

log = logging.getLogger("fingerfuzz.labserver")

PREDICATES = ("ANY", "LEN_GT", "NONPRINT", "EMPTY")
ACTIONS = ("REPLY", "MULTI", "DROP", "SILENCE", "DELAY")

_RULE_COMMAND_RE = re.compile(r"^([A-Z]{3,8}|\*)$")

# seconds a connection may stay silent before the server closes it
IDLE_TIMEOUT = 60.0


@dataclass(frozen=True)
class Rule:
    command: str
    predicate: str
    action: str
    length_gt: int | None = None
    code: int | None = None
    text: str = ""
    lines: tuple[str, ...] = ()
    delay_ms: int = 0

    def __post_init__(self):
        if not _RULE_COMMAND_RE.match(self.command):
            raise ValueError(f"bad command {self.command!r}")
        if self.predicate not in PREDICATES:
            raise ValueError(f"unknown predicate {self.predicate!r}")
        if self.predicate == "LEN_GT" and (self.length_gt is None or self.length_gt < 0):
            raise ValueError("LEN_GT needs a non-negative threshold")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")
        if self.action in ("REPLY", "DELAY", "MULTI"):
            _check_code(self.code, self.action)
        if self.action in ("REPLY", "DELAY"):
            _check_text(self.text, self.action)
        if self.action == "DELAY" and (not isinstance(self.delay_ms, int) or self.delay_ms < 0):
            raise ValueError("DELAY needs a non-negative whole number of ms")
        if self.action == "MULTI":
            if not self.lines:
                raise ValueError("MULTI needs at least one line")
            for text in self.lines:
                _check_text(text, "MULTI")
                if "|" in text:
                    raise ValueError("MULTI line must not contain '|'")

    def matches(self, request: bytes) -> bool:
        head, _, arg = request.partition(b" ")
        if self.command != "*" and head.upper() != self.command.encode("ascii"):
            return False
        if self.predicate == "ANY":
            return True
        if self.predicate == "LEN_GT":
            return len(arg) > self.length_gt
        if self.predicate == "NONPRINT":
            return any(b < 0x20 or b > 0x7E for b in arg)
        return len(arg) == 0  # EMPTY


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

    def __post_init__(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError("name: must be a single non-empty word")
        _check_code(self.greeting_code, "greeting")
        _check_text(self.greeting_text, "greeting")
        _check_code(self.user_code, "login USER")
        _check_code(self.pass_code, "login PASS")
        _check_code(self.default_code, "default")
        _check_text(self.default_text, "default")


def _check_code(code, where: str) -> None:
    if not isinstance(code, int) or not 100 <= code <= 599:
        raise ValueError(f"{where}: code {code!r} outside 100..599")


def _check_text(text: str, where: str) -> None:
    if any(ch in "\r\n" for ch in text):
        raise ValueError(f"{where}: text must not contain line breaks")


def render_reply(code: int, text: str) -> bytes:
    return f"{code:03d} {text}".encode("latin-1") + b"\r\n"


def render_multiline(code: int, lines: tuple[str, ...]) -> bytes:
    parts = [f"{code:03d}-{line}" for line in lines[:-1]]
    parts.append(f"{code:03d} {lines[-1]}")
    return "\r\n".join(parts).encode("latin-1") + b"\r\n"


def match_rule(script: ServerScript, request: bytes) -> Rule | None:
    """The first matching rule, or None where the default reply applies."""
    for rule in script.rules:
        if rule.matches(request):
            return rule
    return None


def _outcome(script: ServerScript, rule: Rule | None) -> tuple[str, bytes | None]:
    """(action, wire bytes or None) of a rule from match_rule."""
    if rule is None:
        return "DEFAULT", render_reply(script.default_code, script.default_text)
    if rule.action in ("REPLY", "DELAY"):
        return rule.action, render_reply(rule.code, rule.text)
    if rule.action == "MULTI":
        return "MULTI", render_multiline(rule.code, rule.lines)
    return rule.action, None


def apply_rules(script: ServerScript, request: bytes) -> tuple[str, bytes | None]:
    """First matching rule wins; returns (action, wire bytes or None).  A
    DELAY rule's bytes are its reply, which the server sends late."""
    return _outcome(script, match_rule(script, request))


class LabServer:
    """Threaded listener; every connection evaluates the script independently."""

    def __init__(self, script: ServerScript, host: str = "127.0.0.1", port: int = 0):
        self.script = script
        self.host = host
        self.port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self.connections = 0  # accepted so far

    def start(self) -> "LabServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(16)
        except OSError:
            listener.close()
            raise
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"lab-{self.script.name}", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        if self._listener is not None:
            self._listener.close()
            self._listener = None

    def __enter__(self) -> "LabServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            thread = threading.Thread(
                target=self._handle, args=(conn, peer), daemon=True
            )
            thread.start()

    def _handle(self, conn: socket.socket, peer) -> None:
        script = self.script
        conn.settimeout(IDLE_TIMEOUT)
        try:
            conn.sendall(render_reply(script.greeting_code, script.greeting_text))
            login_state = "user"
            buffer = bytearray()
            while not self._stopping.is_set():
                newline = buffer.find(b"\n")
                if newline < 0:
                    try:
                        chunk = conn.recv(4096)
                    except socket.timeout:
                        return
                    if not chunk:
                        return
                    buffer.extend(chunk)
                    continue
                line = bytes(buffer[:newline]).rstrip(b"\r")
                del buffer[: newline + 1]
                head = line.split(b" ", 1)[0].upper()
                if login_state == "user" and head == b"USER":
                    log.info("%s %r -> login USER %d", script.name, line, script.user_code)
                    conn.sendall(render_reply(script.user_code, "ok"))
                    login_state = "pass" if script.user_code in (331, 332) else "done"
                    continue
                if login_state == "pass" and head == b"PASS":
                    log.info("%s %r -> login PASS %d", script.name, line, script.pass_code)
                    conn.sendall(render_reply(script.pass_code, "ok"))
                    login_state = "done"
                    continue
                rule = match_rule(script, line)
                action, payload = _outcome(script, rule)
                log.info("%s %r -> %s", script.name, line, action)
                if action == "DROP":
                    return
                if action == "SILENCE":
                    continue
                if action == "DELAY" and self._stopping.wait(rule.delay_ms / 1000):
                    return
                conn.sendall(payload)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass


def serve(script: ServerScript, port: int = 0, host: str = "127.0.0.1") -> LabServer:
    return LabServer(script, host=host, port=port).start()


# Script file grammar, ASCII only, one directive per line:
#   name <label>
#   greeting <code> <text>
#   login USER=<code> PASS=<code>
#   rule <CMD|*> <ANY|LEN_GT:n|NONPRINT|EMPTY> <action>
#     action: REPLY:code:text | MULTI:code:l1|l2 | DROP | SILENCE | DELAY:ms:code:text
#   default <code> <text>

def load_script(source: str) -> ServerScript:
    name = None
    greeting = None
    login = None
    default = None
    rules: list[Rule] = []
    # LF only: str.splitlines would also break at form feeds and other
    # separators a reply text may hold; strip() takes the CR of CRLF
    for line_no, raw in enumerate(source.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        directive, _, rest = line.partition(" ")
        rest = rest.strip()
        if directive == "name":
            if not rest:
                raise ParseError("name needs a label", line_no)
            name = rest
        elif directive == "greeting":
            greeting = _parse_code_text(rest, line_no)
        elif directive == "login":
            login = _parse_login(rest, line_no)
        elif directive == "default":
            if default is not None:
                raise ParseError("duplicate default", line_no)
            default = _parse_code_text(rest, line_no)
        elif directive == "rule":
            rules.append(_parse_rule(rest, line_no))
        else:
            raise ParseError(f"unknown directive {directive!r}", line_no)
    if name is None:
        raise ParseError("script needs a 'name' line")
    if default is None:
        raise ParseError("script needs exactly one 'default' line")
    try:
        return ServerScript(
            name=name,
            greeting_code=greeting[0] if greeting else 220,
            greeting_text=greeting[1] if greeting else "service ready",
            user_code=login[0] if login else 331,
            pass_code=login[1] if login else 230,
            rules=tuple(rules),
            default_code=default[0],
            default_text=default[1],
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def save_script(script: ServerScript) -> str:
    lines = [
        f"name {script.name}",
        f"greeting {script.greeting_code} {script.greeting_text}".rstrip(),
        f"login USER={script.user_code} PASS={script.pass_code}",
    ]
    for rule in script.rules:
        pred = rule.predicate
        if pred == "LEN_GT":
            pred = f"LEN_GT:{rule.length_gt}"
        if rule.action == "REPLY":
            action = f"REPLY:{rule.code}:{rule.text}"
        elif rule.action == "MULTI":
            action = f"MULTI:{rule.code}:" + "|".join(rule.lines)
        elif rule.action == "DELAY":
            action = f"DELAY:{rule.delay_ms}:{rule.code}:{rule.text}"
        else:
            action = rule.action
        lines.append(f"rule {rule.command} {pred} {action}")
    lines.append(f"default {script.default_code} {script.default_text}".rstrip())
    return "\n".join(lines) + "\n"


def load_script_file(path) -> ServerScript:
    with open(path, "rb") as fh:
        return load_script(decode_ascii(fh.read(), "lab script"))


def _parse_code(token: str, line_no: int) -> int:
    if not token.isdigit() or len(token) != 3:
        raise ParseError(f"expected a 3-digit code, got {token!r}", line_no)
    code = int(token)
    if not 100 <= code <= 599:
        raise ParseError(f"code {token} outside 100..599", line_no)
    return code


def _parse_code_text(rest: str, line_no: int) -> tuple[int, str]:
    token, _, text = rest.partition(" ")
    return _parse_code(token, line_no), text


def _parse_login(rest: str, line_no: int) -> tuple[int, int]:
    parts = rest.split()
    if len(parts) != 2 or not parts[0].startswith("USER=") or not parts[1].startswith("PASS="):
        raise ParseError("login line must be 'login USER=<code> PASS=<code>'", line_no)
    return (
        _parse_code(parts[0][5:], line_no),
        _parse_code(parts[1][5:], line_no),
    )


def _parse_rule(rest: str, line_no: int) -> Rule:
    parts = rest.split(" ", 2)
    if len(parts) != 3:
        raise ParseError("rule line must be 'rule <CMD|*> <predicate> <action>'", line_no)
    command, predicate, action = parts
    length_gt = None
    if predicate.startswith("LEN_GT:"):
        if not predicate[7:].isdigit():
            raise ParseError(f"bad LEN_GT threshold in {predicate!r}", line_no)
        predicate, length_gt = "LEN_GT", int(predicate[7:])
    kind, _, payload = action.partition(":")
    fields = {}
    if kind == "DELAY":
        ms_token, _, payload = payload.partition(":")
        if not ms_token.isdigit():
            raise ParseError(f"bad DELAY milliseconds in {action!r}", line_no)
        fields["delay_ms"] = int(ms_token)
    if kind in ("REPLY", "MULTI", "DELAY"):
        code_token, _, text = payload.partition(":")
        fields["code"] = _parse_code(code_token, line_no)
        if kind == "MULTI":
            fields["lines"] = tuple(text.split("|")) if text else ()
        else:
            fields["text"] = text
        action = kind
    try:
        return Rule(command, predicate, action, length_gt=length_gt, **fields)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None
