"""Exception hierarchy shared by all fingerfuzz components."""


class FingerfuzzError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FingerfuzzError):
    """Invalid generation configuration; names the offending field."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"invalid config field '{field}': {reason}")
        self.field = field


class ParseError(FingerfuzzError):
    """Malformed collection, fingerprint, or server-script file; the message
    names the file, line and column where they are known."""

    def __init__(self, message: str, line_no: int | None = None,
                 column: int | None = None, path=None):
        self.reason = message
        self.line_no = line_no
        self.column = column
        place = ", ".join(f"{name} {value}" for name, value
                          in (("line", line_no), ("column", column)) if value is not None)
        super().__init__(": ".join(str(part) for part in (path, place, message) if part))


class IntegrityError(FingerfuzzError):
    """A stored digest does not match the recomputed one."""


class ConnectError(FingerfuzzError):
    """TCP connection to the target could not be established."""


class LoginError(FingerfuzzError):
    """FTP login was rejected; carries the observed replies."""

    def __init__(self, message: str, user_reply=None, pass_reply=None):
        super().__init__(message)
        self.user_reply = user_reply
        self.pass_reply = pass_reply


class TransportError(FingerfuzzError):
    """Local I/O failure on an open session (distinct from sentinel replies)."""


class ScanRefusedError(FingerfuzzError):
    """Target rejected the login, so no comparable fingerprint can be taken."""

    def __init__(self, message: str, user_reply=None, pass_reply=None):
        super().__init__(message)
        self.user_reply = user_reply
        self.pass_reply = pass_reply


class PartialScanError(FingerfuzzError):
    """Scan aborted before all requests were answered; no fingerprint emitted."""


class IncomparableError(FingerfuzzError):
    """Fingerprints were taken with different request collections."""


class DatabaseError(FingerfuzzError):
    """Fingerprint database directory is unusable (duplicates, mixed digests)."""


class InsufficientDataError(FingerfuzzError):
    """Operation needs more fingerprints than the database holds."""
