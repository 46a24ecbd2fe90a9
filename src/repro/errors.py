"""Exception hierarchy for the TINTIN reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  The hierarchy mirrors the
layers of the system: parsing (:class:`SQLSyntaxError`), the relational
engine (:class:`DatabaseError` and subclasses), the logic layer
(:class:`LogicError`), and the TINTIN compilation pipeline
(:class:`CompilationError` and subclasses).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


# ---------------------------------------------------------------------------
# SQL parsing


class SQLSyntaxError(ReproError):
    """Raised when SQL text cannot be tokenized or parsed.

    Carries the offending position so callers can point at the input.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UnsupportedSQLError(SQLSyntaxError):
    """Raised for SQL that parses but falls outside the supported fragment.

    The paper's fragment is relational algebra: selection, projection,
    join, ``[NOT] EXISTS``, ``[NOT] IN``, ``UNION`` — no aggregates or
    arithmetic functions inside assertions.
    """


# ---------------------------------------------------------------------------
# Relational engine


class DatabaseError(ReproError):
    """Base class for errors raised by the :mod:`repro.minidb` engine."""


class CatalogError(DatabaseError):
    """Unknown or duplicate table/view/trigger/procedure names."""


class SchemaError(DatabaseError):
    """Invalid schema definitions (bad column, duplicate column, bad key)."""


class TypeCheckError(DatabaseError):
    """A value does not conform to its declared SQL type."""


class ConstraintViolation(DatabaseError):
    """An integrity constraint enforced by the engine was violated.

    This covers PRIMARY KEY, UNIQUE, NOT NULL and FOREIGN KEY violations
    raised while *applying* updates.  Assertion violations detected by
    TINTIN are reported through :class:`repro.core.safe_commit.CommitResult`
    instead, mirroring the paper's safeCommit behaviour of reporting the
    offending tuples rather than raising.
    """

    def __init__(self, message: str, constraint: str = "", table: str = ""):
        self.constraint = constraint
        self.table = table
        super().__init__(message)


class ExecutionError(DatabaseError):
    """Runtime failure while executing a query plan."""


class TransactionError(DatabaseError):
    """Invalid transaction usage (nested begin, commit without begin...)."""


# ---------------------------------------------------------------------------
# Multi-session server


class SessionError(ReproError):
    """Base class for errors raised by the multi-session server layer."""


class SessionExpired(SessionError):
    """The session was closed or expired; its staged events are gone.

    Raised by any staging, read or commit attempt on a dead session —
    the client must open a fresh session and re-propose its update.
    """


# ---------------------------------------------------------------------------
# Network front end


class NetworkError(ReproError):
    """Base class for errors raised by the network front end."""


class ProtocolError(NetworkError):
    """A frame violated the wire protocol (bad magic, unknown type,
    malformed payload, oversized frame)."""


class ConnectionLost(NetworkError):
    """The peer went away mid-conversation.

    For a request that may have reached the commit pipeline this is an
    *ambiguous* outcome: the update could be durable or not.  The
    client library never auto-retries a commit on this error — the
    caller must reconnect and check, exactly like a database client
    losing its socket between COMMIT and the acknowledgement.
    """


class OverloadError(NetworkError):
    """The server shed this request instead of queueing it.

    Shedding happens *before* admission: the request never entered the
    commit pipeline, no WAL frame was written, so retrying after
    ``retry_after`` seconds is always safe.
    """

    def __init__(self, message: str, retry_after: float = 0.1):
        self.retry_after = retry_after
        self.retriable = True
        super().__init__(message)


class DeadlineExceeded(NetworkError):
    """The request's deadline lapsed before its expensive work ran.

    Deadlines are enforced at admission and again before the
    violation-view pass, so an expired request is cancelled without
    being applied or logged — retrying with a fresh deadline is safe.
    """

    def __init__(self, message: str = "request deadline exceeded"):
        self.retriable = True
        super().__init__(message)


# ---------------------------------------------------------------------------
# Durability


class DurabilityError(ReproError):
    """Base class for write-ahead log / checkpoint / recovery failures."""


class WALCorruptionError(DurabilityError):
    """The file is not a readable write-ahead log of this format.

    Raised when the 8-byte magic header is missing or carries a
    foreign format version — the file is not (this version of) a WAL
    at all.  A damaged *frame* inside an otherwise valid log is
    handled differently: scanning stops there and everything from that
    point on is treated as the log's end (the torn-tail discipline
    PostgreSQL applies to its redo log), because a redo log cannot
    distinguish a crash artifact from later corruption without frame-
    level redundancy it does not carry.
    """


class RecoveryError(DurabilityError):
    """Recovered state failed verification (row counts, catalog shape,
    sequence gaps, or a replayed batch the engine rejects)."""


# ---------------------------------------------------------------------------
# Sharding


class ShardError(ReproError):
    """A shard worker failed or is unreachable.

    Raised by the router when a worker process reports an engine error
    or its pipe dies mid-conversation.  For two-phase commits the
    router distinguishes *when*: a failure before the decision was
    logged aborts the global transaction (safe to retry); a failure
    after leaves the decision durable in the coordinator log and the
    dead participant resolves its in-doubt transaction on restart."""


# ---------------------------------------------------------------------------
# Logic layer


class LogicError(ReproError):
    """Invalid logic constructions (unsafe rules, arity mismatches...)."""


class SafetyError(LogicError):
    """A rule or denial is not range-restricted / safe.

    Safety requires every variable in a negated literal or built-in to
    also appear in a positive database literal of the same rule body.
    """


# ---------------------------------------------------------------------------
# TINTIN compilation pipeline


class CompilationError(ReproError):
    """Base class for assertion-compilation failures."""


class AssertionDefinitionError(CompilationError):
    """The CREATE ASSERTION statement is malformed or unsupported, or
    the current state already violates it."""

    #: the witnessing :class:`~repro.core.safe_commit.Violation` rows
    #: when the state violates the assertion; empty otherwise
    violations: list = []


class UnknownTableError(CompilationError):
    """An assertion references a table missing from the target schema."""

    def __init__(self, table: str):
        self.table = table
        super().__init__(f"assertion references unknown table {table!r}")


class UnknownColumnError(CompilationError):
    """An assertion references a column missing from a referenced table."""

    def __init__(self, column: str, table: str = ""):
        self.column = column
        self.table = table
        where = f" of table {table!r}" if table else ""
        super().__init__(f"assertion references unknown column {column!r}{where}")
