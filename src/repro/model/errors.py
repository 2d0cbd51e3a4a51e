"""Exception hierarchy for the repro document store.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch storage, format, and query failures with a single handler while
still being able to discriminate specific conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """Raised when a record cannot be reconciled with the inferred schema."""


class EncodingError(ReproError):
    """Raised when a value cannot be encoded or a byte stream cannot be decoded."""


class StorageError(ReproError):
    """Raised on page, buffer-cache, or component-level storage failures."""


class PageOverflowError(StorageError):
    """Raised when a value does not fit in a page and cannot be split."""


class ComponentStateError(StorageError):
    """Raised when an LSM component is used in an invalid lifecycle state."""


class DuplicateKeyError(StorageError):
    """Raised when inserting a primary key that already exists (load mode)."""


class KeyNotFoundError(StorageError):
    """Raised by point lookups when the requested primary key does not exist."""


class QueryError(ReproError):
    """Raised when a logical plan is malformed or cannot be executed."""


class UnknownFunctionError(QueryError):
    """Raised when a :class:`~repro.query.expressions.Call` names no built-in.

    The message lists every registered function so a typo is immediately
    diagnosable (``register_function`` extends the list at runtime).
    """


class SqlppError(QueryError):
    """A SQL++ frontend error (lexing, parsing, or binding) with a position.

    ``line`` and ``column`` are 1-based and point at the offending token; the
    message always embeds them (``... at line 2 col 14``) so errors stay
    diagnostic even when only the string survives.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(message)
        self.line = line
        self.column = column


class DatasetError(ReproError):
    """Raised when a dataset (collection) is missing or misconfigured."""


class TransactionError(ReproError):
    """Raised when a transaction is used in an invalid lifecycle state."""


class TransactionConflictError(TransactionError):
    """Raised at commit when first-write-wins validation fails.

    Another transaction (or an auto-committed single-document write)
    committed a version of one of this transaction's written keys after this
    transaction pinned its snapshot; the transaction is aborted, nothing was
    applied, and the caller may retry on a fresh snapshot.  ``dataset`` and
    ``key`` identify the first conflicting write found.
    """

    def __init__(self, message: str, dataset: str = "", key: object = None) -> None:
        super().__init__(message)
        self.dataset = dataset
        self.key = key
