"""One client's statement-execution session against a store.

This is the statement engine behind the interactive shell
(:mod:`repro.shell`) and the wire server (:mod:`repro.net.server`) in both
of its roles: it parses any statement kind (SELECT, INSERT, DELETE,
BEGIN/COMMIT/ROLLBACK) exactly once, tracks the session's open transaction,
and renders the exact status strings the shell has always printed.  What it
asks of the store is small — ``traced_statement``, ``run`` / ``explain`` of a
compiled SELECT, ``dataset(name)`` for keyed writes, ``begin()`` — and both
:class:`~repro.store.datastore.Datastore` and
:class:`~repro.shard.coordinator.ShardedDatastore` provide it, so nothing
here knows which one it drives.  Transaction misuse raises
:class:`~repro.model.errors.SqlppError` with the statement's source
position, in the same style as parse and bind errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class StatementOutcome:
    """What one statement produced.

    Exactly one of ``rows``/``status`` is set: SELECT statements produce
    ``rows`` (dicts, or bare values for ``SELECT VALUE``); DML and
    transaction control produce a ``status`` line.  ``sequence`` carries the
    engine commit sequence for auto-committed single-document writes and for
    COMMIT, so wire clients can record write histories
    (:mod:`repro.verify.history`).  ``explain_text`` is filled only when the
    caller asked for the plan of a dataset-reading SELECT.
    """

    rows: Optional[list] = None
    status: Optional[str] = None
    sequence: Optional[int] = None
    explain_text: Optional[str] = None
    #: The statement's own :class:`repro.obs.QueryTrace` (queries only; None
    #: when the store's observability is off).
    trace: Optional[object] = None


def insert_documents(dataset, documents: list):
    """Auto-committed insert of a request's documents: ``(count, sequence)``.

    One document reports its commit sequence (write histories are recorded
    from it); several go through ``insert_many`` — which a coordinator's
    routing view spreads over its shards concurrently — and report none.
    """
    if len(documents) == 1:
        return 1, dataset.insert(documents[0])
    return dataset.insert_many(documents), None


class StatementSession:
    """Statement execution with per-session transaction state.

    One instance per shell session or wire connection; the underlying store
    is shared and thread-safe, the session itself must be driven by one
    statement at a time (the server serializes requests per connection).
    """

    def __init__(self, store) -> None:
        self.store = store
        #: The session's open transaction (None between BEGIN/COMMIT pairs).
        self.txn = None

    def execute(
        self,
        text: str,
        executor: Optional[str] = None,
        explain: bool = False,
        pushdown: bool = True,
        batch_size: Optional[int] = None,
        query_id: Optional[str] = None,
        partial: bool = False,
    ) -> StatementOutcome:
        """Parse and execute one statement of any kind.

        Query statements run inside the store's ``traced_statement`` (under
        ``query_id`` when given) and the outcome carries that trace — the
        statement's own, never whatever the shared store traced last.
        ``partial`` asks the store for its fragment of a scatter-gather
        statement only (what a coordinator sends its shards).

        Raises :class:`~repro.model.errors.ReproError` subclasses on failure.
        """
        import time

        from ..model.errors import SqlppError, TransactionError
        from ..obs import record_span, span
        from ..sqlpp import (
            BeginStatement,
            CommitStatement,
            DeleteStatement,
            InsertStatement,
            RollbackStatement,
            compile_statement,
            constant_value,
            parse_any,
        )

        parse_started = time.perf_counter()
        statement = parse_any(text)
        parse_elapsed = time.perf_counter() - parse_started
        if isinstance(statement, BeginStatement):
            if self.txn is not None:
                raise SqlppError(
                    "nested BEGIN: a transaction is already open (COMMIT or "
                    f"ROLLBACK it first) at {statement.where}",
                    statement.line,
                    statement.column,
                )
            try:
                self.txn = self.store.begin()
            except TransactionError as error:  # the store says why, we say where
                raise SqlppError(
                    f"{error} at {statement.where}", statement.line, statement.column
                ) from None
            return StatementOutcome(status=f"BEGIN (transaction #{self.txn.id})")
        if isinstance(statement, CommitStatement):
            if self.txn is None:
                raise SqlppError(
                    f"COMMIT outside a transaction at {statement.where}",
                    statement.line,
                    statement.column,
                )
            txn, self.txn = self.txn, None
            sequence = txn.commit()  # TransactionConflictError propagates
            if sequence is None:
                return StatementOutcome(status="COMMIT (read-only)")
            return StatementOutcome(
                status=f"COMMIT (sequence {sequence})", sequence=sequence
            )
        if isinstance(statement, RollbackStatement):
            if self.txn is None:
                raise SqlppError(
                    f"ROLLBACK outside a transaction at {statement.where}",
                    statement.line,
                    statement.column,
                )
            txn, self.txn = self.txn, None
            txn.abort()
            return StatementOutcome(status="ROLLBACK")
        if isinstance(statement, InsertStatement):
            value = constant_value(statement.documents)
            documents = value if isinstance(value, list) else [value]
            if not documents or not all(
                isinstance(document, dict) for document in documents
            ):
                raise SqlppError(
                    "INSERT expects an object literal or a non-empty array of "
                    f"objects at {statement.documents.where}",
                    statement.documents.line,
                    statement.documents.column,
                )
            if self.txn is not None:
                for document in documents:
                    self.txn.insert(statement.dataset, document)
                return StatementOutcome(
                    status=f"INSERT {len(documents)} (buffered in transaction)"
                )
            count, sequence = insert_documents(
                self.store.dataset(statement.dataset), documents
            )
            return StatementOutcome(status=f"INSERT {count}", sequence=sequence)
        if isinstance(statement, DeleteStatement):
            dataset = self.store.dataset(statement.dataset)
            if statement.key_field != dataset.primary_key_field:
                raise SqlppError(
                    f"DELETE key field `{statement.key_field}` is not the "
                    f"primary key `{dataset.primary_key_field}` of dataset "
                    f"{statement.dataset!r} at {statement.where}",
                    statement.line,
                    statement.column,
                )
            key = constant_value(statement.key)
            if self.txn is not None:
                self.txn.delete(statement.dataset, key)
                return StatementOutcome(status="DELETE 1 (buffered in transaction)")
            sequence = dataset.delete(key)
            return StatementOutcome(status="DELETE 1", sequence=sequence)
        with self.store.traced_statement(
            text, executor=executor, query_id=query_id, started=parse_started
        ) as trace:
            if trace is not None:
                record_span("parse", parse_elapsed)
            with span("bind"):
                compiled = compile_statement(statement, text)
            explain_text = None
            if explain and compiled.query is not None:
                explain_text = self.store.explain(compiled, executor=executor)
            rows = self.store.run(
                compiled,
                executor=executor,
                pushdown=pushdown,
                batch_size=batch_size,
                partial=partial,
            )
        return StatementOutcome(rows=rows, explain_text=explain_text, trace=trace)

    def close(self) -> Optional[str]:
        """Roll back an open transaction; returns the rollback notice, if any.

        Ending a session without a COMMIT is equivalent to a ROLLBACK — the
        buffered writes were never applied.
        """
        if self.txn is None:
            return None
        txn, self.txn = self.txn, None
        txn.abort()
        return (
            f"rolled back open transaction #{txn.id} (session ended "
            "without COMMIT)"
        )
