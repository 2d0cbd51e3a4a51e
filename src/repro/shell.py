"""Interactive SQL++ shell: ``python -m repro.shell``.

A small psql-style REPL over a :class:`~repro.store.datastore.Datastore`.
Statements may span multiple lines and end with ``;``.  Besides SELECT, the
shell speaks DML and transaction control::

    BEGIN;                                   -- open a transaction
    INSERT INTO accounts {"id": 7, "b": 10}; -- buffered inside the txn
    DELETE FROM accounts WHERE id = 3;
    COMMIT;                                  -- atomic; ROLLBACK discards

Outside a transaction, INSERT/DELETE auto-commit per statement.  SELECT
always reads the latest committed state — it does *not* see the open
transaction's buffered writes (the engine's transactional reads are
key-based; see ``docs/ARCHITECTURE.md``).  Backslash commands control the
session:

==============  ========================================================
``\\help``       Show the command summary.
``\\d``          List datasets (layout, record count).
``\\explain``    Toggle printing the optimizer-explained plan per query.
``\\timing``     Toggle printing wall-clock time per query.
``\\executor``   Show or set the executor (interpreted / batch, the default).
``\\trace``      Show the last query's span tree (``\\trace json`` for JSON).
``\\metrics``    Dump the server's Prometheus metrics text.
``\\q``          Quit.
==============  ========================================================

By default the shell opens an in-memory store seeded with the paper's
``gamers`` demo collection (Figure 4) so queries work immediately; pass
``--store DIR`` to open a durable datastore instead, or ``--empty`` for a
bare store.  ``--batch`` reads statements from stdin without prompts and
exits non-zero on the first error — CI smoke-tests the shell with
``printf 'SELECT 1;\\n' | python -m repro.shell --batch``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .model.errors import ReproError
from .model.values import MISSING
from .query.executor import DEFAULT_EXECUTOR, EXECUTORS, resolve_executor
from .store import Datastore, StoreConfig

#: The quickstart demo collection (the paper's Figure 4 video-gamer records).
DEMO_GAMERS = [
    {"id": 0, "games": [{"title": "NFL"}]},
    {
        "id": 1,
        "name": {"last": "Brown"},
        "games": [{"title": "FIFA", "consoles": ["PC", "PS4"]}],
    },
    {
        "id": 2,
        "name": {"first": "John", "last": "Smith"},
        "games": [
            {"title": "NBA", "consoles": ["PS4", "PC"]},
            {"title": "NFL", "consoles": ["XBOX"]},
        ],
    },
    {"id": 3},
    {"id": 4, "name": "Ann", "games": ["NBA", ["FIFA", "PES"], "NFL"]},
]

PROMPT = "sqlpp> "
CONTINUATION = "  ...> "


def statement_terminated(text: str) -> bool:
    """True when ``text`` is a complete statement (trailing ``;``).

    A ``;`` inside a string that is still open does not terminate — the
    buffer is checked with the real lexer, so multi-line string literals
    keep accumulating instead of being cut at the first line.
    """
    if not text.rstrip().endswith(";"):
        return False
    from .sqlpp import SqlppError, tokenize

    try:
        tokenize(text)
    except SqlppError as error:
        if "unterminated string" in str(error):
            return False
    return True


def _render_cell(value) -> str:
    if value is MISSING or value is None:
        return "null"
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, default=str)


def render_result_table(rows: List[object]) -> str:
    """Render query-result rows as an aligned text table with a row count.

    Dict rows become columns in first-seen key order; bare values (from
    ``SELECT VALUE``) render as a single ``value`` column.  Cells are
    rendered here (JSON for nested values, ``null`` for NULL/MISSING) and the
    alignment is delegated to the shared
    :func:`repro.bench.reporting.format_table`.
    """
    count = f"({len(rows)} row{'s' if len(rows) != 1 else ''})"
    if not rows:
        return count
    if not all(isinstance(row, dict) for row in rows):
        rows = [{"value": row} for row in rows]
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    cells = [
        [_render_cell(row.get(column, MISSING)) for column in columns] for row in rows
    ]
    from .bench.reporting import format_table

    return "\n".join([format_table(columns, cells), count])


class Shell:
    """One shell session: a store, toggles, and the statement loop."""

    def __init__(
        self,
        store: Optional[Datastore] = None,
        batch: bool = False,
        out=None,
        err=None,
        client=None,
    ) -> None:
        if (store is None) == (client is None):
            raise ValueError("pass exactly one of store (local) or client (remote)")
        self.store = store
        #: Remote mode: a connected :class:`~repro.net.client.WireClient`;
        #: the server owns the statement session (and its transaction state).
        self.client = client
        self.batch = batch
        self.out = out or sys.stdout
        self.err = err or sys.stderr
        self.show_explain = False
        self.show_timing = False
        self.executor = DEFAULT_EXECUTOR
        #: Serialized span tree of the last query statement (for ``\\trace``).
        self.last_trace: Optional[dict] = None
        self.session = None
        if store is not None:
            from .net.session import StatementSession

            self.session = StatementSession(store)

    @property
    def txn(self):
        """The local session's open transaction (None remotely — the server
        tracks it per connection)."""
        return self.session.txn if self.session is not None else None

    # -- output ------------------------------------------------------------------------
    def print(self, text: str = "") -> None:
        print(text, file=self.out)

    def print_error(self, message: str) -> None:
        print(f"ERROR: {message}", file=self.err)

    # -- commands ----------------------------------------------------------------------
    def run_command(self, line: str) -> Optional[int]:
        """Execute one backslash command; returns an exit code to quit, else None."""
        command = line.split(" ", 1)[0]
        if command in ("\\q", "\\quit"):
            return 0
        if command in ("\\help", "\\?"):
            self.print(
                "\\d            list datasets\n"
                "\\create NAME [LAYOUT]  create a dataset (open | vector | "
                "apax | amax)\n"
                "\\explain      toggle plan output (currently "
                f"{'on' if self.show_explain else 'off'})\n"
                "\\timing       toggle query timing (currently "
                f"{'on' if self.show_timing else 'off'})\n"
                "\\executor [NAME]  show or set the executor (currently "
                f"{self.executor}; {' | '.join(EXECUTORS)})\n"
                "\\trace [json] show the last query's span tree "
                "(json: raw trace export)\n"
                "\\metrics      dump Prometheus metrics text\n"
                "\\q            quit\n"
                "Statements end with ';' and may span lines.\n"
                "BEGIN; ... COMMIT; groups INSERT/DELETE statements into an\n"
                "atomic transaction (ROLLBACK discards; quitting rolls back)."
            )
        elif command == "\\d":
            listed = (self.client or self.store).list_datasets()
            if not listed:
                self.print("(no datasets)")
            for row in listed:
                self.print(
                    f"{row['name']}  layout={row['layout']}  records={row['records']}"
                )
        elif command == "\\create":
            parts = line.split()
            if len(parts) not in (2, 3):
                self.print_error("usage: \\create NAME [LAYOUT]")
                return 1 if self.batch else None
            name = parts[1]
            layout = parts[2] if len(parts) == 3 else "amax"
            try:
                if self.client is not None:
                    self.client.create_dataset(name, layout=layout)
                else:
                    self.store.create_dataset(name, layout=layout)
            except ReproError as error:
                self.print_error(str(error))
                return 1 if self.batch else None
            self.print(f"created dataset {name} (layout={layout})")
        elif command == "\\explain":
            self.show_explain = not self.show_explain
            self.print(f"explain is {'on' if self.show_explain else 'off'}")
        elif command == "\\timing":
            self.show_timing = not self.show_timing
            self.print(f"timing is {'on' if self.show_timing else 'off'}")
        elif command == "\\trace":
            rest = line.split(" ", 1)[1].strip() if " " in line else ""
            if self.last_trace is None:
                self.print("(no traced statement yet — run a query first)")
            elif rest == "json":
                self.print(json.dumps(self.last_trace, sort_keys=True))
            else:
                from .obs import render_trace_dict

                self.print(render_trace_dict(self.last_trace))
        elif command == "\\metrics":
            if self.client is not None:
                self.print(self.client.metrics().rstrip("\n"))
            else:
                self.print(self.store.metrics_text().rstrip("\n"))
        elif command == "\\executor":
            rest = line.split(" ", 1)[1].strip() if " " in line else ""
            try:
                self.executor = resolve_executor(rest or self.executor)
            except ReproError as exc:
                self.print_error(str(exc))
                return 1 if self.batch else None
            self.print(f"executor is {self.executor}")
        else:
            self.print_error(f"unknown command {command!r}; try \\help")
            return 1 if self.batch else None
        return None

    # -- statements --------------------------------------------------------------------
    def execute_statement(self, text: str):
        """Execute one statement of any kind, locally or over the wire.

        Returns the SELECT result rows (a list), or a status string for
        transaction-control and DML statements.  Raises
        :class:`~repro.model.errors.ReproError` subclasses on failure —
        transaction misuse (nested BEGIN, COMMIT/ROLLBACK outside a
        transaction) raises :class:`SqlppError` with the statement's exact
        line/column, in the same style as parse and bind errors; remote
        failures raise :class:`~repro.net.client.RemoteError` carrying the
        server-side message.
        """
        if self.client is not None:
            result = self.client.statement(
                text,
                executor=self.executor,
                explain=self.show_explain,
                trace=True,
                on_notice=lambda message: self.print(message),
            )
            if result.trace is not None:
                self.last_trace = result.trace
            explained = result.done.get("explain")
            if explained:
                self.print(explained)
            if result.done.get("result") == "rows":
                return result.rows
            return result.status
        outcome = self.session.execute(
            text, executor=self.executor, explain=self.show_explain
        )
        if outcome.trace is not None:
            self.last_trace = outcome.trace.to_dict()
        if outcome.explain_text is not None:
            self.print(outcome.explain_text)
        if outcome.rows is not None:
            return outcome.rows
        return outcome.status

    def run_statement(self, text: str) -> bool:
        """Execute and render one statement; returns False on error in batch mode."""
        try:
            start = time.perf_counter()
            result = self.execute_statement(text)
            elapsed = time.perf_counter() - start
        except ReproError as error:
            self.print_error(str(error))
            return not self.batch
        if isinstance(result, list):
            self.print(render_result_table(result))
        else:
            self.print(result)
        if self.show_timing:
            self.print(f"Time: {elapsed * 1000:.2f} ms")
        return True

    # -- the loop ----------------------------------------------------------------------
    def run(self, stream) -> int:
        """Drive the shell over ``stream``; returns the process exit code.

        A transaction still open when the session ends is rolled back — its
        buffered writes were never applied, so ending the session without a
        COMMIT is equivalent to a ROLLBACK.
        """
        try:
            return self._run_loop(stream)
        finally:
            if self.session is not None:
                notice = self.session.close()
                if notice:
                    self.print(notice)
            # Remotely the server rolls back and sends the same notice when
            # the connection closes; printing it raced the disconnect, so the
            # local close is silent.

    def _run_loop(self, stream) -> int:
        interactive = not self.batch
        if interactive:
            self.print(
                "repro SQL++ shell — statements end with ';', \\help for help."
            )
        buffer: List[str] = []
        while True:
            if interactive:
                self.out.write(CONTINUATION if buffer else PROMPT)
                self.out.flush()
            line = stream.readline()
            if not line:  # EOF
                if buffer:
                    self.print_error("unterminated statement at end of input")
                    return 1 if self.batch else 0
                return 0
            stripped = line.strip()
            if not buffer and not stripped:
                continue
            if not buffer and stripped.startswith("\\"):
                exit_code = self.run_command(stripped)
                if exit_code is not None:
                    return exit_code
                continue
            buffer.append(line)
            if statement_terminated("".join(buffer)):
                statement = "".join(buffer)
                buffer = []
                if not self.run_statement(statement):
                    return 1


def make_demo_store() -> Datastore:
    """An in-memory store with the ``gamers`` demo dataset loaded."""
    store = Datastore(StoreConfig(partitions_per_node=1))
    gamers = store.create_dataset("gamers", layout="amax")
    gamers.insert_many(DEMO_GAMERS)
    gamers.flush_all()
    return store


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shell", description="Interactive SQL++ shell."
    )
    parser.add_argument(
        "--store", metavar="DIR", help="open a durable datastore directory"
    )
    parser.add_argument(
        "--empty", action="store_true", help="start with an empty in-memory store"
    )
    parser.add_argument(
        "--batch",
        action="store_true",
        help="read statements from stdin without prompts; exit 1 on first error",
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="connect to a running repro server (engine or shard coordinator) "
        "instead of opening a local store",
    )
    args = parser.parse_args(argv)
    store = client = None
    if args.connect:
        if args.store or args.empty:
            parser.error("--connect is incompatible with --store/--empty")
        from .net.client import WireClient

        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            parser.error(f"--connect expects HOST:PORT, got {args.connect!r}")
        client = WireClient(host, int(port))
    elif args.store:
        store = Datastore.open(args.store)
    elif args.empty:
        store = Datastore(StoreConfig(partitions_per_node=1))
    else:
        store = make_demo_store()
    shell = Shell(store, batch=args.batch, client=client)
    if args.connect and not args.batch:
        role = client.server_hello.get("role", "engine")
        shell.print(f"connected to {args.connect} ({role})")
    if not args.batch and store is not None and not args.store and not args.empty:
        shell.print('demo dataset "gamers" loaded — try: SELECT COUNT(*) FROM gamers AS g;')
    try:
        return shell.run(sys.stdin)
    except KeyboardInterrupt:
        shell.print()
        return 130
    finally:
        if store is not None:
            store.close()
        if client is not None:
            client.close()


if __name__ == "__main__":
    sys.exit(main())
