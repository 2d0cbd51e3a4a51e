"""Spawn, crash, restart and reap the server processes of one benchmark cluster.

A cluster is N shard engines (``python -m repro.server --store DIR``) plus one
coordinator (``--shard-addrs``).  Every process runs in its own process group
and is reaped on every exit path: ``stop()`` is idempotent, registered with
``atexit`` for the lifetime of the cluster, and the callers hold it in a
``finally``.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # The command name (field 2) may contain spaces; split after it.
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii", errors="replace") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Cluster:
    """The server side of one workload run, rooted at ``root``.

    ``roles`` are ``shard-0`` … ``shard-N`` and ``coordinator``.  CPU seconds
    accumulate and peak RSS is kept per role across ``crash()`` →
    ``start()`` cycles, so a restart does not reset what the run has used.
    """

    def __init__(
        self,
        root: Path,
        source_root: Path,
        store_config: dict,
        shards: int = 2,
        startup_timeout: float = 60.0,
    ) -> None:
        self.root = Path(root)
        self.shards = shards
        self.store_config = dict(store_config)
        self.startup_timeout = startup_timeout
        self.processes: Dict[str, subprocess.Popen] = {}
        self.addresses: Dict[str, Tuple[str, int]] = {}
        self._cpu_retired: Dict[str, float] = {}
        self._rss_peak: Dict[str, float] = {}
        self._env = dict(os.environ)
        existing = self._env.get("PYTHONPATH")
        self._env["PYTHONPATH"] = (
            str(source_root) if not existing else f"{source_root}{os.pathsep}{existing}"
        )
        self.root.mkdir(parents=True, exist_ok=True)
        self._log = open(self.root / "servers.log", "ab")
        atexit.register(self.stop)

    # -- layout ------------------------------------------------------------------------
    def shard_roles(self) -> List[str]:
        return [f"shard-{index}" for index in range(self.shards)]

    def shard_dir(self, role: str) -> Path:
        return self.root / role

    def _ready_file(self, role: str) -> Path:
        return self.root / f"{role}.ready.json"

    # -- start -------------------------------------------------------------------------
    def start(self) -> None:
        """Start (or, over existing store dirs, recover) shards then coordinator."""
        try:
            for role in self.shard_roles():
                self._spawn(
                    role,
                    [
                        "--store",
                        str(self.shard_dir(role)),
                        "--config-json",
                        json.dumps(self.store_config),
                    ],
                )
            self._await_ready(self.shard_roles())
            addresses = ",".join(
                f"{host}:{port}"
                for host, port in (self.addresses[r] for r in self.shard_roles())
            )
            self._spawn("coordinator", ["--shard-addrs", addresses])
            self._await_ready(["coordinator"])
        except BaseException:
            self.stop()
            raise

    def _spawn(self, role: str, extra: List[str]) -> None:
        ready = self._ready_file(role)
        if ready.exists():
            ready.unlink()
        argv = [
            sys.executable,
            "-m",
            "repro.server",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--ready-file",
            str(ready),
            *extra,
        ]
        self.processes[role] = subprocess.Popen(
            argv,
            env=self._env,
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=self._log,
            start_new_session=True,  # own process group: killpg reaches helpers
        )

    def _await_ready(self, roles: List[str]) -> None:
        deadline = time.monotonic() + self.startup_timeout
        pending = list(roles)
        while pending:
            for role in list(pending):
                process = self.processes[role]
                if process.poll() is not None:
                    raise RuntimeError(
                        f"{role} exited with status {process.returncode} during "
                        f"startup (see {self.root / 'servers.log'})"
                    )
                try:
                    payload = json.loads(self._ready_file(role).read_text())
                except (OSError, ValueError):
                    continue  # not written yet
                self.addresses[role] = (payload["host"], int(payload["port"]))
                pending.remove(role)
            if pending:
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"{pending} not ready within {self.startup_timeout}s"
                    )
                time.sleep(0.005)

    # -- stop --------------------------------------------------------------------------
    def _retire(self, role: str, sig: int, grace: float) -> None:
        process = self.processes.pop(role, None)
        self.addresses.pop(role, None)
        if process is None:
            return
        if process.poll() is None:
            self._sample(role, process.pid)
            try:
                os.killpg(process.pid, sig)
            except ProcessLookupError:
                pass
            try:
                process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                process.wait()
        else:
            process.wait()

    def crash(self) -> None:
        """``kill -9`` every server process: no drain, no checkpoint."""
        for role in list(self.processes):
            self._retire(role, signal.SIGKILL, grace=10.0)

    def stop(self) -> None:
        """Graceful stop (SIGTERM, then SIGKILL stragglers); safe to repeat."""
        for role in ["coordinator", *self.shard_roles()]:
            self._retire(role, signal.SIGTERM, grace=20.0)
        if not self._log.closed:
            self._log.close()
        atexit.unregister(self.stop)

    # -- /proc -------------------------------------------------------------------------
    def _sample(self, role: str, pid: int) -> None:
        """Fold a process's final CPU and peak RSS into the per-role totals."""
        try:
            self._cpu_retired[role] = self._cpu_retired.get(
                role, 0.0
            ) + process_cpu_seconds(pid)
            self._rss_peak[role] = max(
                self._rss_peak.get(role, 0.0), process_peak_rss_mb(pid)
            )
        except (OSError, IndexError, ValueError):
            pass  # already gone: nothing more to read

    def cpu_seconds(self) -> Dict[str, float]:
        """CPU seconds used so far per role, including retired incarnations."""
        usage = dict(self._cpu_retired)
        for role, process in self.processes.items():
            try:
                usage[role] = usage.get(role, 0.0) + process_cpu_seconds(process.pid)
            except (OSError, IndexError, ValueError):
                pass
        return usage

    def peak_rss_mb(self) -> float:
        """Σ over roles of the highest ``VmHWM`` any incarnation reached."""
        peaks = dict(self._rss_peak)
        for role, process in self.processes.items():
            try:
                peaks[role] = max(peaks.get(role, 0.0), process_peak_rss_mb(process.pid))
            except OSError:
                pass
        return sum(peaks.values())

    # -- disk --------------------------------------------------------------------------
    def disk_bytes(self) -> int:
        """Bytes under the shard store directories (components, manifests, WAL)."""
        total = 0
        for role in self.shard_roles():
            for directory, _, files in os.walk(self.shard_dir(role)):
                for name in files:
                    try:
                        total += os.path.getsize(os.path.join(directory, name))
                    except OSError:
                        pass  # removed by a merge between listing and stat
        return total

    def effective_config(self) -> Optional[dict]:
        """The config the program persisted, read back from ``datastore.json``."""
        try:
            manifest = json.loads(
                (self.shard_dir("shard-0") / "datastore.json").read_text()
            )
        except (OSError, ValueError):
            return None
        config = dict(manifest.get("config") or {})
        config.pop("storage_directory", None)  # where, not how: differs per run
        return config
