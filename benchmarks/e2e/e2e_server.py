"""The server under test as a subprocess: start, measure, signal, kill.

The benchmark drives the real ``python -m repro serve`` over loopback
TCP.  Each server runs in its own session (process group), so a
SIGKILL of the group takes a cluster router and its spawn-started
workers down together, like a machine crash takes a service.
"""

from __future__ import annotations

import os
import platform
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_LISTENING = re.compile(r"listening on [^\s:]+:(\d+)")

#: seconds a server gets to print its port (recovery included)
READY_TIMEOUT = 120.0

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server under test failed to start or to stop."""


def serve_command(args: List[str]) -> List[str]:
    """The server's command line; ``args`` follow host and port."""
    return [sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0", *args]


class ServerProcess:
    """One ``repro serve`` process tree.

    ``args`` are the ``serve`` options after the host and port; the
    server binds an ephemeral loopback port and reports it on stdout.
    ``trace_dir`` turns on the span hooks of ``trace_hook/``.
    """

    def __init__(
        self,
        root: Path,
        run_dir: Path,
        args: List[str],
        tag: str,
        trace_dir: Optional[Path] = None,
    ) -> None:
        self.root = root
        self.run_dir = run_dir
        self.args = list(args)
        self.tag = tag
        self.trace_dir = trace_dir
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.worker_pids: List[int] = []

    @property
    def command(self) -> List[str]:
        return serve_command(self.args)

    @property
    def pids(self) -> List[int]:
        """Every process of the server: the server (or router) first."""
        if self.process is None:
            return []
        return [self.process.pid, *self.worker_pids]

    def _env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env.pop("REPRO_FAILPOINTS", None)
        env.pop("REPRO_E2E_TRACE_DIR", None)
        paths = [str(self.root / "src")]
        if self.trace_dir is not None:
            paths.insert(0, str(Path(__file__).resolve().parent / "trace_hook"))
            env["REPRO_E2E_TRACE_DIR"] = str(self.trace_dir)
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        env["PYTHONUNBUFFERED"] = "1"
        return env

    def start(self) -> float:
        """Start the server; returns the seconds until it answers."""
        from repro.service.client import ServiceClient

        out_path = self.run_dir / f"{self.tag}.out"
        err_path = self.run_dir / f"{self.tag}.err"
        started = time.perf_counter()
        with open(out_path, "w") as out, open(err_path, "w") as err:
            self.process = subprocess.Popen(
                self.command, cwd=self.root, env=self._env(),
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        deadline = time.monotonic() + READY_TIMEOUT
        while True:
            match = _LISTENING.search(out_path.read_text())
            if match:
                break
            if self.process.poll() is not None:
                raise ServerError(
                    f"server {self.tag} exited with "
                    f"{self.process.returncode}: {_tail(err_path)}"
                )
            if time.monotonic() > deadline:
                self.kill()
                raise ServerError(f"server {self.tag} never became ready")
            time.sleep(0.002)
        self.port = int(match.group(1))
        with ServiceClient("127.0.0.1", self.port, timeout=60.0) as client:
            client.ping()
            ready = time.perf_counter() - started
            info = client.cluster_info()
        self.worker_pids = [
            int(row["pid"]) for row in info.get("per_worker", [])
            if row.get("pid")
        ]
        return ready

    # ------------------------------------------------------------------
    # measurements of the live process tree
    # ------------------------------------------------------------------
    def cpu_seconds(self) -> Dict[int, float]:
        """User + system CPU seconds consumed so far, per pid."""
        return {pid: _cpu_seconds(pid) for pid in self.pids}

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) summed over the tree, MiB."""
        return sum(_status_kib(pid, "VmHWM") for pid in self.pids) / 1024.0

    def dump_spans(self, timeout: float = 60.0) -> None:
        """Ask every traced process to write its spans; wait for them."""
        if self.trace_dir is None:
            return
        files = []
        for pid in self.pids:
            path = self.trace_dir / f"spans-{pid}.jsonl"
            if path.exists():
                path.unlink()
            os.kill(pid, signal.SIGUSR1)
            files.append(path)
        deadline = time.monotonic() + timeout
        while not all(path.exists() for path in files):
            if time.monotonic() > deadline:
                raise ServerError(f"server {self.tag} wrote no spans")
            time.sleep(0.01)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """SIGKILL the whole process tree and wait until it is gone."""
        if self.process is None:
            return
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        _wait_gone(self.worker_pids)
        self.process = None

    def stop(self) -> None:
        """Shut the server down through the protocol, else kill it."""
        from repro.service.client import ServiceClient

        if self.process is None:
            return
        try:
            with ServiceClient("127.0.0.1", self.port, timeout=30.0) as client:
                client.shutdown_server()
            self.process.wait(timeout=30.0)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()


def _tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text().strip().splitlines()[-lines:])
    except OSError:
        return ""


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    # the command name is parenthesized and may hold spaces
    return text[text.rindex(")") + 2:].split()


def _cpu_seconds(pid: int) -> float:
    try:
        fields = _stat_fields(pid)
    except OSError:
        return 0.0
    # fields[0] is the state; utime and stime are stat fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def _status_kib(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _wait_gone(pids: List[int], timeout: float = 30.0) -> None:
    """Wait until each pid has exited (a zombie counts as exited)."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                if _stat_fields(pid)[0] in ("Z", "X"):
                    break
            except OSError:
                break
            time.sleep(0.01)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def filesystem_type(path: Path) -> str:
    """The filesystem type holding ``path``, from the mount table."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                prefix = mount.rstrip("/") + "/"
                if (target == mount or target.startswith(prefix)) and len(
                    mount
                ) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def provenance(root: Path) -> Dict[str, object]:
    """Where a number was measured: commit, interpreter, host."""
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
    }
