"""Shared plumbing: work directory, statistics, /proc readers, reporting."""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env(workdir: Path) -> dict:
    """Environment for launcher processes: the checkout's sources, and a
    temp directory inside the work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(workdir / "tmp")
    return env


class WorkDir:
    """A private directory under ``.perfbench_work/`` removed at exit."""

    def __init__(self, workload: str) -> None:
        self.path = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        (self.path / "tmp").mkdir(parents=True)
        tempfile.tempdir = str(self.path / "tmp")
        self._counter = 0

    def fresh(self, stem: str) -> Path:
        self._counter += 1
        return self.path / f"{stem}-{self._counter}"

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = self.path.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


# -- statistics ---------------------------------------------------------------


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` (0..100) among ``n``."""
    return min(n, max(1, math.ceil(n * pct / 100.0)))


def _latency_summary(latencies_s, tail_pct: float) -> dict:
    """p50 and the workload's fixed tail percentile, in milliseconds."""
    ordered = sorted(latencies_s)
    n = len(ordered)
    tail_rank = _rank(n, tail_pct)
    return {
        "p50_ms": ordered[_rank(n, 50) - 1] * 1000.0,
        "tail_ms": ordered[tail_rank - 1] * 1000.0,
        "tail_pct": tail_pct,
        "n": n,
        "beyond_tail": n - tail_rank,
    }


# -- /proc --------------------------------------------------------------------


def proc_status_kb(pid: int, field: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (``VmHWM``, ``VmRSS``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def reset_peak_rss() -> None:
    """Restart ``VmHWM`` at the current RSS, so input generation done
    before the timed window does not count as the workload's peak."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: Optional[int] = None) -> float:
    return proc_status_kb(pid or os.getpid(), "VmHWM") / 1024.0


# -- environment record -------------------------------------------------------


def environment(backend: str, flush_policy: str) -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "backend": backend,
        "flush_policy": flush_policy,
    }


# -- launchers ----------------------------------------------------------------


class Launched:
    """A launcher subprocess speaking line-delimited JSON on stdin/stdout."""

    def __init__(self, script: str, args: list[str], workdir: Path) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / script), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(workdir),
            text=True,
            bufsize=1,
        )
        self.hello = self.read()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait(timeout=30)
            raise RuntimeError(f"launcher exited early with code {code}")
        return json.loads(line)

    def call(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.call("stop")
            except (OSError, RuntimeError, ValueError):
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def launcher_loop(handlers: dict) -> None:
    """Launcher side of :class:`Launched`: answer commands until ``stop``."""
    for line in sys.stdin:
        command = line.strip()
        if not command:
            continue
        result = handlers[command]()
        print(json.dumps(result), flush=True)
        if command == "stop":
            return


class Outcome:
    """What one workload run measured."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.end_to_end: dict = {}
        self.per_layer: dict = {}
        self.notes: dict = {}
        self.failures: list[str] = []

    def measured(self, setup_s: list, latencies_s: list, measured_s: float,
                 rss_mb: float, tail_pct: float) -> None:
        """Fill the end-to-end metrics from the untraced window."""
        lat = _latency_summary(latencies_s, tail_pct)
        self.notes["latency"] = lat
        self.end_to_end = {
            "setup_s": statistics.median(setup_s),
            "op_p50_ms": lat["p50_ms"],
            "op_tail_ms": lat["tail_ms"],
            "ops_per_s": len(latencies_s) / measured_s,
            "rss_mb": rss_mb,
        }

    def count(self, reason: Optional[str]) -> None:
        """Count one op; ``reason`` is its failure, or ``None``.  The first
        few reasons are kept for the report."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(reason)
