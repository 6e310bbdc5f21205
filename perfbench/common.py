"""Shared helpers: paths, statistics, /proc readings, the environment stamp,
and the serving-process lifecycle used by the served workloads."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where runs leave their artifacts (ledgers, result records); gitignored.
OUT_DIR = os.path.join(ROOT, ".perfbench")

clock = time.perf_counter


class BenchError(RuntimeError):
    """A run could not complete, or its outputs were wrong."""


def ensure_source_tree() -> None:
    """Make ``repro`` importable from the checkout, or fail loudly."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no repro package under {SRC!r}: run from a full checkout")
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def child_env() -> Dict[str, str]:
    """Environment for benchmark child processes: the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([ROOT, SRC])
    env["PYTHONHASHSEED"] = "0"
    return env


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return float(ordered[index])


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# -- host speed -------------------------------------------------------------------
#
# A shared virtual machine drifts in speed for all code alike (by +-30% over
# seconds on the 2-vCPU Xeon VM the bounds in BENCHMARK.json were set on).  Every measured segment is therefore
# bracketed by a fixed probe loop that does not touch the code under test,
# and each time is scaled by the host's speed relative to nominal (each
# rate by its inverse).  A code change moves the scaled figures exactly as
# it moves the raw ones; the host's drift mostly cancels.  Run records keep
# the speed factors next to the figures.

#: One probe: a fixed pure-Python loop, independent of the code under test.
PROBE_LOOPS = 200_000
#: The probe's duration at nominal speed (its median on the 2-vCPU Xeon VM
#: the bounds in BENCHMARK.json were set on).
NOMINAL_PROBE_S = 0.017


def host_speed() -> float:
    """The host's speed now relative to nominal (>1: faster), from the
    median of three probes."""
    times = []
    for _ in range(3):
        begin = clock()
        total = 0
        for value in range(PROBE_LOOPS):
            total += value * value
        times.append(clock() - begin)
    return NOMINAL_PROBE_S / median(times)


# -- placement ----------------------------------------------------------------


def pin_processes(shared: List[int], alone: List[int]) -> Optional[int]:
    """Put this process and ``shared`` on the first usable vCPU and
    ``alone`` on the last; return the latter (``None``, and nothing pinned,
    with fewer than two vCPUs).  Left to the scheduler, processes that wake
    one another over sockets share one vCPU for whole runs, or not, at
    random: on the 2-vCPU VM the bounds were set on, the serving process's
    share of a vCPU, and with it the rates, moved by a third from run to
    run with the placement."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    for pid in [0, *shared]:
        os.sched_setaffinity(pid, cpus[:1])
    for pid in alone:
        os.sched_setaffinity(pid, cpus[-1:])
    return cpus[-1]


# -- /proc readings -----------------------------------------------------------


def _status_field(pid: int, field: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed VmHWM (peak resident set) of ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        total_kb += _status_field(pid, "VmHWM") or 0
    return total_kb / 1024.0


def cpu_seconds(pids: Iterable[int]) -> float:
    """Summed user+system CPU time of ``pids`` so far."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


# -- environment stamp --------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD of the checkout read from ``.git`` directly (no git process)."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` (path and bytes), sorted by path.

    Identifies the code under test where the checkout carries no git
    metadata."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def environment_stamp(method: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "cpu_usable": usable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "source_digest": source_digest(),
        "method": method,
    }


def write_artifact(name: str, payload: Dict[str, Any]) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# -- serving processes --------------------------------------------------------


class ServerProcess:
    """A serving process started from ``perfbench.serve_main``.

    The child writes a JSON ready-file (ports, pids) once it listens;
    :meth:`stop` asks it to shut down over the wire, then waits, and kills
    it only if it does not exit in time.
    """

    def __init__(self, mode: str, trace: bool, tag: str):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.ready_path = os.path.join(OUT_DIR, f"ready-{tag}-{os.getpid()}.json")
        if os.path.exists(self.ready_path):
            os.remove(self.ready_path)
        argv = [
            sys.executable, "-m", "perfbench.serve_main",
            "--mode", mode, "--ready", self.ready_path,
        ]
        if trace:
            argv.append("--trace")
        # The child's stdout goes to our stderr: our stdout ends with the result.
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=sys.stderr)
        self.info: Dict[str, Any] = {}

    def wait_ready(self, timeout: float = 60.0) -> Dict[str, Any]:
        deadline = clock() + timeout
        while clock() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited early with code {self.proc.returncode}")
            if os.path.exists(self.ready_path):
                with open(self.ready_path) as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    self.info = json.loads(text)
                    return self.info
            time.sleep(0.01)
        self.proc.kill()
        self.proc.wait(timeout=10)
        raise BenchError("server did not become ready in time")

    @property
    def port(self) -> int:
        return int(self.info["port"])

    @property
    def pids(self) -> List[int]:
        return [int(p) for p in self.info.get("pids", [self.proc.pid])]

    def stop(self, timeout: float = 20.0) -> None:
        if self.proc.poll() is None and self.info:
            try:
                import socket

                with socket.create_connection(("127.0.0.1", self.port), timeout=5) as sock:
                    sock.sendall(b'{"id": 0, "op": "shutdown"}\n')
                    sock.settimeout(timeout)
                    sock.recv(4096)
            except OSError:
                pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
            # A killed router cannot reap its forked worker: do it here.
            for pid in self.pids[1:]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        if os.path.exists(self.ready_path):
            os.remove(self.ready_path)
