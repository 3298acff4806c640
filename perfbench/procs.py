"""Linux /proc helpers: host facts, per-process memory and CPU, clean-up.

Standard library only, so ``run.py`` can use it without importing Ray.
"""

from __future__ import annotations

import os
import signal
import threading
import time

#: environment marker every process of one benchmark checkout inherits;
#: clean-up finds Ray workers by it even after their parent was killed
MARKER = "PERFBENCH_CHECKOUT"

_PAGE = os.sysconf("SC_PAGE_SIZE")
_TICK = os.sysconf("SC_CLK_TCK")


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return None


def _pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def physical_cores() -> int:
    """Distinct (physical id, core id) pairs; os.cpu_count() if unlisted."""
    seen, phys = set(), "0"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        key, _, val = line.partition(":")
        key = key.strip()
        if key == "physical id":
            phys = val.strip()
        elif key == "core id":
            seen.add((phys, val.strip()))
    return len(seen) or (os.cpu_count() or 1)


def cgroup_cpu_limit() -> float | None:
    """CPU quota of the process's cgroup (v2 cpu.max or v1 cfs), if any."""
    raw = _read("/sys/fs/cgroup/cpu.max")
    if raw:
        quota, period = raw.split()[:2]
        return None if quota == "max" else int(quota) / int(period)
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota and period and int(quota) > 0:
        return int(quota) / int(period)
    return None


def cores_available() -> int:
    """Cores this process may use, as ``nproc`` counts them (affinity mask,
    OMP_NUM_THREADS / OMP_THREAD_LIMIT), further capped by a cgroup quota
    and by the physical core count, never below 1."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        val = os.environ.get(var, "").split(",")[0]
        if val.isdigit() and int(val) > 0:
            n = min(n, int(val))
    quota = cgroup_cpu_limit()
    if quota is not None:
        n = min(n, max(1, int(quota)))
    return max(1, min(n, physical_cores()))


def total_ram_bytes() -> int:
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) * 1024
    return 0


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole host from /proc/stat."""
    f = [int(x) for x in (_read("/proc/stat") or "cpu 0").splitlines()[0].split()[1:9]]
    f += [0] * (8 - len(f))
    return f[7], sum(f)


def host_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "physical_cores": physical_cores(),
        "cgroup_cpu_limit": cgroup_cpu_limit(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "cores_available": cores_available(),
        "total_ram_mb": round(total_ram_bytes() / 2**20),
    }


def _stat(pid: int) -> list[str] | None:
    raw = _read(f"/proc/{pid}/stat")
    if raw is None:
        return None
    # field 2 (comm) may hold spaces; everything after its ')' splits cleanly
    return raw[raw.rfind(")") + 2 :].split()


def rss_bytes(pids: list[int]) -> int:
    total = 0
    for pid in pids:
        st = _stat(pid)
        if st:
            total += int(st[21]) * _PAGE
    return total


class CpuLedger:
    """CPU seconds a changing set of processes has used. Each process's
    last user+system reading while alive is kept, so the total never drops
    when a process exits (a parent's count of reaped children cannot do
    that for a worker that init reaps). What a process uses after its last
    reading is missed, so callers read often."""

    def __init__(self) -> None:
        self._ticks: dict[tuple[int, str], int] = {}  # (pid, start time) -> ticks
        self._lock = threading.Lock()

    def update(self, pids: list[int]) -> None:
        for pid in pids:
            st = _stat(pid)
            if st is None or st[0] in ("Z", "X"):
                continue
            key, ticks = (pid, st[19]), int(st[11]) + int(st[12])
            with self._lock:
                if ticks > self._ticks.get(key, -1):
                    self._ticks[key] = ticks

    def seconds(self, exclude: int) -> float:
        with self._lock:
            return sum(t for (pid, _), t in self._ticks.items() if pid != exclude) / _TICK

    def processes(self) -> int:
        return len(self._ticks)


def marked(checkout: str) -> list[int]:
    """Live processes (other than this one) started for ``checkout``."""
    needle = f"{MARKER}={checkout}".encode()
    me = os.getpid()
    out = []
    for pid in _pids():
        if pid == me:
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as f:
                env = f.read().split(b"\0")
        except OSError:
            continue
        if needle in env:
            out.append(pid)
    return out


def _zombie(pid: int) -> bool:
    st = _stat(pid)
    return st is None or st[0] in ("Z", "X")


def kill_all(pids: list[int], grace_s: float = 5.0) -> None:
    """SIGTERM, then SIGKILL after ``grace_s``, and wait until each is gone."""
    for sig, wait in ((signal.SIGTERM, grace_s), (signal.SIGKILL, 30.0)):
        live = [p for p in pids if not _zombie(p)]
        if not live:
            return
        for pid in live:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + wait
        while time.monotonic() < deadline:
            if all(_zombie(p) for p in live):
                break
            time.sleep(0.05)
