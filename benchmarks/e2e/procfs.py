"""Process memory and CPU counters from ``/proc`` (Linux)."""

from __future__ import annotations

import os


def peak_rss_mb(pid: str = "self") -> float:
    """High-water resident set size (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident size."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds the process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may contain spaces; fields resume after ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")
