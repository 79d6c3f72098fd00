"""Host-speed yardstick: a small fixed kernel timed every 50 ms in a helper process.

The shared host this benchmark runs on changes speed by tens of percent,
in phases of a few seconds, and the share of slow phases drifts over
minutes. Every process slows alike, so a unit of work timed at two moments
can differ by half without any change to the program. The helper process
times a fixed kernel all through the measurement, on the other CPU, at
about 2% duty; dividing a unit's wall time by the host speed the helper saw
during that unit gives the time it would have taken on a host of fixed
speed.

    python3 benchmarks/hostspeed.py <samples-file>    # the helper; stop it with SIGTERM
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.05
_TABLE = {i: (i * 7919 % 1000) / 1000.0 for i in range(1000)}
_IDS = np.arange(20)


def kernel() -> float:
    """Dict reads and small numpy calls, like the library's inner loops.
    It belongs to the benchmark and must never change."""
    total = 0.0
    for rep in range(100):
        base = rep * 31
        row = np.fromiter((_TABLE.get((base + j) % 1000, 0.0) for j in range(50)), dtype=np.float64, count=50)
        order = np.lexsort((_IDS, -row[:20]))
        total += float(row[order[0]])
    return total


def _sample(path: str) -> None:
    parent = os.getppid()
    kernel()  # the first call pays one-time costs
    with open(path, "w", buffering=1, encoding="utf-8") as fh:
        while os.getppid() == parent:  # exit if orphaned
            start = time.perf_counter()
            kernel()
            fh.write(f"{start!r} {time.perf_counter()!r}\n")
            time.sleep(PERIOD_S)


class HostSpeed:
    """Runs the helper for the duration of a ``with`` block.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so the
    helper's timestamps compare with the caller's.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> HostSpeed:
        self.path.unlink(missing_ok=True)
        self._proc = subprocess.Popen([sys.executable, __file__, str(self.path)])
        deadline = time.monotonic() + 60
        while not (self.path.is_file() and self.path.stat().st_size > 0):
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self._stop()
                raise RuntimeError("host-speed helper did not start")
            time.sleep(0.01)
        return self

    def _stop(self) -> None:
        self._proc.terminate()
        self._proc.wait(timeout=30)

    def __exit__(self, *exc) -> None:
        self._stop()
        for line in self.path.read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if len(parts) == 2:  # the last line may be cut short by the stop
                self.samples.append((float(parts[0]), float(parts[1])))

    def speed(self, start: float, end: float) -> float:
        """Mean kernel calls per second over samples that began in
        [start, end]; the nearest sample if none did."""
        inside = [1.0 / (e - s) for s, e in self.samples if start <= s <= end]
        if inside:
            return sum(inside) / len(inside)
        middle = (start + end) / 2
        s, e = min(self.samples, key=lambda se: abs(se[0] - middle))
        return 1.0 / (e - s)


if __name__ == "__main__":
    _sample(sys.argv[1])
