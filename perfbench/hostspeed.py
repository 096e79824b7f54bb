"""The host's current speed, read from a fixed reference kernel.

The benchmark shares a few cores of a host with other tenants, and the host's
speed drifts for minutes at a time.  Over five minutes of back-to-back
compile-m4 passes in one process, a pass took from 1.35 s to 3.3 s with no
other change, and the median of the passes in a 20-second window moved by
0.24 of its median between the first and third quartile of twelve windows.

The reference kernel slows down with the host.  It mixes the kinds of work a
benchmark pass does: a pure-Python loop, a streaming numpy pass over 64 MB and
an argsort of half a million numbers.  Each timed call is divided by the
kernel's time measured around it and multiplied by ``NOMINAL_S``, its median
over those five minutes.  So a corrected time reads in seconds at that
reference speed.  In the same series, the corrected window medians moved by
0.053 between quartiles.  The kernel never calls fastcu, so a change to the
program cannot move it.

The kernel runs in a helper process so that its arrays stay out of the
benchmark's peak RSS.  The helper inherits the benchmark's CPU affinity, and
``run.py`` pins itself to one CPU, so the kernel times the CPU the program
runs on.  The helper answers one sample per line on its standard input and
exits when that input closes, also when the benchmark dies without closing it.
"""

from __future__ import annotations

import subprocess
import sys
import time

NOMINAL_S = 0.162   # median kernel time on the 2-vCPU machine of the README baseline
HELPER_TIMEOUT_S = 30

_STREAM = 4_000_000   # float64 elements per array: 32 MB, past the caches


def _kernel(a, b) -> float:
    import numpy as np

    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    for _ in range(10):
        np.multiply(a, 1.0001, out=b)
        b.sum()
    np.argsort(np.random.default_rng(3).random(500_000))
    return time.perf_counter() - t0


def _serve() -> None:
    import numpy as np

    a = np.random.default_rng(0).random(_STREAM)
    b = np.empty_like(a)
    _kernel(a, b)                       # warm-up: page faults, first calls
    for _ in sys.stdin:
        print(repr(_kernel(a, b)), flush=True)


class HostSpeed:
    """The helper process; use as a context manager, which stops it."""

    def __init__(self) -> None:
        self._helper = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        """Seconds the reference kernel takes now."""
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        line = self._helper.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed helper exited with code {self._helper.wait()}")
        return float(line)

    def close(self) -> None:
        helper = self._helper
        if helper.stdin.closed:
            return
        helper.stdin.close()
        try:
            helper.wait(timeout=HELPER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            helper.kill()
            helper.wait()
        helper.stdout.close()

    def __enter__(self) -> HostSpeed:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def corrected(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two kernel samples, at the reference speed."""
    return seconds * NOMINAL_S / ((before + after) / 2.0)


if __name__ == "__main__":
    _serve()
