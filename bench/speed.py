"""Machine-speed reference for the end-to-end timings.

The shared virtual machine this benchmark was built on changes speed in
phases that last from seconds to hours: the same pass can take 0.58 s in
one minute and 0.78 s in the next (see README.md, "Measured noise").  A
fixed reference kernel, which does not touch cavmech, is therefore run
every ``INTERVAL_S`` of wall time while a pass is timed.  Its mean CPU
time over the pass tells how fast the machine was during that pass, and
the pass time is rescaled to a machine on which the kernel takes
``REFERENCE_S``:

    normalised = (measured - time spent in the kernel) * REFERENCE_S / kernel CPU time

The kernel is interpreter-bound (JSON round trip, sort, dict
comprehension, string formatting).  Of the kernels tried, it tracked the
slow phases of all three workloads best, including the BLAS-heavy
``transfer-full``.  Its CPU time, not its wall time, is the speed figure,
so time lost waiting for a processor (for example to spinning BLAS
threads) still shows in the normalised ``wall_s``.

The module uses only the standard library, so the set-up probe can start
sampling before numpy and cavmech are imported.
"""

from __future__ import annotations

import json
import random
import signal
import time
from dataclasses import dataclass

INTERVAL_S = 0.02
REFERENCE_S = 500e-6

_rng = random.Random(12345)
_DOC = {f"k{i}": [i, i / 3, f"v{i}", {"a": i}] for i in range(60)}
_FLOATS = [_rng.gauss(0.0, 1.0) for _ in range(300)]


def kernel() -> None:
    """About 0.5 ms of interpreter-bound work on this machine."""
    doc = json.loads(json.dumps(_DOC))
    sorted(_FLOATS)
    {k: v[1] for k, v in doc.items() if v[0] % 2}
    "".join(f"{x:.3f}" for x in _FLOATS[:60])


@dataclass
class Speed:
    """Kernel runs during one timed interval."""

    n: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    after_cpu: float = 0.0

    def normalise(self, wall: float, cpu: float) -> tuple[float, float]:
        """(wall, cpu) of the interval without the kernel's share, at reference speed."""
        kernel_cpu = self.cpu / self.n if self.n else self.after_cpu
        k = REFERENCE_S / kernel_cpu
        return (wall - self.wall) * k, (cpu - self.cpu) * k


class Sampler:
    """Runs :func:`kernel` on SIGALRM every ``INTERVAL_S`` while active.

    Python runs signal handlers in the main thread between bytecodes, so
    the kernel interleaves with the timed work.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.speed = Speed()
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            c0, t0 = time.thread_time(), time.perf_counter()
            kernel()
            self.speed.wall += time.perf_counter() - t0
            self.speed.cpu += time.thread_time() - c0
            self.speed.n += 1
        finally:
            self._busy = False

    def __enter__(self) -> Speed:
        self.speed = Speed()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self.speed

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def settle(speed: Speed) -> Speed:
    """Give an interval too short to see a tick one kernel run of its own,
    made after the interval ended, so none of it is inside the timing."""
    if not speed.n:
        c0 = time.thread_time()
        kernel()
        speed.after_cpu = time.thread_time() - c0
    return speed
