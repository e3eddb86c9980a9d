"""Op times at a reference host speed.

The benchmark runs on a few cores of a shared host. Its speed for one thread
of work swings by up to 2x over seconds to minutes: busy neighbours slow the
core itself, CPU time and wall time alike, so neither clock cancels it. A
fixed calibration kernel timed at the same moments slows the same way, if it
does the same kind of work: contention slows interpreter-bound text handling
more than numpy arithmetic on a small field, and that more than a stencil over
a field that spills the L2 cache. So each workload has its own kernel, the
benchmark's own code (numpy and the standard library only), built like the
work that dominates its op:

  relax-33    ``stencil``: one Jacobi update (neighbour mean) of a 5 x 33^3 field, like
              the Jacobi sweeps of the initializer
  relax-fine  ``small_field``: stencils and pointwise updates on a 5 x 12^3
              field, like the bulk kernels of the flow at 17^3
  inspect     ``text``: parsing the next chunk of 4 MB of float text, float
              repr, JSON and a per-value loop, like the field reader, the
              triangles JSON and the moment loop

While an op runs, ``Sampler`` interrupts it every ``PERIOD_S`` of wall time
(``SIGALRM``) and times one kernel call. The samples are evenly spaced in wall
time, so the op's time at reference speed is

    (wall time - time spent in the kernel) * mean(reference / sample)

where ``reference`` is a fixed constant per kernel, about its time on the
2-vCPU Xeon VM the benchmark was written on. The kernels touch none of the
program's state; the outputs of sampled ops are checked byte for byte against
unsampled ones.
"""

from __future__ import annotations

import functools
import json
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
BURST = 100  # kernel calls that calibrate set-up, which runs before the sampler can

_SMALL = np.random.default_rng(0).standard_normal((5, 12, 12, 12))
_LARGE = np.random.default_rng(1).standard_normal((5, 33, 33, 33))
TEXT_CHUNK = 1500  # characters, about 70 floats


def small_field() -> None:
    x = _SMALL
    for _ in range(6):
        lap = (x[:, 2:, 1:-1, 1:-1] + x[:, :-2, 1:-1, 1:-1] + x[:, 1:-1, 2:, 1:-1]
               + x[:, 1:-1, :-2, 1:-1] + x[:, 1:-1, 1:-1, 2:] + x[:, 1:-1, 1:-1, :-2]
               - 6.0 * x[:, 1:-1, 1:-1, 1:-1])
        n = np.einsum("i...,i...->...", x, x)
        x = 0.5 * (x + x * n / (1.0 + n)) + 1e-3 * lap.mean()
    s = 0.0
    for i in range(300):
        s += i * 0.5


def stencil() -> None:
    x = _LARGE
    (x[:, 2:, 1:-1, 1:-1] + x[:, :-2, 1:-1, 1:-1] + x[:, 1:-1, 2:, 1:-1]
     + x[:, 1:-1, :-2, 1:-1] + x[:, 1:-1, 1:-1, 2:] + x[:, 1:-1, 1:-1, :-2]) / 6.0


@functools.cache
def _text() -> str:
    """4 MB of float text, read through in chunks like a large input file."""
    return " ".join(repr(v) for v in np.random.default_rng(2).standard_normal(200_000).tolist())


_cursor = 0


def text() -> None:
    global _cursor
    buf = _text()
    chunk = buf[_cursor:_cursor + TEXT_CHUNK]
    _cursor = (_cursor + TEXT_CHUNK) % (len(buf) - TEXT_CHUNK)
    values = [float(t) for t in chunk.split()[1:-1]]
    " ".join(repr(v) for v in values)
    json.dumps([{"t": v, "s": [v, 2.0 * v]} for v in values])
    acc = 0.0
    for v in values:
        acc += math.exp(-v * v)


# workload -> (kernel, its time in seconds at reference speed)
KERNELS = {
    "relax-33": (stencil, 1.5e-3),
    "relax-fine": (small_field, 1.1e-3),
    "inspect": (text, 0.5e-3),
}


class Sampler:
    """Times the workload's kernel every PERIOD_S of wall time while active (main thread only)."""

    def __init__(self, workload: str):
        self._kernel, self._reference = KERNELS[workload]
        self._kernel()  # builds the kernel's input outside any timing
        self.samples: list[float] = []

    def _timed_kernel(self) -> float:
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(self._timed_kernel())

    def __enter__(self) -> "Sampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def burst(self) -> list[float]:
        """``BURST`` back-to-back kernel times."""
        return [self._timed_kernel() for _ in range(BURST)]

    def speed_factor(self, samples: list[float]) -> float:
        """Mean of reference / sample: below 1 when the host ran slower than reference."""
        return statistics.fmean(self._reference / s for s in samples)

    def reference_s(self, wall_s: float) -> float:
        """Reference-speed time of ``wall_s`` seconds measured while active."""
        return (wall_s - sum(self.samples)) * self.speed_factor(self.samples)
