"""The host's speed, sampled while a measured interval runs, and times rescaled by it.

On the reference machine (README: a 2-CPU virtual machine on a shared host)
the host's speed moves by up to 1.8x, in stretches of a few seconds to over a
minute; process CPU time moves with wall time, so the CPU itself runs slower.
A round timed at a slow moment reads slow whatever the program does.

:func:`reference_chunk` is a fixed mix of the kinds of work the scenarios do,
with fixed inputs, made without noisylab. :class:`SpeedSampler` runs a chunk
from a ``SIGALRM`` handler every ``PERIOD_S`` seconds of wall time while an
interval runs, and once just before and once just after it, and records how
long each chunk took. The interval's own time is its wall time minus the time
spent in the handler's chunks; :meth:`SpeedSampler.at_reference_speed`
rescales that by the chunks' mean time to the host speed at which a chunk
takes its reference time.

A change to noisylab moves the interval's own time and not the chunk, so it
moves the rescaled figure by the same share as the raw one.

This module imports numpy only when a numpy chunk first runs, so that the
set-up measurement (``import_noisylab.py``) can use it before ``noisylab``
and numpy are imported.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import Callable

# Each chunk's time at reference host speed: about its time on the reference
# machine's fast stretches, between scenario calls (``reference_chunk``) or
# during an import, whose cold caches slow it (``python_chunk``). Rescaled
# figures are in seconds at that speed.
REF_PYTHON_CHUNK_S = 0.002
REF_CHUNK_S = 0.0033
# Wall time between chunks: short beside a round, so the chunks follow the
# host's changes within it, and long beside a chunk, so they take 7-16% of it.
PERIOD_S = 0.05

_arrays: dict[str, object] = {}


def python_chunk() -> float:
    """Plain Python integer and dict operations, and ``Fraction`` arithmetic
    as in the ICE learner; returns its wall time."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(8000):
        acc += (i * i) % 7
        table[i % 97] = acc
    f = Fraction(0)
    for i in range(1, 250):
        f += Fraction(i % 7 + 1, 97 + i % 5)
    return time.perf_counter() - t0


def _numpy_part() -> None:
    import numpy as np

    if not _arrays:
        rng = np.random.default_rng(0)
        _arrays["m"] = rng.integers(0, 2, size=(64, 512), dtype=np.int64)
        _arrays["signs"] = rng.integers(-1, 2, size=(32, 24)).astype(np.int8)
    m, signs = _arrays["m"], _arrays["signs"]
    acc = 0
    for row in signs:  # many calls on tiny arrays, as in the code layers
        x = np.asarray(row, dtype=np.int8)
        acc += bool(np.isin(x, (-1, 1)).all()) + int(np.packbits(x > 0)[0])
        acc += int(np.where(x > 0, 1, -1)[0])
    x = m[0]
    for _ in range(30):  # integer matrix-vector products
        y = (m @ x) & 1
        x = np.where(np.resize(y, 512) > 0, x, 1 - x)


def reference_chunk() -> float:
    """:func:`python_chunk` and the numpy part, in about equal shares, since
    the host's slow stretches do not slow every kind of work alike; returns
    its wall time."""
    t0 = time.perf_counter()
    python_chunk()
    _numpy_part()
    return time.perf_counter() - t0


class SpeedSampler:
    """``with SpeedSampler() as s:`` around one measured interval.

    ``s.wall_s`` is the interval's wall time, ``s.chunks`` the durations of
    the chunks run inside it (from the timer) and at its two ends.
    """

    def __init__(self, chunk: Callable[[], float] = reference_chunk, ref_s: float = REF_CHUNK_S) -> None:
        self.chunk = chunk
        self.ref_s = ref_s
        self.chunks: list[float] = []
        self.in_interval_s = 0.0
        self.wall_s = 0.0
        self._busy = False
        self._old = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a late alarm while a chunk still runs
            return
        self._busy = True
        d = self.chunk()
        self.chunks.append(d)
        self.in_interval_s += d
        self._busy = False

    def __enter__(self) -> SpeedSampler:
        self.chunks.append(self.chunk())
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.chunks.append(self.chunk())

    @property
    def own_s(self) -> float:
        """The interval's wall time without the chunks run inside it."""
        return self.wall_s - self.in_interval_s

    def at_reference_speed(self) -> float:
        """``own_s`` rescaled to reference host speed."""
        return self.own_s * self.ref_s * len(self.chunks) / sum(self.chunks)
