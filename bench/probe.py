"""Reference probes: fixed work, sampled to track the host's speed.

The benchmark runs on a few vCPUs of a shared host, whose speed for the
same work swings by up to 2x, within seconds and over hours, as neighbours
load the cores and caches.  A timing taken in such a period says more
about the neighbours than about the simulator.  A child process therefore
runs a :class:`Sampler`: a timer signal interrupts it every
``INTERVAL_S`` of wall time and times two fixed pieces of work at that
moment.  :meth:`Sampler.scaled` turns a span of the child's time into the
seconds it would have taken at the host's speed in a quiet period.  The
probes' code is fixed and lives here, outside the simulator, so a change to
``src/`` cannot move them.

The neighbours do not slow all work alike.  Interpreter work slows about
as much as the host does; a full collection of the cyclic garbage
collector, which walks the whole heap and waits on memory, slows about
half as much.  So there are two probes.  :func:`probe` is a mix of what
the interpreter spends the estimate path's time on: integer arithmetic and
list indexing, attribute access, and allocating and freeing small objects.
:func:`memory_probe` gathers from random places of an array larger than
the core's caches.  A stretch of time inside a full collection is scaled
by the memory probe; every other stretch by the interpreter probe.

Neither probe allocates anything the collector tracks, so they never start
a collection nor move the point where the estimate's own allocations start
one.  Time spent in the sampler is taken out of every timing:
:meth:`Sampler.clock` stops while it runs.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from array import array

import numpy as np

#: Probe times inside a benchmark child in a quiet period on the 2-vCPU VM
#: the benchmark was built on (Xeon at 2.0 GHz, Python 3.11): timings are
#: scaled to this host speed.
REFERENCE_S = 0.00065
MEMORY_REFERENCE_S = 0.00055
#: Wall time between two samples.
INTERVAL_S = 0.05
ROUNDS = 1500
#: The memory probe's array (32 MiB, 16 times a core's L2 cache) and how
#: many random places it reads per sample.
MEMORY_ITEMS = 4 * 2**20
GATHER = 32768

_TABLE = list(range(1024))


class _Slot:
    __slots__ = ("value", "count")

    def __init__(self, value: int) -> None:
        self.value = value
        self.count = 0


_SLOTS = [_Slot(i) for i in range(64)]


def _work(rounds: int) -> int:
    table, slots = _TABLE, _SLOTS
    acc = 0
    for i in range(rounds):
        acc = (acc + table[(acc ^ i) & 1023] * 3) & 0xFFFFF
        slot = slots[acc & 63]
        slot.count += 1
        # Strings and floats are allocated and freed, but the collector
        # does not track them.
        text = str(acc)
        acc ^= len(text) + int(slot.value * 0.5)
    for slot in slots:
        slot.count = 0
    return acc


def probe(rounds: int = ROUNDS) -> float:
    """Seconds one fixed round of interpreter work takes now."""
    start = time.perf_counter()
    _work(rounds)
    return time.perf_counter() - start


class MemoryProbe:
    """A fixed gather from ``MEMORY_ITEMS`` floats at ``GATHER`` places.

    The array and the places are drawn once, with a fixed seed.  NumPy
    arrays are not tracked by the collector.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.data = rng.random(MEMORY_ITEMS)
        self.places = rng.integers(0, MEMORY_ITEMS, GATHER)

    @property
    def nbytes(self) -> int:
        """Bytes the probe keeps resident."""
        return self.data.nbytes + self.places.nbytes

    def __call__(self) -> float:
        """Seconds the gather takes now."""
        start = time.perf_counter()
        self.data.take(self.places).sum()
        return time.perf_counter() - start


class Sampler:
    """Probe the host every ``INTERVAL_S`` while the ``with`` block runs.

    A sample is taken at entry, at every timer tick and at exit: ``times``
    holds ``clock()`` at each, ``probes`` and ``memory_probes`` the two
    probes' seconds.  The timer is ``ITIMER_REAL``, so samples are evenly
    spaced in wall time.  A ``gc.callbacks`` hook records every full
    collection's ``clock()`` span in ``full_gc``.  All are kept in arrays,
    which the collector does not track either.
    """

    def __init__(self) -> None:
        start = time.perf_counter()
        self.memory_probe = MemoryProbe()
        self.times = array("d")
        self.probes = array("d")
        self.memory_probes = array("d")
        #: Start and end of each full collection, in turn.
        self.full_gc = array("d")
        #: Wall seconds spent in the sampler so far: building the memory
        #: probe's array, and probing.
        self.probing = time.perf_counter() - start
        self._busy = False

    def clock(self) -> float:
        """``time.perf_counter`` without the time spent in the sampler."""
        return time.perf_counter() - self.probing

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.times.append(start - self.probing)
        self.probes.append(probe())
        self.memory_probes.append(self.memory_probe())
        self.probing += time.perf_counter() - start
        self._busy = False

    def _on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] == 2:
            self.full_gc.append(self.clock())

    def __enter__(self) -> "Sampler":
        self.sample()
        gc.callbacks.append(self._on_gc)
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        gc.callbacks.remove(self._on_gc)
        self.sample()

    def _scaled(self, probes: array, reference: float, start: float,
                end: float) -> float:
        """``[start, end]`` at the reference speed of one probe.  Each
        sample gives the host's speed for the stretch of time closer to it
        than to any other sample."""
        times = self.times
        last = len(times) - 1
        total = 0.0
        for i in range(max(0, bisect.bisect_right(times, start) - 1),
                       min(last, bisect.bisect_left(times, end)) + 1):
            lo = start if i == 0 else max(start, (times[i - 1] + times[i]) / 2)
            hi = end if i == last else min(end, (times[i] + times[i + 1]) / 2)
            if hi > lo:
                total += (hi - lo) * reference / probes[i]
        return total

    def scaled(self, start: float, end: float) -> float:
        """Seconds that the ``clock()`` span ``[start, end]`` would have
        taken at the reference speed: full collections inside it at the
        memory probe's, the rest at the interpreter probe's."""
        total = self._scaled(self.probes, REFERENCE_S, start, end)
        gcs = self.full_gc
        for i in range(0, len(gcs) - 1, 2):
            lo, hi = max(start, gcs[i]), min(end, gcs[i + 1])
            if hi > lo:
                total += (self._scaled(self.memory_probes, MEMORY_REFERENCE_S,
                                       lo, hi)
                          - self._scaled(self.probes, REFERENCE_S, lo, hi))
        return total
