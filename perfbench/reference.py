"""A fixed pure-Python kernel that measures how fast the host runs right now.

The VMs this benchmark runs on share their cores with other tenants, and a
core's speed changes by up to 1.7x from one second to the next and for
minutes at a time.  CPU time does not remove that: the instructions
themselves run slower.  So the benchmark measures the host's speed with
this kernel next to every op (before and after it) and during it (from a
``SIGPROF`` handler every ``INTERVAL_S`` of CPU time), and reports the op's
CPU time divided by the host's *slowness*: the kernel's mean CPU time over
those runs divided by ``REFERENCE_MS``.  ``REFERENCE_MS`` is the kernel's
time at full speed on the VM where the benchmark was defined (2 vCPUs of a
shared Xeon, Python 3.11), so a reported time is what the op would take
there at full speed.  The scaling is not exact: in the middle of a long op
the kernel runs about 10% slower than between ops, its data having left
the cache, and a slow period does not slow every kind of code alike.

The kernel does what the library does most: small dicts keyed by position,
tuple keys, set membership, sorting and calls.  It touches no library code,
so a change to the library cannot change it; it must not be edited without
measuring ``REFERENCE_MS`` again.
"""

from __future__ import annotations

import gc
import random
import signal

# CPU time of ``kernel()`` on the defining VM at full speed (the 10th
# percentile of 3000 runs), in ms
REFERENCE_MS = 0.46
# CPU time between two in-op kernel runs
INTERVAL_S = 0.02

_BLOCKS = [
    {p: v for p, v in zip(range(i, i + 4), random.Random(5 + i).choices((1, 2, 3), k=4))}
    for i in range(40)
]


def kernel():
    seen, out = set(), []
    for a in _BLOCKS:
        for b in _BLOCKS[::10]:
            c = dict(a)
            for p, v in b.items():
                c[p] = max(c.get(p, 0), v)
            key = tuple(sorted(c.items()))
            if key not in seen:
                seen.add(key)
                out.append(key)
    out.sort()
    return len(out)


def slowness(clock, runs=1):
    """Mean CPU time of ``runs`` kernel runs over REFERENCE_MS.

    The cyclic collector is held off: its pauses grow with the live heap
    the library leaves behind, which would tie the yardstick to the program
    it measures.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        for _ in range(runs):
            kernel()
        return (clock() - start) / runs / (REFERENCE_MS / 1e3)
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs the kernel every INTERVAL_S of process CPU time while armed.

    ``stop`` returns the slowness of each run and the CPU seconds the
    handler took, which the caller takes off the op's time.  A sampler
    made with ``armed=False`` takes no samples.
    """

    def __init__(self, clock, armed=True):
        self.clock = clock
        self.armed = armed
        self.samples = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        start = self.clock()
        self.samples.append(slowness(self.clock))
        self.spent += self.clock() - start

    def start(self):
        self.samples, self.spent = [], 0.0
        if not self.armed:
            return
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        if not self.armed:
            return self.samples, self.spent
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        return self.samples, self.spent
