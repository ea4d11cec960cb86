"""A clock in seconds of a reference CPU, for a host whose speed wanders.

On a shared host the same Python code can take from one to two times as
long from one second to the next (a 2-core Intel Xeon VM measured 20 to
45 ms for one fixed loop within a minute), and slow phases last longer
than a run.  Wall time alone then measures the neighbours.  This clock
samples the host's speed while the benchmark runs: every ``INTERVAL``
seconds a timer signal runs a fixed probe loop, and the time until the
next sample is counted at the speed that probe saw, scaled so that a probe
taking ``PROBE_REF_S`` counts one to one.  A verdict timed with ``now()``
therefore reads what it would take on a host where the probe takes
``PROBE_REF_S``; the probe's own time is left out.  A change to the
library moves these times as it moves wall time, since the probe is the
benchmark's code and does not change with the library.

Until ``start()`` and after ``stop()`` (and in traced runs, which never
start it), ``now()`` is plain ``perf_counter``.
"""

import signal
import time

INTERVAL = 0.025
PROBE_KEYS = 2000
# about the probe's median time on the host above (Python 3.11.7)
PROBE_REF_S = 0.0007


def probe():
    """A fixed piece of work; return its seconds.

    It builds a dict of tuple keys: allocation, hashing and dict lookups,
    which track the library's slowdowns on a busy host more closely than
    pure indexing into a small table or a sort did.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(PROBE_KEYS):
        key = (i, i * 7 % 13)
        table[key] = table.get(key, 0) + len(table) % 3
    return time.perf_counter() - t0


class SpeedClock:
    """Reference seconds since ``start()``; see the module docstring."""

    def __init__(self):
        # (reference seconds up to ``last``, perf_counter at ``last``,
        # reference seconds per second since ``last``), replaced whole so
        # that ``now()`` never reads a half-updated state
        self.state = None
        self._old = None

    def start(self):
        factor = PROBE_REF_S / probe()
        self.state = (0.0, time.perf_counter(), factor)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        if self.state is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.state = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        ref, last, factor = self.state
        seconds = probe()
        t1 = time.perf_counter()
        self.state = (ref + (t0 - last) * factor, t1, PROBE_REF_S / seconds)

    def now(self):
        if self.state is None:
            return time.perf_counter()
        ref, last, factor = self.state
        return ref + (time.perf_counter() - last) * factor


CLOCK = SpeedClock()
