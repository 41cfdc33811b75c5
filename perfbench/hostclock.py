"""Pass time scaled to a reference host speed, from an in-process probe.

On a shared virtual machine the same pass takes anywhere from 1x to 2x its
fastest time, in phases that last from a second to minutes, because other
tenants load the host.  A median over a run of passes cannot average away a
phase longer than the run, so raw wall time is not steady enough to bound.

``HostClock`` measures host speed at the very moments the pass runs: a
``SIGALRM`` timer interrupts the pass every ``period`` seconds and the
handler times a fixed piece of pure-Python work (the probe, about 0.2 ms,
dict and tuple churn like the engine's).  Samples are even in time, so the
harmonic mean of the probe durations is the time-weighted host slowdown,
and

    ref_s = (wall - time spent probing) * REF_PROBE_S / harmonic_mean(probes)

is the pass time on a host where the probe takes ``REF_PROBE_S``.  On a
2-vCPU shared VM this took the pass-to-pass variation from 18-22% to about
2% on every workload.  The probe runs only benchmark code, so a change to
the engine cannot move it, and what it costs is subtracted.  Three probes
run just before and after the clock, so even a short interval is scaled.
"""

from __future__ import annotations

import signal
import time

# Probe duration that defines one reference second: about the fastest the
# probe runs on the 2-vCPU shared VM the bounds were set on.
REF_PROBE_S = 2.0e-4
BRACKET_PROBES = 3
_KEY = tuple(range(13))


def probe_work():
    """The fixed work one probe times; allocates and frees the same objects each call."""
    table = {}
    key = _KEY
    for i in range(600):
        key = key[5:] + key[:5]
        table[key] = i
    return table


class HostClock:
    """Times one interval and scales it to the reference host speed.

    ``on_probe(start, end)`` is called after each timer probe, so a tracer
    can book the probe as its own span instead of charging it to a layer.
    """

    def __init__(self, period: float, on_probe=None):
        self.period = period
        self.on_probe = on_probe
        self.probes = []
        self.probe_s = 0.0  # time spent in timer probes inside the interval
        self._previous = None
        self._t0 = None
        self.wall_s = None

    def _probe(self) -> tuple:
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.probes.append(end - start)
        return start, end

    def _on_alarm(self, signum, frame):
        start, end = self._probe()
        self.probe_s += end - start
        if self.on_probe:
            self.on_probe(start, end)

    def start(self):
        for _ in range(BRACKET_PROBES):
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        # restart interrupted system calls, so C code that does not retry on
        # EINTR (dlopen while numpy imports, for one) never sees the timer
        signal.siginterrupt(signal.SIGALRM, False)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> float:
        """Stop the clock; return the wall time of the interval."""
        self.wall_s = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(BRACKET_PROBES):
            self._probe()
        return self.wall_s

    @property
    def factor(self) -> float:
        """Reference seconds per host second over the interval."""
        # the harmonic mean, written out: importing statistics here would
        # preload modules the timed import of sameorder then finds cached
        return REF_PROBE_S * sum(1 / p for p in self.probes) / len(self.probes)

    @property
    def ref_s(self) -> float:
        return (self.wall_s - self.probe_s) * self.factor

    def summary(self) -> dict:
        return {"wall_s": self.wall_s, "probe_s": self.probe_s, "probes": len(self.probes),
                "factor": self.factor, "ref_s": self.ref_s}
