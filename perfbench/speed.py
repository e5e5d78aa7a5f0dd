"""Machine-speed probe: a fixed reference kernel timed while ops run.

On a host whose cores are shared, the speed of this process drifts by
10-40% within seconds, and its CPU time drifts with its wall time, so
neither can be compared between runs as it stands.  The probe is fixed
work of the kind fellbund does (Python dict traffic and small complex
LAPACK calls) and does not touch fellbund.  ``Sampler`` times it every
``EVERY_S`` from an interval timer, also in the middle of a long op; an
op's latency, less the probing done meanwhile, scaled by ``REF_S / p``
with p the mean probe time over the op, is its latency at the speed at
which the probe takes ``REF_S``.  An optimisation of fellbund changes the
op and not the probe, so it shows in the scaled figures in full.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# The probe's time at the reference speed: about its median on the 2-core
# host the benchmark was defined on, so that scaled figures read roughly as
# that host's seconds.
REF_S = 0.35e-3

# interval between probes
EVERY_S = 0.05

_A = (np.random.default_rng(0).standard_normal((6, 6))
      + 1j * np.random.default_rng(1).standard_normal((6, 6)))
_H = _A + _A.conj().T


def _kernel() -> None:
    table: dict = {}
    for i in range(400):
        table[(i, i % 7)] = table.get((i - 1, (i - 1) % 7), 0) + i
    x = _H
    for _ in range(12):
        x = (x @ _H) / 10.0
        np.linalg.eigvalsh(_H)


def probe() -> float:
    """Seconds the reference kernel takes now: the median of three runs,
    so that one interrupt does not count."""
    times = []
    for _ in range(3):
        t = perf_counter()
        _kernel()
        times.append(perf_counter() - t)
    return statistics.median(times)


class Sampler:
    """Probes every EVERY_S from SIGALRM while in a ``with`` block.

    Python runs the handler between bytecodes, so a probe that falls due
    inside a long LAPACK call is taken when the call returns."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.spent = 0.0            # seconds spent probing
        self._busy = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        t = perf_counter()
        self.probes.append(probe())
        self.spent += perf_counter() - t
        self._busy = False

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        """Where the probes and the probing time stand now."""
        return len(self.probes), self.spent

    def since(self, mark: tuple[int, float], seconds: float) -> float:
        """``seconds`` of wall time measured from ``mark`` to now, less the
        probing done meanwhile, at the reference speed.  The speed is the
        mean of the last probe before ``mark`` and every probe after it."""
        first, spent = mark
        probe_s = statistics.fmean(self.probes[first - 1:])
        return (seconds - (self.spent - spent)) * REF_S / probe_s
