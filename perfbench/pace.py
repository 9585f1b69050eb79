"""Machine-speed reference for the timed runs.

The benchmark runs on a few cores of a shared host whose speed drifts:
one identical ``pump analyze`` call takes anywhere from 520 to 1070 ms
of wall time, with as much CPU time and no steal time, in phases of a
few seconds.  Raw wall times of a run therefore measure the neighbours
as much as the program.

``Pace`` runs a fixed reference kernel between the calls and converts
each call's wall time to *reference time*: the time the call would have
taken on a machine on which the kernel runs in ``NOMINAL_S``.  A call's
scale comes from the two kernel runs on either side of the stretch of
calls it belongs to, so it tracks the speed of the seconds in which the
call ran.  The kernel has three parts, each of the kind of work the
program does: small complex matrices driven from a Python loop, the same
linear algebra batched over a 2048-node stack, and a sort and scan of a
4 MB array.  Together they slow down with the host as the calls do: over
four minutes of alternation on a 2-vCPU Xeon VM, the log of each
workload's call time followed the log of the kernel time with slope
0.89-0.95 (one part alone: 0.64-0.76, or 1.3-1.7 for the array part).
The kernel and its inputs are fixed and nothing in it uses ``qpump``, so
a change to the program moves only the calls, never the yardstick.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Median time of one kernel run on the machine the baseline was measured
#: on (2-vCPU Intel Xeon VM).  Only a unit conversion: it makes reference
#: time read close to wall time there.
NOMINAL_S = 0.070

#: Calls are grouped into stretches of at least this much wall time, each
#: bracketed by two kernel runs.
STRETCH_S = 0.6


class Pace:
    """Times the reference kernel and converts wall time to reference time."""

    def __init__(self):
        rng = np.random.default_rng(20010501)
        self._small = (rng.standard_normal((300, 3, 3))
                       + 1j * rng.standard_normal((300, 3, 3)))
        self._stack = (rng.standard_normal((2048, 3, 3))
                       + 1j * rng.standard_normal((2048, 3, 3)))
        self._array = rng.standard_normal(1 << 19)
        self.kernel_s: list[float] = []
        self.kernel()  # the first run pays numpy's lazy set-up

    def kernel(self) -> float:
        """Run the kernel once; return and record its wall time."""
        acc = 0.0
        start = perf_counter()
        for m in self._small:
            h = m + m.conj().T
            vals, vecs = np.linalg.eigh(h)
            u = (vecs * np.exp(1j * vals)) @ vecs.conj().T
            acc += float(np.linalg.norm(u @ h - h @ u, ord=2))
            acc += sum(0.5 * v for v in vals.tolist())
        for _ in range(3):
            h = self._stack + self._stack.conj().transpose(0, 2, 1)
            vals, vecs = np.linalg.eigh(h)
            u = (vecs * np.exp(1j * vals)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
            acc += float(np.abs(np.fft.fft(u, axis=0)).sum())
        for _ in range(2):
            acc += float(np.cumsum(np.sort(self._array) * 1.5 + 0.25)[-1])
        seconds = perf_counter() - start
        if not np.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite sum")
        self.kernel_s.append(seconds)
        return seconds

    def scale(self, before: float, after: float) -> float:
        """Factor from wall time to reference time between two kernel runs."""
        return NOMINAL_S / (0.5 * (before + after))
