"""Energy-shift matrices of a pump cycle.

The energy shift is the Hermitian matrix ``i dS/dt S^dag`` (hbar = 1)
evaluated with spectral time differentiation on the model's cycle grid,
:meth:`~qpump.models.PumpModel.grid`, whose period is the model's; its dual
under t <-> E exchange is the Wigner time delay ``-i dS/dE S^dag``, which
every model declares as ``c I`` (:attr:`~qpump.models.PumpModel.delay`),
so no energy but mu is sampled.  Diagonal entries of the energy shift
drive the channel currents; off-diagonal entries drive excess
dissipation, entropy and noise (see :mod:`qpump.transport`).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailure
from .matcore import CycleGrid, frobenius_norm, hermitian_part, spectral_derivative
from .models import PumpModel

__all__ = [
    "HARD_HERM_LIMIT",
    "cycle_scale",
    "energy_shift_cycle",
    "energy_shift_at",
]

#: Relative non-Hermiticity beyond which the grid is considered under-resolved.
HARD_HERM_LIMIT = 1e-3


def cycle_scale(stack: np.ndarray, grid: CycleGrid, limit: float) -> float:
    """What a check of the cycle's (N, n, n) energy shifts against ``limit`` divides by:
    their largest ``||E||_F``, or ``nu / limit`` if larger (capped to stay finite), with
    ``nu = 2**10 eps (pi N / T) sqrt(n)`` the rounding floor of an FFT derivative of an
    (n, n) unitary (relative to ``||S||_F``, not ``||E||``): rounding never reaches the limit."""
    nu = 2.0**-42 * (np.pi * grid.samples / grid.period) * stack.shape[-1] ** 0.5  # 2**10 eps
    return float(max(frobenius_norm(stack).max(), min(nu / limit, np.finfo(float).max)))


def _shift_stack(s, ds, grid: CycleGrid, times) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized ``i dS/dt S^dag`` at the first ``len(times)`` nodes of a sampled
    cycle and their defects relative to the :func:`cycle_scale` (FFT rounding is
    cycle-wide; ``||dS/dt||_F = ||E||_F``), certified against ``HARD_HERM_LIMIT``."""
    k = len(times)
    herm, defect = hermitian_part(1j * (ds[:k] @ s[:k].conj().swapaxes(1, 2)))
    defect /= cycle_scale(ds, grid, HARD_HERM_LIMIT)
    over = defect > HARD_HERM_LIMIT
    if over.any():
        i = int(np.argmax(over))
        raise NumericalFailure(
            f"hermiticity defect {defect[i]:.3e} at t={times[i]:.6g} exceeds {HARD_HERM_LIMIT:g}; "
            "the grid does not resolve the cycle"
        )
    return herm, defect


def energy_shift_cycle(samples: np.ndarray, grid: CycleGrid) -> tuple[np.ndarray, np.ndarray]:
    """Energy shift ``i dS/dt S^dag`` at every grid time, as one stack.

    ``samples`` -- S(t, mu) on the grid, as ``model.sample(grid.times, mu)``
    returns it -- is differentiated entrywise by FFT, multiplied by S^dag and
    symmetrized: the exactly Hermitian (N, n, n) shifts and their (N,) defects,
    the part :func:`~qpump.matcore.hermitian_part` discards over the :func:`cycle_scale`.
    Raises :class:`NumericalFailure` when any defect exceeds ``HARD_HERM_LIMIT``
    (an under-resolved grid).
    """
    return _shift_stack(samples, spectral_derivative(samples, grid), grid, grid.times)


def energy_shift_at(model: PumpModel, t: float, mu: float, nodes: int) -> np.ndarray:
    """Energy shift at one arbitrary time, an exactly Hermitian (n, n) array.

    Samples the cycle on the model's grid of ``nodes`` nodes, offset so that
    ``t`` is its first node; FFT differentiation is insensitive to the origin shift.
    A bad ``nodes`` is the grid's :class:`~qpump.errors.ConfigError` on ``cycle.samples``.
    Its defect is certified against the same cycle scale as :func:`energy_shift_cycle`'s.
    """
    grid = model.grid(nodes)
    s = model.sample(t + grid.times, mu)
    return _shift_stack(s, spectral_derivative(s, grid), grid, [float(t)])[0][0]
