"""Energy-shift matrices of a pump cycle.

The energy shift is the Hermitian matrix ``i dS/dt S^dag`` (hbar = 1)
evaluated on the cycle grid with spectral time differentiation; its dual
under t <-> E exchange is the Wigner time delay ``-i dS/dE S^dag``, which
every model declares as ``c I`` (:attr:`~qpump.models.PumpModel.delay`),
so no energy but mu is sampled.  Diagonal entries of the energy shift
drive the channel currents; off-diagonal entries drive excess
dissipation, entropy and noise (see :mod:`qpump.transport`).
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatch, NumericalFailure
from .matcore import CycleGrid, frobenius_norm, hermitian_part, spectral_derivative
from .models import PumpModel

__all__ = [
    "HARD_HERM_LIMIT",
    "sample_cycle",
    "energy_shift_cycle",
    "energy_shift_at",
]

#: Relative non-Hermiticity beyond which the grid is considered under-resolved.
HARD_HERM_LIMIT = 1e-3


def _check_period(model: PumpModel, grid: CycleGrid) -> None:
    """:class:`GridMismatch` unless the grid's period is the model's, to 1e-12 of it."""
    if abs(grid.period - model.period) > 1e-12 * abs(model.period):
        raise GridMismatch(f"grid period {grid.period!r} differs from the model's {model.period!r}")


def sample_cycle(model: PumpModel, mu: float, grid: CycleGrid) -> np.ndarray:
    """Sample S(t, mu) on the grid; every sample is certified unitary.

    Returns an (N, n, n) complex array.
    """
    _check_period(model, grid)
    return model.sample(grid.times, mu)


def _shift_stack(s, ds, times, scale=None) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized ``i dS/dt S^dag`` over a stack and its defects relative to
    ``scale`` (FFT rounding is cycle-wide; default: the stack's largest norm),
    certified against ``HARD_HERM_LIMIT`` at every time."""
    herm, defect = hermitian_part(1j * (ds @ s.conj().swapaxes(1, 2)), scale)
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

    ``samples`` -- S(t, mu) on the grid, as :func:`sample_cycle` returns
    it -- is differentiated entrywise by FFT, multiplied by S^dag and
    symmetrized: the exactly Hermitian (N, n, n) shifts and their (N,) defects
    relative to the cycle's largest ``||E||_F``, as :func:`~qpump.matcore.hermitian_part`
    returns them.  Raises :class:`NumericalFailure` when any defect exceeds
    ``HARD_HERM_LIMIT`` (an under-resolved grid).
    """
    return _shift_stack(samples, spectral_derivative(samples, grid), grid.times)


def energy_shift_at(model: PumpModel, t: float, mu: float, grid: CycleGrid) -> np.ndarray:
    """Energy shift at one arbitrary time, an exactly Hermitian (n, n) array.

    Samples the cycle on the uniform grid offset so that ``t`` is its
    first node; FFT differentiation is insensitive to the origin shift.  The
    defect's scale is the cycle's largest ``||dS/dt||_F``, that is ``||E||_F``.
    """
    _check_period(model, grid)
    s = model.sample(t + grid.times, mu)
    ds = spectral_derivative(s, grid)
    return _shift_stack(s[:1], ds[:1], np.array([float(t)]), frobenius_norm(ds).max())[0][0]
