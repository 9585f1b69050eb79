"""Energy-shift and time-delay matrices of a pump cycle.

The energy shift is the Hermitian matrix ``i dS/dt S^dag`` (hbar = 1)
evaluated on the cycle grid with spectral time differentiation; its dual
under t <-> E exchange is the Wigner time delay ``-i dS/dE S^dag``.
Every built-in model declares that delay as ``c I`` (its
:attr:`~qpump.models.PumpModel.delay`), so tau is ``|c|`` and no energy
is sampled; only a model with ``delay=None`` has it computed, by
fourth-order central differences because the energy dependence is not
periodic.  Diagonal entries of the energy shift drive
the channel currents; off-diagonal entries drive excess dissipation,
entropy and noise (see :mod:`qpump.transport`).
"""

from __future__ import annotations

import numpy as np

from .errors import EnergyOutOfWindow, GridMismatch, NumericalFailure
from .matcore import (CycleGrid, central_derivative, frobenius_norm, hermitian_part,
                      spectral_derivative)
from .models import ENERGY_STEP_FRACTION, PumpModel

__all__ = [
    "HARD_HERM_LIMIT",
    "ENERGY_STEP_FRACTION",
    "sample_cycle",
    "energy_shift_cycle",
    "energy_shift_at",
    "time_delay",
    "delay_scale",
]

#: Relative non-Hermiticity beyond which the grid is considered under-resolved.
HARD_HERM_LIMIT = 1e-3


def sample_cycle(model: PumpModel, mu: float, grid: CycleGrid) -> np.ndarray:
    """Sample S(t, mu) on the grid; every sample is certified unitary.

    Returns an (N, n, n) complex array.
    """
    if abs(grid.period - model.period) > 1e-12 * max(1.0, abs(model.period)):
        raise GridMismatch(
            f"grid period {grid.period!r} differs from model period {model.period!r}"
        )
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
    s = model.sample(t + grid.times, mu)
    ds = spectral_derivative(s, grid)
    return _shift_stack(s[:1], ds[:1], np.array([float(t)]), frobenius_norm(ds).max())[0][0]


def _check_stencil(model: PumpModel, mu: float, dE: float) -> None:
    """Check the stencil of step ``dE`` at mu: ``dE > 0`` and the five energies
    mu, mu +/- dE, mu +/- 2*dE inside the model's window.  A declared delay
    samples none of them but is held to the same guards."""
    if not dE > 0:
        raise ValueError("dE must be positive")
    lo, hi = model.energy_window
    if mu - 2.0 * dE < lo or mu + 2.0 * dE > hi:
        raise EnergyOutOfWindow(
            f"stencil [mu-2dE, mu+2dE] = [{mu - 2 * dE:g}, {mu + 2 * dE:g}] "
            f"exceeds window [{lo:g}, {hi:g}]"
        )


def _stencil_delay(model: PumpModel, times: np.ndarray, mu: float, dE: float,
                   samples: np.ndarray | None = None) -> np.ndarray:
    """Exactly Hermitian ``-i dS/dE S^dag`` at each time, (N, n, n), by a
    fourth-order central difference with step ``dE``; ``samples`` may supply
    S(times, mu), leaving the four stencil energies to be sampled."""
    s = model.sample(times, mu) if samples is None else samples
    ds_de = central_derivative(lambda energy: model.sample(times, energy), mu, dE)
    return hermitian_part(-1j * (ds_de @ s.conj().swapaxes(1, 2)))[0]


def time_delay(model: PumpModel, t: float, mu: float, dE: float) -> np.ndarray:
    """Wigner time delay ``-i dS/dE S^dag`` at (t, mu) as an exactly Hermitian
    (n, n) array (units of time): ``c I`` for a model that declares its delay
    c, else a fourth-order central difference with step ``dE``."""
    _check_stencil(model, mu, dE)
    if model.delay is not None:
        return model.delay * np.eye(model.n_channels, dtype=complex)
    return _stencil_delay(model, np.array([float(t)]), mu, dE)[0]


def delay_scale(model: PumpModel, mu: float, grid: CycleGrid,
                samples: np.ndarray | None = None) -> float:
    """Largest spectral norm of the time delay over the cycle (tau): ``|c|``
    for a model that declares its delay ``c I``, sampling nothing.  Otherwise
    the stencil of step ``dE = ENERGY_STEP_FRACTION * (hi - lo)`` over the
    energy window runs on the grid, its centre reusing ``samples`` (S(t, mu)
    on the grid) if given."""
    lo, hi = model.energy_window
    dE = ENERGY_STEP_FRACTION * (hi - lo)
    _check_stencil(model, mu, dE)
    if model.delay is not None:
        return abs(model.delay)
    delay = _stencil_delay(model, grid.times, mu, dE, samples)
    return float(np.max(np.linalg.norm(delay, ord=2, axis=(1, 2))))
