"""Energy-shift and time-delay matrices of a pump cycle.

The energy shift is the Hermitian matrix ``i dS/dt S^dag`` (hbar = 1)
evaluated on the cycle grid with spectral time differentiation; its dual
under t <-> E exchange is the Wigner time delay ``-i dS/dE S^dag``,
computed by fourth-order central differences because the energy
dependence is not periodic.  Diagonal entries of the energy shift drive
the channel currents; off-diagonal entries drive excess dissipation,
entropy and noise (see :mod:`qpump.transport`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnergyOutOfWindow, GridMismatch, NumericalFailure
from .matcore import (
    CycleGrid,
    _frozen,
    _square_matrix,
    central_derivative,
    hermitian_part,
    spectral_derivative,
)
from .models import ENERGY_STEP_FRACTION, PumpModel

__all__ = [
    "EnergyShift",
    "HARD_HERM_LIMIT",
    "ENERGY_STEP_FRACTION",
    "sample_cycle",
    "energy_shift_cycle",
    "energy_shift_at",
    "energy_shift_fd",
    "energy_shift_rows",
    "time_delay",
    "delay_scale",
]

#: Relative non-Hermiticity beyond which the grid is considered under-resolved.
HARD_HERM_LIMIT = 1e-3


@dataclass(frozen=True, eq=False)
class EnergyShift:
    """Energy shift at one cycle time or over N of them (units of energy, hbar = 1).

    ``array`` is stored exactly Hermitian, shape (n, n) at one time and
    (N, n, n) over N times; ``t`` and ``herm_defect`` -- the relative
    anti-Hermitian residue of the raw product before symmetrization -- are
    then scalars or (N,) arrays.  Indexing a stack gives the shift at one
    time (a slice gives a shorter stack) and iterating it visits every
    time.
    """

    array: np.ndarray
    t: float | np.ndarray
    herm_defect: float | np.ndarray

    def __len__(self) -> int:
        return len(self.t)  # TypeError at one time, where t is a float

    def __getitem__(self, index) -> "EnergyShift":
        t, defect = self.t[index], self.herm_defect[index]
        if not isinstance(index, slice):
            t, defect = float(t), float(defect)
        return EnergyShift(self.array[index], t, defect)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    @classmethod
    def from_matrix(cls, array) -> "EnergyShift":
        """Wrap an explicit (near-)Hermitian matrix at t = 0, e.g. for tests:
        square, finite input is stored read-only as ``(M + M^dag)/2``."""
        herm, defect = hermitian_part(_square_matrix(array))
        return cls(_frozen(herm), 0.0, float(defect))


def sample_cycle(model: PumpModel, mu: float, grid: CycleGrid) -> np.ndarray:
    """Sample S(t, mu) on the grid; every sample is certified unitary.

    Returns an (N, n, n) complex array.
    """
    if abs(grid.period - model.period) > 1e-12 * max(1.0, abs(model.period)):
        raise GridMismatch(
            f"grid period {grid.period!r} differs from model period {model.period!r}"
        )
    return model.sample(grid.times, mu)


def _shift_stack(s, ds, times) -> EnergyShift:
    """Symmetrized ``i dS/dt S^dag`` over a stack, certified against
    ``HARD_HERM_LIMIT`` at every time."""
    herm, defect = hermitian_part(1j * (ds @ s.conj().swapaxes(1, 2)))
    over = defect > HARD_HERM_LIMIT
    if over.any():
        i = int(np.argmax(over))
        raise NumericalFailure(
            f"hermiticity defect {defect[i]:.3e} at t={times[i]:.6g} exceeds {HARD_HERM_LIMIT:g}; "
            "the grid does not resolve the cycle"
        )
    return EnergyShift(herm, times, defect)


def energy_shift_cycle(samples: np.ndarray, grid: CycleGrid) -> EnergyShift:
    """Energy shift ``i dS/dt S^dag`` at every grid time, as one stack.

    ``samples`` -- S(t, mu) on the grid, as :func:`sample_cycle` returns
    it -- is differentiated entrywise by FFT, multiplied by S^dag and
    symmetrized.  Raises :class:`NumericalFailure` when any
    pre-symmetrization defect exceeds ``HARD_HERM_LIMIT`` (an
    under-resolved grid).
    """
    return _shift_stack(samples, spectral_derivative(samples, grid), grid.times)


def energy_shift_at(model: PumpModel, t: float, mu: float, grid: CycleGrid) -> EnergyShift:
    """Energy shift at one arbitrary time.

    Samples the cycle on the uniform grid offset so that ``t`` is its
    first node; FFT differentiation is insensitive to the origin shift.
    """
    s = model.sample(t + grid.times, mu)
    ds = spectral_derivative(s, grid)
    return _shift_stack(s[:1], ds[:1], np.array([float(t)]))[0]


def energy_shift_fd(model: PumpModel, t: float, mu: float, grid: CycleGrid) -> EnergyShift:
    """Finite-difference cross-check of the spectral energy shift.

    Differentiates S in time by a fourth-order central difference with
    step ``T/(8N)`` instead of the FFT route; useful for validating the
    spectral pipeline on a new model.
    """
    step = grid.period / (8.0 * grid.samples)
    times = np.array([float(t)])
    ds_dt = central_derivative(lambda u: model.sample([u], mu), float(t), step)
    return _shift_stack(model.sample(times, mu), ds_dt, times)[0]


def energy_shift_rows(model: PumpModel, mu: float, grid: CycleGrid) -> np.ndarray:
    """Energy shift assembled from row overlaps ``i <psi_k | dpsi_j/dt>``.

    ``psi_j`` is the j-th row of S and ``<a|b> = sum conj(a_i) b_i``
    (conjugation on the first argument, which is what makes this route
    agree entrywise with the matrix product of :func:`energy_shift_cycle`).
    Returns the raw, unsymmetrized (N, n, n) array -- an independent code
    path used to cross-check the matrix route.
    """
    s = sample_cycle(model, mu, grid)
    ds = spectral_derivative(s, grid)
    return 1j * np.einsum("tki,tji->tjk", s.conj(), ds)


def _delay_raw(model: PumpModel, times: np.ndarray, mu: float, dE: float,
               samples: np.ndarray | None = None) -> np.ndarray:
    """Unsymmetrized ``-i dS/dE S^dag`` at each time, (N, n, n).

    The energy derivative uses a fourth-order central difference with
    step ``dE``, whose stencil reaches mu +/- 2*dE; all five stencil
    energies must lie inside the model's window.  ``samples`` may supply
    S(times, mu), leaving the four stencil energies to be sampled.  An
    energy-independent model samples nothing: its delay is exactly zero.
    """
    if not dE > 0:
        raise ValueError("dE must be positive")
    lo, hi = model.energy_window
    if mu - 2.0 * dE < lo or mu + 2.0 * dE > hi:
        raise EnergyOutOfWindow(
            f"stencil [mu-2dE, mu+2dE] = [{mu - 2 * dE:g}, {mu + 2 * dE:g}] "
            f"exceeds window [{lo:g}, {hi:g}]"
        )
    if model.energy_independent:
        return np.zeros((len(times), model.n_channels, model.n_channels), dtype=complex)
    s = model.sample(times, mu) if samples is None else samples
    ds_de = central_derivative(lambda energy: model.sample(times, energy), mu, dE)
    return -1j * (ds_de @ s.conj().swapaxes(1, 2))


def time_delay(model: PumpModel, t: float, mu: float, dE: float) -> np.ndarray:
    """Wigner time delay ``-i dS/dE S^dag`` at (t, mu) as an exactly Hermitian
    (n, n) array (units of time), by a fourth-order central difference with
    step ``dE`` (see :func:`_delay_raw`)."""
    return hermitian_part(_delay_raw(model, np.array([float(t)]), mu, dE)[0])[0]


def delay_scale(model: PumpModel, mu: float, grid: CycleGrid,
                samples: np.ndarray | None = None) -> float:
    """Largest spectral norm of the time delay over the cycle (tau), with
    step ``dE = ENERGY_STEP_FRACTION * (hi - lo)`` over the energy window;
    the stencil centre reuses ``samples`` (S(t, mu) on the grid) if given."""
    lo, hi = model.energy_window
    raw = _delay_raw(model, grid.times, mu, ENERGY_STEP_FRACTION * (hi - lo), samples)
    if model.energy_independent:  # raw is exactly zero: skip the per-node SVD
        return 0.0
    return float(np.max(np.linalg.norm(hermitian_part(raw)[0], ord=2, axis=(1, 2))))

