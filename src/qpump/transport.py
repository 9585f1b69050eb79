"""Transport observables of a pump cycle.

All quantities derive from the energy shift.  In natural units
(hbar = e = 1, h = 2*pi, R_K = 2*pi):

* channel current          ``Qdot_j = E_jj / 2pi``
* dissipation              ``D_j = (E^2)_jj / 4pi``
  which splits into the unavoidable Joule part ``(R_K/2) Qdot_j^2`` and
  the excess ``sum_{k != j} |E_jk|^2 / 4pi >= 0`` -- the lower bound
  ``D_j >= (R_K/2) Qdot_j^2`` holds channel by channel;
* entropy / noise rates    ``Sdot_j = beta/(4pi) * sum_{k != j} |E_jk|^2``,
  ``Ndot_j = beta/(12pi) * sum_{k != j} |E_jk|^2`` (their ratio is 3);
* cycle charge             time integral of the channel current, which is
  an integer (the row winding number) exactly when the pump is optimal.

:func:`instant_report` derives every per-channel column above from one
pass over the energy shift.

The sign convention is fixed by the current law: positive ``Qdot_j``
means net charge entering reservoir j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalFailure, PumpError
from .matcore import R_K, ROUNDING_FLOOR, CycleGrid, _real
from .models import PumpModel
from .shift import _check_period

if TYPE_CHECKING:  # optimal imports this module
    from .optimal import OptimalityVerdict

__all__ = [
    "instantaneous_current",
    "cycle_integral",
    "winding_charge",
    "InstantReport",
    "instant_report",
]

_TWO_PI = 2.0 * np.pi
_FOUR_PI = 4.0 * np.pi

#: Tolerance of the identity ``D = joule + excess``, relative to the channel's
#: largest dissipation over the report's times, the residual check's scale.
IDENTITY_TOL = 1e-12

#: Row overlaps below this modulus across a grid interval have no defined phase step.
VANISHING_OVERLAP = 1e-12


def _diagonal(m: np.ndarray) -> np.ndarray:
    return np.diagonal(m, axis1=-2, axis2=-1)


def _square_diagonal(e: np.ndarray) -> np.ndarray:
    """Diagonal of E^2 via the matrix product (real for Hermitian E)."""
    return np.real(np.einsum("...jk,...kj->...j", e, e))


def instantaneous_current(e: np.ndarray) -> np.ndarray:
    """Net current into each reservoir: ``Qdot_j = E_jj / 2pi``."""
    return np.real(_diagonal(e)) / _TWO_PI


def _joule(qdot: np.ndarray) -> np.ndarray:
    """The Joule floor ``(R_K/2) Qdot_j^2`` of the dissipation bound."""
    return 0.5 * R_K * qdot**2


def cycle_integral(rates: np.ndarray, grid: CycleGrid) -> np.ndarray:
    """Integral over one period of an (N,) array, or of each column of an (N, n)
    table, real or complex: the trapezoidal rule, by periodicity ``(T/N) * sum``,
    spectrally accurate for smooth integrands.  Each column is summed as one
    contiguous row, in a 1-D ``sum``'s pairwise order, so it integrates bit for bit
    as it would alone."""
    if rates.shape[0] != grid.samples:
        raise PumpError(f"got {rates.shape[0]} samples for a grid of {grid.samples} nodes")
    return grid.dt * np.ascontiguousarray(rates.T).sum(axis=-1)


def winding_charge(model: PumpModel, mu: float, grid: CycleGrid, samples: np.ndarray,
                   verdict: OptimalityVerdict) -> np.ndarray:
    """Integer winding of each scattering-matrix row over the cycle.

    Tracks the phase of each row against its start and counts full turns;
    on an optimal pump this equals the cycle charge.  Each grid interval
    is split in half and the two half-overlap angles are summed: a true
    advance of pi or more -- which a single overlap would silently alias
    into (-pi, pi] -- then shows up as an out-of-range step and raises
    :class:`~qpump.errors.NumericalFailure` instead of miscounting.

    ``samples`` is S(t, mu) on the grid and ``verdict`` its
    :func:`~qpump.optimal.optimality_verdict`.  Raises a :class:`~qpump.errors.PumpError`
    when the grid's period is not the model's and, before sampling anything, when
    the verdict is not optimal: for a
    non-optimal pump the rows change direction, not just phase, and no
    integer winding exists.  A row overlap that is not at least ``VANISHING_OVERLAP``
    in modulus raises a :class:`NumericalFailure`; a NaN one, which only uncertified
    samples give, is worded apart from "refine the grid".
    """
    _check_period(model, grid)
    if not verdict.is_optimal:
        raise PumpError(
            f"max off-diagonal ratio {verdict.max_offdiag_ratio:.3e} fails the optimality "
            "verdict; winding numbers are defined for optimal pumps only"
        )

    # Row overlaps <row j at t_i | row j at t_i + dt/2> and on to t_{i+1}.
    mids = model.sample(grid.times + 0.5 * grid.dt, mu)
    z1 = np.einsum("tjk,tjk->tj", samples.conj(), mids)
    z2 = np.einsum("tjk,tjk->tj", mids.conj(), np.roll(samples, -1, axis=0))
    overlap = np.minimum(np.abs(z1), np.abs(z2))
    vanish = ~(overlap >= VANISHING_OVERLAP)
    steps = np.angle(z1) + np.angle(z2)
    bad = vanish | (np.abs(steps) >= np.pi)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        if np.isnan(overlap[i, j]):
            raise NumericalFailure(f"row {j + 1} overlap is NaN; the samples are not certified")
        if vanish[i, j]:
            raise NumericalFailure(f"row {j + 1} overlap vanishes across one grid interval; "
                                   "refine the grid")
        raise NumericalFailure(
            f"row {j + 1} advances {steps[i, j]:.3f} rad across one grid interval "
            f"(limit pi); refine the grid"
        )
    # Phase advance and pumped charge carry opposite signs: a row whose
    # phase grows by 2*pi sends one unit of charge out of its reservoir.
    return np.rint(-steps.sum(axis=0) / _TWO_PI).astype(int)


@dataclass(frozen=True, eq=False)
class InstantReport:
    """Per-channel observables at one cycle time, or over N times (then
    ``t`` is an (N,) array and every per-channel array is (N, n)).

    ``residual`` is the dissipation-bound slack (>= 0 up to rounding)
    and ``excess`` the off-diagonal dissipation; ``sdot``/``ndot`` are
    present only when an inverse temperature was supplied.  Construction
    re-checks the defining identities.  The rates' regime is a fact of the
    whole cycle, which :mod:`qpump.report` decides; ``dumps`` refuses a report.
    """

    t: float | np.ndarray
    qdot: np.ndarray
    total_dissipation: np.ndarray
    excess: np.ndarray
    residual: np.ndarray
    sdot: np.ndarray | None = None
    ndot: np.ndarray | None = None

    def __post_init__(self):
        if np.any(self.total_dissipation < 0.0):
            raise NumericalFailure("negative dissipation in instant report")
        scale = np.max(np.atleast_2d(self.total_dissipation), axis=0)  # max_t D_j
        # the residual is a subtraction from D: its rounding grows with D (and D with 1/T^2)
        if np.any(self.residual < -ROUNDING_FLOOR * scale):
            raise NumericalFailure(
                f"dissipation bound violated: min residual {self.residual.min():.3e}"
            )
        gap = np.abs(self.total_dissipation - (_joule(self.qdot) + self.excess))
        if np.any(gap > IDENTITY_TOL * scale):
            raise NumericalFailure("dissipation decomposition identity failed")


def instant_report(e: np.ndarray, t: float | np.ndarray,
                   beta: float | None = None) -> InstantReport:
    """Every per-channel observable of an energy shift ``e``, at one time ``t``
    (``e`` is (n, n)) or over a stack at the (N,) times ``t`` (``e`` is (N, n, n)).

    One ``|E_jk|^2`` pass gives the off-diagonal weight
    ``w_j = sum_{k != j} |E_jk|^2``: the excess ``w/4pi`` and, when a finite
    positive inverse temperature ``beta`` is given, the rates
    ``Sdot = beta w/4pi`` and ``Ndot = beta w/12pi`` (ratio exactly 3; any other
    ``beta`` is a :class:`~qpump.errors.ConfigError` on ``beta``).  The
    residual is ``D - (R_K/2) Qdot^2`` by subtraction rather than the closed
    form ``w/4pi`` it equals, so the bound is exercised.
    """
    mags = np.abs(e) ** 2
    weight = mags.sum(axis=-1) - _diagonal(mags)
    qdot = instantaneous_current(e)
    total = _square_diagonal(e) / _FOUR_PI
    sdot = ndot = None
    if beta is not None:
        beta = _real(beta, "beta", positive=True)
        sdot = beta * weight / _FOUR_PI
        ndot = beta * weight / (12.0 * np.pi)
    return InstantReport(
        t=t,
        qdot=qdot,
        total_dissipation=total,
        excess=weight / _FOUR_PI,
        residual=total - _joule(qdot),
        sdot=sdot,
        ndot=ndot,
    )
