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

from .errors import NotOptimal, NumericalFailure, PhaseStepTooLarge
from .matcore import R_K, CycleGrid, periodic_integral
from .models import PumpModel

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

#: Most negative dissipation-bound residual an instant report accepts as rounding,
#: relative to the channel's largest dissipation over the report's times.  The
#: residual is a subtraction from D, so its rounding grows with D (and D with 1/T^2).
RESIDUAL_FLOOR = 64.0 * np.finfo(float).eps

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
    """Integral over one period of each column of an (N, n) rate table."""
    return np.array([
        periodic_integral(rates[:, j], grid).real for j in range(rates.shape[1])
    ])


def winding_charge(model: PumpModel, mu: float, grid: CycleGrid, samples: np.ndarray,
                   verdict: OptimalityVerdict) -> np.ndarray:
    """Integer winding of each scattering-matrix row over the cycle.

    Tracks the phase of each row against its start and counts full turns;
    on an optimal pump this equals the cycle charge.  Each grid interval
    is split in half and the two half-overlap angles are summed: a true
    advance of pi or more -- which a single overlap would silently alias
    into (-pi, pi] -- then shows up as an out-of-range step and raises
    :class:`PhaseStepTooLarge` instead of miscounting.

    ``samples`` is S(t, mu) on the grid and ``verdict`` its
    :func:`~qpump.optimal.optimality_verdict`.  Raises :class:`NotOptimal`,
    before sampling anything, when the verdict is not optimal: for a
    non-optimal pump the rows change direction, not just phase, and no
    integer winding exists.
    """
    if not verdict.is_optimal:
        raise NotOptimal(
            f"max off-diagonal ratio {verdict.max_offdiag_ratio:.3e} fails the optimality "
            "verdict; winding numbers are defined for optimal pumps only"
        )

    # Row overlaps <row j at t_i | row j at t_i + dt/2> and on to t_{i+1}.
    mids = model.sample(grid.times + 0.5 * grid.dt, mu)
    z1 = np.einsum("tjk,tjk->tj", samples.conj(), mids)
    z2 = np.einsum("tjk,tjk->tj", mids.conj(), np.roll(samples, -1, axis=0))
    vanish = np.minimum(np.abs(z1), np.abs(z2)) < VANISHING_OVERLAP
    steps = np.angle(z1) + np.angle(z2)
    bad = vanish | (np.abs(steps) >= np.pi)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        if vanish[i, j]:
            raise PhaseStepTooLarge(
                f"row {j + 1} overlap vanishes across one grid interval; refine the grid"
            )
        raise PhaseStepTooLarge(
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
    re-checks the defining identities.
    """

    t: float | np.ndarray
    qdot: np.ndarray
    total_dissipation: np.ndarray
    excess: np.ndarray
    residual: np.ndarray
    regime_ok: bool
    sdot: np.ndarray | None = None
    ndot: np.ndarray | None = None

    def __post_init__(self):
        if np.any(self.total_dissipation < 0.0):
            raise NumericalFailure("negative dissipation in instant report")
        scale = np.max(np.atleast_2d(self.total_dissipation), axis=0)  # max_t D_j
        if np.any(self.residual < -RESIDUAL_FLOOR * scale):
            raise NumericalFailure(
                f"dissipation bound violated: min residual {self.residual.min():.3e}"
            )
        gap = np.abs(self.total_dissipation - (_joule(self.qdot) + self.excess))
        if np.any(gap > IDENTITY_TOL * scale):
            raise NumericalFailure("dissipation decomposition identity failed")


def instant_report(e: np.ndarray, t: float | np.ndarray, beta: float | None = None,
                   omega: float = 0.0, tau: float = 0.0) -> InstantReport:
    """Every per-channel observable of an energy shift ``e``, at one time ``t``
    (``e`` is (n, n)) or over a stack at the (N,) times ``t`` (``e`` is (N, n, n)).

    One ``|E_jk|^2`` pass gives the off-diagonal weight
    ``w_j = sum_{k != j} |E_jk|^2``: the excess ``w/4pi`` and, when an
    inverse temperature ``beta`` is given, the rates ``Sdot = beta w/4pi``
    and ``Ndot = beta w/12pi`` (ratio exactly 3).  The residual is
    ``D - (R_K/2) Qdot^2`` by subtraction rather than the closed form
    ``w/4pi`` it equals, so the bound is exercised.  ``regime_ok`` records
    the strict window ``omega < 1/beta < 1/tau`` in which rates per unit
    time are meaningful; outside it the rates are still returned, only
    flagged.
    """
    if beta is not None and not beta > 0:
        raise ValueError("beta must be positive")
    mags = np.abs(e) ** 2
    weight = mags.sum(axis=-1) - _diagonal(mags)
    qdot = instantaneous_current(e)
    total = _square_diagonal(e) / _FOUR_PI
    sdot = ndot = None
    regime_ok = True
    if beta is not None:
        sdot = beta * weight / _FOUR_PI
        ndot = beta * weight / (12.0 * np.pi)
        regime_ok = bool(omega * beta < 1.0 and tau < beta)
    return InstantReport(
        t=t,
        qdot=qdot,
        total_dissipation=total,
        excess=weight / _FOUR_PI,
        residual=total - _joule(qdot),
        regime_ok=regime_ok,
        sdot=sdot,
        ndot=ndot,
    )
