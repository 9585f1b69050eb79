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

The sign convention is fixed by the current law: positive ``Qdot_j``
means net charge entering reservoir j.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotOptimal, NumericalFailure, PhaseStepTooLarge
from .matcore import DEFAULT_TOLERANCES, R_K, CycleGrid, Tolerances, periodic_integral
from .models import PumpModel, build
from .shift import EnergyShift, energy_shift_cycle, sample_cycle

__all__ = [
    "instantaneous_current",
    "Dissipation",
    "dissipation",
    "bound_residual",
    "EntropyNoise",
    "entropy_noise",
    "OutgoingSymbol",
    "outgoing_symbol",
    "dissipation_from_symbol",
    "cycle_integral",
    "cycle_charge",
    "winding_charge",
    "dequantization_sweep",
    "InstantReport",
    "instant_report",
]

_TWO_PI = 2.0 * np.pi
_FOUR_PI = 4.0 * np.pi


def _diagonal(m: np.ndarray) -> np.ndarray:
    return np.diagonal(m, axis1=-2, axis2=-1)


def _square_diagonal(e: EnergyShift) -> np.ndarray:
    """Diagonal of E^2 via the matrix product (real for Hermitian E)."""
    m = e.array
    return np.real(np.einsum("...jk,...kj->...j", m, m))


def _offdiagonal_weight(e: EnergyShift) -> np.ndarray:
    """Per-channel sum_{k != j} |E_jk|^2, summed entry by entry."""
    mags = np.abs(e.array) ** 2
    return mags.sum(axis=-1) - _diagonal(mags)


def instantaneous_current(e: EnergyShift) -> np.ndarray:
    """Net current into each reservoir: ``Qdot_j = E_jj / 2pi``."""
    return np.real(_diagonal(e.array)) / _TWO_PI


class Dissipation(NamedTuple):
    """Per-channel dissipated power and its split.

    ``total = joule + excess`` holds as an entrywise identity;
    ``joule = (R_K/2) Qdot^2`` is the reversible-limit floor and
    ``excess`` is the off-diagonal contribution.
    """

    total: np.ndarray
    joule: np.ndarray
    excess: np.ndarray


def dissipation(e: EnergyShift) -> Dissipation:
    """Dissipated power per channel, ``D_j = (E^2)_jj / 4pi``."""
    total = _square_diagonal(e) / _FOUR_PI
    qdot = instantaneous_current(e)
    joule = 0.5 * R_K * qdot**2
    excess = _offdiagonal_weight(e) / _FOUR_PI
    return Dissipation(total=total, joule=joule, excess=excess)


def bound_residual(e: EnergyShift) -> np.ndarray:
    """Slack in the dissipation bound, ``D_j - (R_K/2) Qdot_j^2``.

    Computed by actual subtraction of the two sides (not from the
    off-diagonal closed form) so the inequality is genuinely exercised;
    algebraically it equals ``sum_{k != j} |E_jk|^2 / 4pi >= 0``.
    """
    d = dissipation(e)
    return d.total - d.joule


class EntropyNoise(NamedTuple):
    sdot: np.ndarray
    ndot: np.ndarray
    regime_ok: bool


def entropy_noise(e: EnergyShift, beta: float, omega: float, tau: float) -> EntropyNoise:
    """Entropy and noise production rates at inverse temperature beta.

    Both are proportional to the excess (off-diagonal) weight; the
    prefactors beta/4pi and beta/12pi make their ratio exactly 3.
    ``regime_ok`` records the strict window ``omega < 1/beta < 1/tau``
    in which rates per unit time are meaningful; outside it the values
    are still returned, only flagged.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    weight = _offdiagonal_weight(e)
    sdot = beta * weight / _FOUR_PI
    ndot = beta * weight / (12.0 * np.pi)
    regime_ok = bool(omega * beta < 1.0 and tau < beta)
    return EntropyNoise(sdot=sdot, ndot=ndot, regime_ok=regime_ok)


@dataclass(frozen=True, eq=False)
class OutgoingSymbol:
    """Semiclassical symbol of the outgoing energy distribution.

    On channel j the distribution is the Fermi step plus
    ``delta_weight[j] * delta(E - mu) + delta_prime_weight[j] * delta'(E - mu)``
    with ``delta_weight = E_jj`` and ``delta_prime_weight = -(E^2)_jj / 2``
    (never positive).
    """

    delta_weight: np.ndarray
    delta_prime_weight: np.ndarray
    mu: float

    def __post_init__(self):
        if np.any(self.delta_prime_weight > 0.0):
            raise NumericalFailure("delta'-weight must be <= 0 (it is -(E^2)_jj/2)")


def outgoing_symbol(e: EnergyShift) -> OutgoingSymbol:
    """First two moments of the outgoing distribution around mu."""
    return OutgoingSymbol(
        delta_weight=np.real(_diagonal(e.array)).copy(),
        delta_prime_weight=-0.5 * _square_diagonal(e),
        mu=e.mu,
    )


def dissipation_from_symbol(symbol: OutgoingSymbol) -> np.ndarray:
    """Dissipated power recovered from the outgoing symbol.

    The moment integral ``(1/2pi) int dE (E - mu) (n_out - n_in)`` picks
    up nothing from the delta term (vanishing first moment) and ``-b``
    from the delta' term, so it equals ``-delta_prime_weight / 2pi``.
    Must agree with :func:`dissipation` -- the two routes share only the
    energy shift.
    """
    return -symbol.delta_prime_weight / _TWO_PI


def cycle_integral(rates: np.ndarray, grid: CycleGrid) -> np.ndarray:
    """Integral over one period of each column of an (N, n) rate table."""
    return np.array([
        periodic_integral(rates[:, j], grid).real for j in range(rates.shape[1])
    ])


def cycle_charge(model: PumpModel, mu: float, grid: CycleGrid) -> np.ndarray:
    """Charge pumped into each reservoir over one cycle (units of e).

    Time integral of the instantaneous current; positive entries mean
    net charge delivered to that reservoir.
    """
    shifts = energy_shift_cycle(model, mu, grid)
    return cycle_integral(instantaneous_current(shifts), grid)


def winding_charge(model: PumpModel, mu: float, grid: CycleGrid,
                   tolerances: Tolerances = DEFAULT_TOLERANCES,
                   samples: np.ndarray | None = None,
                   shifts: EnergyShift | None = None) -> np.ndarray:
    """Integer winding of each scattering-matrix row over the cycle.

    Tracks the phase of each row against its start and counts full turns;
    on an optimal pump this equals the cycle charge.  Each grid interval
    is split in half and the two half-overlap angles are summed: a true
    advance of pi or more -- which a single overlap would silently alias
    into (-pi, pi] -- then shows up as an out-of-range step and raises
    :class:`PhaseStepTooLarge` instead of miscounting.

    Raises :class:`NotOptimal` when the off-diagonal ratio of the energy
    shift anywhere exceeds ``tol_opt``: for a non-optimal pump the rows
    change direction, not just phase, and no integer winding exists.
    ``samples`` (S(t, mu) on the grid) and ``shifts`` (its energy shift)
    may be passed to avoid recomputing them.
    """
    from .optimal import offdiag_ratio  # deferred: optimal depends on this module

    s = sample_cycle(model, mu, grid) if samples is None else samples
    if shifts is None:
        shifts = energy_shift_cycle(model, mu, grid, samples=s)
    worst = float(np.max(offdiag_ratio(shifts)))
    if worst >= tolerances.tol_opt:
        raise NotOptimal(
            f"max off-diagonal ratio {worst:.3e} >= tol_opt {tolerances.tol_opt:g}; "
            "winding numbers are defined for optimal pumps only"
        )

    # Row overlaps <row j at t_i | row j at t_i + dt/2> and on to t_{i+1}.
    mids = model.sample(grid.times + 0.5 * grid.dt, mu)
    z1 = np.einsum("tjk,tjk->tj", s.conj(), mids)
    z2 = np.einsum("tjk,tjk->tj", mids.conj(), np.roll(s, -1, axis=0))
    vanish = np.minimum(np.abs(z1), np.abs(z2)) < 1e-12
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


def dequantization_sweep(deltas: Sequence[float], mu: float, grid: CycleGrid):
    """Cycle charges of the perturbed flux loop (k_ell = 1, the grid's
    period, the default energy window) across mixing amplitudes.

    ``deltas`` must include 0 (the quantized reference point).  Returns
    ``[(delta, charges), ...]`` in input order; the charges leave the
    integers continuously as |delta| grows.
    """
    if not any(d == 0 for d in deltas):
        raise ValueError("deltas must include 0 as the quantized reference")
    out = []
    for delta in deltas:
        model = build("perturbed-flux-loop", {"k_ell": 1.0, "delta": float(delta)},
                      period=grid.period, mu=mu)
        out.append((float(delta), cycle_charge(model, mu, grid)))
    return out


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
        if np.any(self.residual < -1e-12):
            raise NumericalFailure(
                f"dissipation bound violated: min residual {self.residual.min():.3e}"
            )
        joule = 0.5 * R_K * self.qdot**2
        gap = np.abs(self.total_dissipation - (joule + self.excess))
        allowed = 1e-12 * np.maximum(1.0, np.abs(self.total_dissipation))
        if np.any(gap > allowed):
            raise NumericalFailure("dissipation decomposition identity failed")


def instant_report(e: EnergyShift, beta: float | None = None,
                   omega: float = 0.0, tau: float = 0.0) -> InstantReport:
    """Assemble the report of an energy shift at one time or over a stack."""
    d = dissipation(e)
    sdot = ndot = None
    regime_ok = True
    if beta is not None:
        en = entropy_noise(e, beta, omega, tau)
        sdot, ndot, regime_ok = en.sdot, en.ndot, en.regime_ok
    return InstantReport(
        t=e.t,
        qdot=instantaneous_current(e),
        total_dissipation=d.total,
        excess=d.excess,
        residual=d.total - d.joule,  # bound_residual(e), without recomputing d
        regime_ok=regime_ok,
        sdot=sdot,
        ndot=ndot,
    )
