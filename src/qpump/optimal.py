"""Optimality diagnostics.

A pump is optimal exactly when its energy shift is diagonal at all
times; equivalently the dissipation bound is saturated in every channel,
and equivalently the scattering matrix factors as a time-dependent
diagonal unitary times a constant one.  This module measures all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import DEFAULT_TOLERANCES, CycleGrid, Tolerances, frobenius_norm
from .models import PumpModel
from .shift import EnergyShift, energy_shift_cycle, sample_cycle
from .transport import dissipation

__all__ = [
    "offdiag_ratio",
    "DiagonalDecomposition",
    "OptimalityVerdict",
    "optimality_verdict",
    "diagonal_decomposition",
]

#: Energy shifts with Frobenius norm below this are treated as motionless.
MOTIONLESS_NORM = 1e-14

#: Exclusive limit of :func:`diagonal_decomposition`'s off-diagonal and reconstruction errors.
DECOMPOSITION_TOL = 1e-8


def offdiag_ratio(e: EnergyShift) -> float | np.ndarray:
    """Relative off-diagonal weight ``||offdiag(E)||_F / ||E||_F``.

    Scale free, so slow and fast cycles are judged alike.  A motionless
    pump (vanishing energy shift) is vacuously optimal: ratio 0.  A float
    at one time, an (N,) array over a stack.
    """
    m = e.array
    total = frobenius_norm(m)
    off = m.copy()
    diag = np.arange(m.shape[-1])
    off[..., diag, diag] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(total < MOTIONLESS_NORM, 0.0, frobenius_norm(off) / total)
    return ratio if ratio.ndim else float(ratio)


@dataclass(frozen=True, eq=False)
class DiagonalDecomposition:
    """Factorization ``S(t_i) = diag(exp(i phases[i])) @ constant``.

    ``phases`` has shape (N, n) and is unwrapped along the cycle;
    ``constant`` is the (n, n) scattering matrix at the first grid node.
    """

    phases: np.ndarray
    constant: np.ndarray


@dataclass(frozen=True, eq=False)
class OptimalityVerdict:
    """Outcome of the cycle-wide optimality sweep.

    ``is_optimal`` is equivalent to ``max_offdiag_ratio < tol_opt``;
    ``worst_time`` is where the ratio peaks.  ``per_channel_saturation``
    flags channels whose dissipation-bound residual stays at rounding
    level relative to their dissipation scale.  ``decomposition`` is
    attempted (and expected to succeed) exactly when the verdict is
    optimal.
    """

    is_optimal: bool
    max_offdiag_ratio: float
    worst_time: float
    per_channel_saturation: tuple[bool, ...]
    decomposition: DiagonalDecomposition | None


def _saturation_flags(shifts: EnergyShift, tol: Tolerances) -> tuple[bool, ...]:
    d = dissipation(shifts)
    worst = (d.total - d.joule).max(axis=0)  # bound_residual(shifts), from the same d
    scale = d.total.max(axis=0)
    # tol_opt bounds the off-diagonal *ratio*; residuals scale with its
    # square.  The eps floor absorbs rounding in the subtraction.
    threshold = np.maximum(64.0 * np.finfo(float).eps * scale, tol.tol_opt**2 * scale)
    return tuple(bool(b) for b in worst <= threshold)


def optimality_verdict(model: PumpModel, mu: float, grid: CycleGrid,
                       tolerances: Tolerances = DEFAULT_TOLERANCES,
                       shifts: EnergyShift | None = None,
                       samples: np.ndarray | None = None) -> OptimalityVerdict:
    """Sweep the cycle and judge optimality.

    Precomputed ``samples`` (S(t, mu) on the grid) and ``shifts`` (their
    energy-shift stack) may be passed to avoid resampling; they must come
    from the same (model, mu, grid).
    """
    if shifts is None:
        if samples is None:
            samples = sample_cycle(model, mu, grid)
        shifts = energy_shift_cycle(model, mu, grid, samples=samples)
    ratios = offdiag_ratio(shifts)
    worst_index = int(np.argmax(ratios))
    max_ratio = float(ratios[worst_index])
    is_optimal = max_ratio < tolerances.tol_opt
    decomposition = None
    if is_optimal:
        decomposition = diagonal_decomposition(model, mu, grid, samples=samples)
    return OptimalityVerdict(
        is_optimal=is_optimal,
        max_offdiag_ratio=max_ratio,
        worst_time=float(shifts.t[worst_index]),
        per_channel_saturation=_saturation_flags(shifts, tolerances),
        decomposition=decomposition,
    )


def diagonal_decomposition(model: PumpModel, mu: float, grid: CycleGrid,
                           samples: np.ndarray | None = None) -> DiagonalDecomposition | None:
    """Try to factor the cycle as ``S(t) = U_d(t) S0``.

    Anchors ``S0 = S(t_0)`` (any fixed gauge works; the first node is
    canonical) and forms ``M(t_i) = S(t_i) S0^dag``.  The factorization
    exists when every M is diagonal: then ``U_d = diag(M)`` up to
    rounding.  Absence is a value, not an error -- ``None`` is returned
    when any off-diagonal entry of M, or the reconstruction error, reaches
    ``DECOMPOSITION_TOL``.  ``samples`` may supply S(t, mu) on the grid.
    """
    s = sample_cycle(model, mu, grid) if samples is None else samples
    s0 = s[0]
    m = np.einsum("tij,kj->tik", s, s0.conj())
    off = m - m * np.eye(model.n_channels)[None, :, :]
    if float(np.max(np.abs(off))) >= DECOMPOSITION_TOL:
        return None
    phases = np.unwrap(np.angle(np.einsum("tjj->tj", m)), axis=0)
    rebuilt = np.exp(1j * phases)[:, :, None] * s0[None, :, :]
    recon_error = float(np.max(np.linalg.norm(rebuilt - s, axis=(1, 2))))
    if recon_error >= DECOMPOSITION_TOL:
        return None
    return DiagonalDecomposition(phases=phases, constant=s0.copy())
