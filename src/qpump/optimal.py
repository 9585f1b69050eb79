"""Optimality diagnostics.

A pump is optimal exactly when its energy shift is diagonal at all
times; equivalently the dissipation bound is saturated in every channel,
and equivalently the scattering matrix factors as a time-dependent
diagonal unitary times a constant one.  This module measures all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import DEFAULT_TOLERANCES, Tolerances, frobenius_norm
from .transport import RESIDUAL_FLOOR, InstantReport

__all__ = [
    "offdiag_ratio",
    "OptimalityVerdict",
    "optimality_verdict",
    "diagonal_decomposition",
]

#: Exclusive limit of :func:`diagonal_decomposition`'s off-diagonal and reconstruction errors.
DECOMPOSITION_TOL = 1e-8


def offdiag_ratio(e: np.ndarray) -> float | np.ndarray:
    """Relative off-diagonal weight ``||offdiag(E)||_F / ||E||_F``.

    Scale free, so slow and fast cycles are judged alike.  A motionless
    pump (an energy shift of exactly zero) is vacuously optimal: ratio 0.
    A float for an (n, n) shift E, an (N,) array for an (N, n, n) stack.
    """
    total = frobenius_norm(e)
    off = e.copy()
    diag = np.arange(e.shape[-1])
    off[..., diag, diag] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(total == 0.0, 0.0, frobenius_norm(off) / total)
    return ratio if ratio.ndim else float(ratio)


@dataclass(frozen=True, eq=False)
class OptimalityVerdict:
    """Outcome of the cycle-wide optimality sweep.

    ``is_optimal`` is equivalent to ``max_offdiag_ratio < tol_opt``;
    ``ratios`` holds the (N,) off-diagonal ratio at every grid time and
    ``worst_time`` is where it peaks.  ``per_channel_saturation``
    flags channels whose dissipation-bound residual stays at rounding
    level relative to their dissipation scale.  ``decomposition``, the
    pair of :func:`diagonal_decomposition`, is attempted (and expected to
    succeed) exactly when the verdict is optimal.
    """

    is_optimal: bool
    max_offdiag_ratio: float
    worst_time: float
    ratios: np.ndarray
    per_channel_saturation: tuple[bool, ...]
    decomposition: tuple[np.ndarray, np.ndarray] | None


def _saturation_flags(instants: InstantReport, tol: Tolerances) -> tuple[bool, ...]:
    worst = instants.residual.max(axis=0)
    scale = instants.total_dissipation.max(axis=0)
    # tol_opt bounds the off-diagonal *ratio*; residuals scale with its
    # square.  The floor absorbs rounding in ``D - (R_K/2) Qdot^2``.
    threshold = np.maximum(RESIDUAL_FLOOR * scale, tol.tol_opt**2 * scale)
    return tuple(bool(b) for b in worst <= threshold)


def optimality_verdict(shifts: np.ndarray, samples: np.ndarray, instants: InstantReport,
                       tolerances: Tolerances = DEFAULT_TOLERANCES) -> OptimalityVerdict:
    """Judge optimality from the cycle's energy-shift stack ``shifts``, the
    samples S(t, mu) it was computed from and its per-channel table
    ``instants`` (:func:`~qpump.transport.instant_report` of ``shifts``),
    whose times give ``worst_time`` and residuals the saturation flags; the
    decomposition is attempted on ``samples`` exactly when it is optimal."""
    ratios = offdiag_ratio(shifts)
    worst_index = int(np.argmax(ratios))
    max_ratio = float(ratios[worst_index])
    is_optimal = max_ratio < tolerances.tol_opt
    return OptimalityVerdict(
        is_optimal=is_optimal,
        max_offdiag_ratio=max_ratio,
        worst_time=float(instants.t[worst_index]),
        ratios=ratios,
        per_channel_saturation=_saturation_flags(instants, tolerances),
        decomposition=diagonal_decomposition(samples) if is_optimal else None,
    )


def diagonal_decomposition(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Try to factor the sampled cycle ``samples`` (S(t_i, mu), (N, n, n)) as
    ``S(t_i) = diag(exp(i phases[i])) @ S0``: the pair ``(phases, S0)`` of the
    (N, n) phases, unwrapped along the cycle, and the (n, n) constant S0.

    Anchors ``S0 = S(t_0)`` (any fixed gauge works; the first node is
    canonical) and forms ``M(t_i) = S(t_i) S0^dag``.  The factorization
    exists when every M is diagonal: then ``U_d = diag(M)`` up to
    rounding.  Absence is a value, not an error -- ``None`` is returned
    when any off-diagonal entry of M, or the reconstruction error, reaches
    ``DECOMPOSITION_TOL``.
    """
    s0 = samples[0]
    m = np.einsum("tij,kj->tik", samples, s0.conj())
    off = m - m * np.eye(samples.shape[-1])[None, :, :]
    if float(np.max(np.abs(off))) >= DECOMPOSITION_TOL:
        return None
    phases = np.unwrap(np.angle(np.einsum("tjj->tj", m)), axis=0)
    rebuilt = np.exp(1j * phases)[:, :, None] * s0[None, :, :]
    recon_error = float(np.max(np.linalg.norm(rebuilt - samples, axis=(1, 2))))
    if recon_error >= DECOMPOSITION_TOL:
        return None
    return phases, s0.copy()
