"""Optimality diagnostics.

A pump is optimal exactly when its energy shift is diagonal at all
times; equivalently the dissipation bound is saturated in every channel,
and equivalently the scattering matrix factors as a time-dependent
diagonal unitary times a constant one.  This module measures all three.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import DEFAULT_TOLERANCES, ROUNDING_FLOOR, CycleGrid, Tolerances, frobenius_norm
from .shift import cycle_scale
from .transport import InstantReport

__all__ = [
    "offdiag_ratio",
    "OptimalityVerdict",
    "optimality_verdict",
    "diagonal_decomposition",
]


def offdiag_ratio(e: np.ndarray, scale: float) -> float | np.ndarray:
    """Off-diagonal weight ``||offdiag(E)||_F / scale`` of an (n, n) shift E, a
    float, or of each shift of an (N, n, n) stack, an (N,) array."""
    off = e.copy()
    diag = np.arange(e.shape[-1])
    off[..., diag, diag] = 0.0
    ratio = frobenius_norm(off) / scale
    return ratio if ratio.ndim else float(ratio)


@dataclass(frozen=True, eq=False)
class OptimalityVerdict:
    """Outcome of the cycle-wide optimality sweep.

    ``ratios`` holds the (N,) off-diagonal ratios at the grid times against one
    :func:`~qpump.shift.cycle_scale`, ``scale``, and ``worst_time`` is where they
    peak; ``is_optimal`` is equivalent to ``max_offdiag_ratio < tol_opt``.
    ``per_channel_saturation`` flags channels whose bound residual (their
    off-diagonal weight) stays within what an optimal verdict allows, so optimal
    implies saturated.  ``decomposition``, the pair of :func:`diagonal_decomposition`,
    is attempted (and expected to succeed) exactly when optimal, at the limit an
    optimal verdict implies: ``S(t) S(t_0)^dag`` strays from diagonal by at most the
    integral of ``||offdiag E||_F`` over the cycle, below ``T tol_opt scale``, and
    the limit is that or ``tol_opt``, whichever is larger.
    """

    is_optimal: bool
    max_offdiag_ratio: float
    worst_time: float
    scale: float
    ratios: np.ndarray
    per_channel_saturation: tuple[bool, ...]
    decomposition: tuple[np.ndarray, np.ndarray] | None


def optimality_verdict(shifts: np.ndarray, samples: np.ndarray, instants: InstantReport,
                       grid: CycleGrid,
                       tolerances: Tolerances = DEFAULT_TOLERANCES) -> OptimalityVerdict:
    """Judge optimality from the cycle's energy-shift stack ``shifts`` on ``grid``,
    the samples S(t, mu) it was computed from and its per-channel table
    ``instants`` (:func:`~qpump.transport.instant_report` of ``shifts``),
    whose times give ``worst_time`` and residuals the saturation flags; the
    decomposition is attempted on ``samples`` exactly when it is optimal."""
    tol_opt = tolerances.tol_opt
    scale = cycle_scale(shifts, grid, tol_opt)
    ratios = offdiag_ratio(shifts, scale)
    worst_index = int(np.argmax(ratios))
    max_ratio = float(ratios[worst_index])
    is_optimal = max_ratio < tol_opt
    # an optimal verdict bounds the weight; the floor absorbs rounding in D - (R_K/2) Qdot^2
    saturated = instants.residual.max(axis=0) <= np.maximum(
        ROUNDING_FLOOR * instants.total_dissipation.max(axis=0),
        tol_opt * scale * (tol_opt * scale) / (4.0 * np.pi))
    limit = max(tol_opt, tol_opt * scale * grid.period)
    return OptimalityVerdict(
        is_optimal=is_optimal,
        max_offdiag_ratio=max_ratio,
        worst_time=float(instants.t[worst_index]),
        scale=scale,
        ratios=ratios,
        per_channel_saturation=tuple(bool(b) for b in saturated),
        decomposition=diagonal_decomposition(samples, limit) if is_optimal else None,
    )


def diagonal_decomposition(samples: np.ndarray, limit: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Try to factor the sampled cycle ``samples`` (S(t_i, mu), (N, n, n)) as
    ``S(t_i) = diag(exp(i phases[i])) @ S0``: the pair ``(phases, S0)`` of the
    (N, n) phases, unwrapped along the cycle, and the (n, n) constant S0.

    Anchors ``S0 = S(t_0)``, which must be unitary (as :meth:`~qpump.models.PumpModel.sample`
    certifies), and forms ``M(t_i) = S(t_i) S0^dag``.  The factorization exists when
    every M is diagonal, ``U_d = diag(M)``; its error ``||U_d S0 - S||_F`` is then
    ``sqrt(sum_{j != k} |M_jk|**2 + sum_j (1 - |M_jj|)**2)``, read off M alone.  Absence
    is a value, not an error -- ``None`` is returned unless every off-diagonal entry of M,
    and that error, stays below ``limit``, which the verdict derives from its ``tol_opt``;
    a NaN anywhere in the samples fails that comparison.
    """
    s0 = samples[0]
    m = np.einsum("tij,kj->tik", samples, s0.conj())
    size, diag = np.abs(m), range(samples.shape[-1])
    radial = 1.0 - size[:, diag, diag]
    size[:, diag, diag] = 0.0  # the off-diagonal |M_jk|
    recon_error = np.sqrt((size * size).sum(axis=(1, 2)) + (radial * radial).sum(axis=1))
    if not (float(np.max(size)) < limit and float(np.max(recon_error)) < limit):
        return None
    return np.unwrap(np.angle(np.einsum("tjj->tj", m)), axis=0), s0.copy()
