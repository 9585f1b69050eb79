"""Brute-force side of the dissipation bound.

A time-independent particle source feeding a single channel is fully
described by a filling ``0 <= n(k) <= 1`` of right-moving modes.  Charge
and energy flux are integrals over the measure ``eps'(k) dk``; minimizing
the energy flux at fixed charge flux fills the lowest energies first (the
bathtub principle), giving ``Qdot = mu/2pi`` and ``Edot = mu^2/4pi`` for
the Fermi step at chemical potential mu, hence
``Edot >= pi * Qdot^2 = (R_K/2) Qdot^2``.

Everything here is discretized and independent of the scattering-matrix
machinery, so it serves as an oracle for the bound checked on the
S-matrix side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PumpError
from .matcore import ROUNDING_FLOOR, _integer, _number, _real
from .models import _uniform_rows

__all__ = [
    "DispersionGrid",
    "linear_dispersion",
    "quadratic_dispersion",
    "Filling",
    "greedy_minimize",
    "analytic_minimum",
    "thermal_step",
    "BoundCheck",
    "verify_bound",
]

_TWO_PI = 2.0 * np.pi

#: Random occupations drawn per block of trials in ``verify_bound``.
_BLOCK = 1 << 16

#: Largest ``n_k``: each dispersion array and oracle row holds ``n_k`` floats.
MAX_NK = 2**20


def _grid_fields(k_max, n_k) -> tuple[float, int]:
    """``(k_max, n_k)``: ``n_k`` an integer in [64, MAX_NK], then ``k_max`` a positive
    finite real, or a :class:`ConfigError` named after the ``pump bathtub`` flag."""
    n_k = _integer(n_k, "nk", 64, MAX_NK)
    return _real(k_max, "kmax", positive=True), n_k


@dataclass(frozen=True, eq=False)
class DispersionGrid:
    """Discretized right-moving modes of one channel.

    Nodes sit at the right edge of each cell, ``k_i = (i+1)*k_max/n_k``.
    Putting the node energy at or above everything in its cell keeps
    discrete minimizers from undershooting the continuum bound and makes
    the greedy minimum converge to it at a uniform O(dk) rate; it also
    avoids k = 0, where the weight of a quadratic dispersion vanishes.
    Weights are ``w_i = eps'(k_i) * dk`` (``dk = k_max/n_k``), the cell's share of
    the energy measure and the grid's one record of ``eps'``: as dk > 0, the bound's
    hypothesis ``k * eps'(k) >= 0`` is checked as ``k_i * w_i >= 0``.
    ``k_max`` and ``n_k`` follow :func:`_grid_fields`, as in both builders, and the
    arrays have shape ``(n_k,)``.  A band beyond a double (the full filling's Edot or
    ``pi Qdot^2``, or ``eps(k_max)^2/4pi``, overflows) is a :class:`ConfigError` on ``kmax``.
    """

    k_max: float
    n_k: int
    nodes: np.ndarray = field(repr=False)
    eps: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        k_max, n_k = _grid_fields(self.k_max, self.n_k)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "n_k", n_k)
        shapes = [np.shape(a) for a in (self.nodes, self.eps, self.weights)]
        if shapes != [(n_k,)] * 3:
            raise ValueError(f"nodes, eps and weights must have shape ({n_k},), got {shapes}")
        with np.errstate(over="ignore"):  # an overflow is the ConfigError below
            # Hypotheses of the bound: eps(0) = 0 and k * eps'(k) >= 0.
            if not np.all(self.nodes * self.weights >= 0.0):
                raise ValueError("dispersion must satisfy k * eps'(k) >= 0 on all nodes")
            fluxes = [self.eps @ self.weights, np.pi * np.square(self.max_qdot),
                      analytic_minimum(float(self.eps[-1]))[1]]
        if not np.isfinite(fluxes).all():
            raise ConfigError("kmax", f"{k_max!r} overflows the band: the full filling's Edot, "
                              "its pi*Qdot^2 and eps(k_max)^2/4pi must be finite")
        for a in (self.nodes, self.eps, self.weights):
            a.setflags(write=False)

    @property
    def max_qdot(self) -> float:
        """Largest charge flux any filling can carry."""
        return float(self.weights.sum()) / _TWO_PI


def _nodes(k_max, n_k) -> tuple[float, int, np.ndarray]:
    k_max, n_k = _grid_fields(k_max, n_k)
    return k_max, n_k, (np.arange(n_k) + 1.0) * (k_max / n_k)


def linear_dispersion(k_max: float, n_k: int) -> DispersionGrid:
    """``eps(k) = k`` (constant weight per cell)."""
    k_max, n_k, k = _nodes(k_max, n_k)
    return DispersionGrid(k_max=k_max, n_k=n_k, nodes=k, eps=k,
                          weights=np.ones_like(k) * (k_max / n_k))


def quadratic_dispersion(k_max: float, n_k: int) -> DispersionGrid:
    """``eps(k) = k^2 / 2`` (unit mass)."""
    k_max, n_k, k = _nodes(k_max, n_k)
    with np.errstate(over="ignore"):  # a band beyond a double is DispersionGrid's ConfigError
        eps, weights = 0.5 * k * k, k * (k_max / n_k)
    return DispersionGrid(k_max=k_max, n_k=n_k, nodes=k, eps=eps, weights=weights)


@dataclass(frozen=True, eq=False)
class Filling:
    """Occupation of the grid modes with its fluxes.

    ``qdot = (1/2pi) sum n_i w_i`` and
    ``edot = (1/2pi) sum n_i eps_i w_i`` (e = hbar = 1).
    """

    grid: DispersionGrid
    occupation: np.ndarray
    qdot: float
    edot: float

    @classmethod
    def from_occupation(cls, grid: DispersionGrid, occupation) -> "Filling":
        """A copy of ``occupation``, in [0, 1] up to 1e-12 (NaN is not: a ``ValueError``),
        clipped only where an entry lies outside [0, 1], so ``-0.0`` keeps its bits."""
        n = np.array(occupation, dtype=float)
        if n.shape != (grid.n_k,):
            raise ValueError(f"occupation must have shape ({grid.n_k},), got {n.shape}")
        lo, hi = n.min(), n.max()
        if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):
            raise ValueError("occupations must lie in [0, 1]")
        if lo < 0.0 or hi > 1.0:
            np.clip(n, 0.0, 1.0, out=n)
        qdot, edot = _fluxes(grid, n[None], None)
        n.setflags(write=False)
        return cls(grid=grid, occupation=n, qdot=float(qdot[0]), edot=float(edot[0]))


def _fluxes(grid: DispersionGrid, n: np.ndarray,
            out: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Each row of occupations ``n``'s ``(qdot, edot)``, unchecked, with ``n * eps`` in
    ``out`` (``n`` itself, whose charge fluxes come first; ``None``: a new array).  Each
    flux is its own row-by-column product, one BLAS ``ddot`` per row as in ``row @ weights``;
    one matrix-vector product over the block would sum in another order."""
    w = grid.weights[:, None]
    qdot = (n[:, None, :] @ w)[:, 0, 0] / _TWO_PI
    ne = np.multiply(n, grid.eps, out=out)
    edot = (ne[:, None, :] @ w)[:, 0, 0] / _TWO_PI
    return qdot, edot


def _sorted_modes(grid: DispersionGrid) -> tuple[np.ndarray, ...]:
    """The bathtub order: modes by ascending energy (ties by ascending
    index) as ``(order, weights, eps, cumsum(weights), cumsum(eps*weights))``."""
    order = np.lexsort((np.arange(grid.n_k), grid.eps))
    w, eps = grid.weights[order], grid.eps[order]
    return order, w, eps, np.cumsum(w), np.cumsum(eps * w)


def _greedy_edot(modes: tuple[np.ndarray, ...], budgets: np.ndarray) -> np.ndarray:
    """Energy flux of the greedy filling at each charge budget ``2pi*Qdot``."""
    _, w, eps, cum_w, cum_e = modes
    m = np.minimum(cum_w.searchsorted(budgets, side="left"), len(cum_w) - 1)
    prev, below = m - 1, m > 0  # the modes below the marginal one are filled
    filled_w = np.where(below, cum_w[prev], 0.0)
    filled_e = np.where(below, cum_e[prev], 0.0)
    marginal = np.where(w[m] > 0.0, filled_e + (budgets - filled_w) * eps[m], filled_e)
    return np.where(budgets >= cum_w[-1], cum_e[-1], marginal) / _TWO_PI


def _feasible_budget(grid: DispersionGrid, target_qdot: float) -> float:
    """Charge budget ``2pi*target_qdot`` (the occupied share of the energy measure);
    a :class:`~qpump.errors.PumpError` when the target, NaN included, is not feasible."""
    budget = _TWO_PI * target_qdot
    total = float(grid.weights.sum())
    if not (target_qdot >= 0 and budget <= total * (1.0 + 1e-12)):
        raise PumpError(
            f"target Qdot {target_qdot!r} outside feasible range [0, {total / _TWO_PI!r}]"
        )
    return budget


def greedy_minimize(grid: DispersionGrid, target_qdot: float) -> Filling:
    """Minimize the energy flux at fixed charge flux.

    Fills modes in ascending order of energy (ties broken by ascending
    node index) until the charge budget is spent; the marginal mode gets
    a fractional occupation.  The objective is linear over a box with one
    linear constraint, so this greedy filling is the exact global
    minimizer of the discrete problem.
    """
    budget = _feasible_budget(grid, target_qdot)
    order, w, _, cum, _ = _sorted_modes(grid)
    n_sorted = np.zeros(grid.n_k)
    if budget >= cum[-1]:
        n_sorted[:] = 1.0
    else:
        m = int(np.searchsorted(cum, budget, side="left"))
        n_sorted[:m] = 1.0
        filled = cum[m - 1] if m > 0 else 0.0
        if w[m] > 0.0:
            n_sorted[m] = (budget - filled) / w[m]
        # zero-weight modes carry no charge; leaving them empty is minimal
    n = np.empty(grid.n_k)
    n[order] = n_sorted
    return Filling.from_occupation(grid, n)


def analytic_minimum(mu: float) -> tuple[float, float]:
    """Continuum minimizer at chemical potential mu: ``(mu/2pi, mu^2/4pi)``."""
    return mu / _TWO_PI, mu * mu / (2.0 * _TWO_PI)


def thermal_step(grid: DispersionGrid, mu: float) -> Filling:
    """Zero-temperature Fermi step ``n_i = 1[eps_i < mu]`` for a real
    ``0 < mu <= eps(k_max)``, or a :class:`ConfigError` on ``mu``."""
    mu, top = _number(mu, "mu"), float(grid.eps[-1])
    if not 0 < mu <= top:
        raise ConfigError("mu", f"must lie in (0, eps(k_max)] = (0, {top:g}]")
    return Filling.from_occupation(grid, (grid.eps < mu).astype(float))


@dataclass(frozen=True)
class BoundCheck:
    """Result of the randomized bound verification.

    ``violations`` counts random fillings with ``Edot < pi*Qdot^2 - margin``,
    the margin 64 eps times the grid's largest ``Edot`` (the full filling's),
    and ``max_violation`` is the worst gap beyond it (0.0 when the bound
    held everywhere).  ``greedy_gap_max`` is the largest
    ``Edot_greedy - pi*Qdot^2`` seen at the trial charges -- the
    discretization gap, O(dk) -- and ``step_gap`` the same gap for the
    thermal step at ``mu``.
    """

    trials: int
    violations: int
    max_violation: float
    greedy_gap_max: float
    step_gap: float
    mu: float


def verify_bound(grid: DispersionGrid, trials: int, seed: int = 0,
                 mu: float | None = None) -> BoundCheck:
    """Check ``Edot >= pi * Qdot^2`` on random fillings.

    Each trial draws an independent SplitMix64 stream seeded with
    ``seed + trial`` and fills every mode uniformly in [0, 1).  The
    greedy minimizer is evaluated at each trial's own charge flux, and
    the thermal step at ``mu`` (default: half the band top) is checked
    as the equality case.  Trials are drawn and reduced a block of about
    ``_BLOCK`` occupations at a time, so memory does not grow with
    ``trials``; the result is the same as one trial at a time.  A block,
    in [0, 1) by construction, is not range-checked (the rule lives in
    :class:`Filling`); its ``n * eps`` products are formed in place, and
    the next block is drawn over it.
    ``trials`` (an integer >= 1), ``seed`` (an integer keeping every seed below
    2**64) and ``mu`` are checked in that order, each a :class:`ConfigError`.
    """
    trials = _integer(trials, "trials", 1)
    seed = _integer(seed, "seed", 0, 2**64 - trials)
    mu = 0.5 * float(grid.eps[-1]) if mu is None else mu
    step = thermal_step(grid, mu)

    modes = _sorted_modes(grid)
    margin = ROUNDING_FLOOR * modes[4][-1] / _TWO_PI
    violations = 0
    max_violation = 0.0
    greedy_gap_max = 0.0
    for occ in _uniform_rows(seed, trials, grid.n_k, max(1, _BLOCK // grid.n_k)):
        qdot, edot = _fluxes(grid, occ, occ)
        bound = np.pi * qdot**2
        gap = bound - edot
        violated = gap[gap > margin]
        violations += violated.size
        max_violation = max(max_violation, float(violated.max(initial=0.0)))
        greedy_gap = float((_greedy_edot(modes, _TWO_PI * qdot) - bound).max())
        greedy_gap_max = max(greedy_gap_max, greedy_gap)

    step_gap = step.edot - np.pi * np.square(step.qdot)  # inf, not OverflowError, on a huge band
    return BoundCheck(trials=trials, violations=violations, max_violation=max_violation,
                      greedy_gap_max=greedy_gap_max, step_gap=float(step_gap), mu=float(mu))
