"""Second routes to the package's quantities, kept for the tests.

The package computes each quantity one way: the energy shift by FFT
differentiation of the sampled cycle (``qpump.shift.energy_shift_cycle``),
every per-channel observable in one pass (``qpump.transport.instant_report``),
uniform draws by the vectorized SplitMix64 stream
(``qpump.models.uniform_stream``), the bound by the greedy minimizer
(``qpump.bathtub``), the time delay by the model's declaration
(``qpump.models.PumpModel.delay``), the unitarity defect by a channel-major
Gram (``qpump.matcore.unitarity_defect``) and the decomposition's error from
``M = S S0^dag`` alone (``qpump.optimal.diagonal_decomposition``).  The
routes here reach the same numbers another way -- finite differences in time
and in energy, row overlaps, the outgoing-energy moments, the scalar
generator, per-row flux loops, the two-reservoir form of the bound, the
matrix norm of ``S^dag S - I``, the rebuilt factorization -- or transform a
pump so that a law of the energy shift can be checked (time warp, left
rotation, a right-hand wobble, time reversal).
No package code calls them.  They live with the tests, so the package
ships one route per quantity while each test still compares two; from
the package they import only the private helpers they share with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from qpump.bathtub import DispersionGrid, Filling, _feasible_budget, analytic_minimum
from qpump.errors import NumericalFailure
from qpump.matcore import CycleGrid, hermitian_part, spectral_derivative
from qpump.models import _GAMMA, _MIX1, _MIX2, PumpModel
from qpump.shift import _shift_stack
from qpump.transport import _diagonal, _square_diagonal

_TWO_PI = 2.0 * np.pi
_MASK64 = (1 << 64) - 1


# --------------------------------------------------------------------------
# Energy shift and time delay (qpump.shift, qpump.models).
# --------------------------------------------------------------------------

#: The time-delay stencil's energy step as a fraction of the energy window width.
ENERGY_STEP_FRACTION = 1e-4


def central_derivative(f, x: float, step: float):
    """Fourth-order central difference of ``f`` at ``x`` with the given step.

    Evaluates f at x +/- step and x +/- 2*step.  The stencil is grouped
    into paired differences so a constant f yields exactly zero.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    inner = f(x + step) - f(x - step)
    outer = f(x + 2.0 * step) - f(x - 2.0 * step)
    return (8.0 * inner - outer) / (12.0 * step)


def stencil_delay(model: PumpModel, times, mu: float, dE: float) -> np.ndarray:
    """Wigner time delay ``-i dS/dE S^dag`` at each of ``times``, an exactly
    Hermitian (N, n, n) stack, by a fourth-order central difference of step
    ``dE`` at mu.  It reads S only, never the model's declared ``delay``, so
    the two can be compared; an energy outside the window raises
    :class:`~qpump.errors.ConfigError` on ``energy.mu``."""
    s = model.sample(times, mu)
    ds_de = central_derivative(lambda energy: model.sample(times, energy), mu, dE)
    return hermitian_part(-1j * (ds_de @ s.conj().swapaxes(1, 2)))[0]


def energy_shift_fd(model: PumpModel, t: float, mu: float, grid: CycleGrid) -> np.ndarray:
    """Finite-difference cross-check of the spectral energy shift.

    Differentiates S in time by a fourth-order central difference with
    step ``T/(8N)`` instead of the FFT route; useful for validating the
    spectral pipeline on a new model.
    """
    step = grid.period / (8.0 * grid.samples)
    times = np.array([float(t)])
    ds_dt = central_derivative(lambda u: model.sample([u], mu), float(t), step)
    return _shift_stack(model.sample(times, mu), ds_dt, grid, times)[0][0]


def energy_shift_rows(model: PumpModel, mu: float, grid: CycleGrid) -> np.ndarray:
    """Energy shift assembled from row overlaps ``i <psi_k | dpsi_j/dt>``.

    ``psi_j`` is the j-th row of S and ``<a|b> = sum conj(a_i) b_i``
    (conjugation on the first argument, which is what makes this route
    agree entrywise with the matrix product of :func:`energy_shift_cycle`).
    Returns the raw, unsymmetrized (N, n, n) array -- an independent code
    path used to cross-check the matrix route.
    """
    s = model.sample(grid.times, mu)
    ds = spectral_derivative(s, grid)
    return 1j * np.einsum("tki,tji->tjk", s.conj(), ds)


# --------------------------------------------------------------------------
# Outgoing energy distribution (qpump.transport).
# --------------------------------------------------------------------------


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

    def __post_init__(self):
        if np.any(self.delta_prime_weight > 0.0):
            raise NumericalFailure("delta'-weight must be <= 0 (it is -(E^2)_jj/2)")


def outgoing_symbol(e: np.ndarray) -> OutgoingSymbol:
    """First two moments of the outgoing distribution around mu."""
    return OutgoingSymbol(
        delta_weight=np.real(_diagonal(e)).copy(),
        delta_prime_weight=-0.5 * _square_diagonal(e),
    )


def dissipation_from_symbol(symbol: OutgoingSymbol) -> np.ndarray:
    """Dissipated power recovered from the outgoing symbol.

    The moment integral ``(1/2pi) int dE (E - mu) (n_out - n_in)`` picks
    up nothing from the delta term (vanishing first moment) and ``-b``
    from the delta' term, so it equals ``-delta_prime_weight / 2pi``.
    Must agree with :func:`instant_report`'s ``total_dissipation`` -- the
    two routes share only the energy shift.
    """
    return -symbol.delta_prime_weight / _TWO_PI


# --------------------------------------------------------------------------
# Scalar generator (qpump.models).
# --------------------------------------------------------------------------


class SplitMix64:
    """Seeded 64-bit generator with documented constants: the scalar reference."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """53-bit uniform double in [lo, hi)."""
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0**-53)


# --------------------------------------------------------------------------
# Transforms of a pump (the invariance and covariance laws).
# --------------------------------------------------------------------------


def time_warp(period: float, amplitude: float = 0.1):
    """Smooth monotone cycle reparameterization and its derivative.

    ``f(t) = t + amplitude*(T/2pi)*sin(2*pi*t/T)`` with
    ``f'(t) = 1 + amplitude*cos(2*pi*t/T)``; monotone for |amplitude| < 1
    and compatible with periodicity (``f(t+T) = f(t) + T``).
    """
    if not abs(amplitude) < 1.0:
        raise ValueError("|amplitude| must be < 1 to keep the warp monotone")

    def f(t):
        return t + amplitude * (period / _TWO_PI) * np.sin(_TWO_PI * t / period)

    def fprime(t):
        return 1.0 + amplitude * np.cos(_TWO_PI * t / period)

    return f, fprime


def reparameterized(model: PumpModel, amplitude: float = 0.1) -> PumpModel:
    """The same pump along the warped time ``t -> f(t)``, the warp of the cycle
    angle ``theta -> f(theta)`` over the period 2 pi; keeps ``delay``."""
    f, _ = time_warp(_TWO_PI, amplitude)

    def matrix(theta, energy):
        return model.matrix_fn(f(theta), energy)

    return replace(model, name=f"{model.name}+warp", matrix_fn=matrix)


def left_rotated(model: PumpModel, w: np.ndarray) -> PumpModel:
    """The pump ``S -> W S`` for a constant unitary ``W``, whose energy shift
    is ``W E W^dag``; keeps ``delay`` (``W c I W^dag = c I``)."""
    w = np.asarray(w, dtype=complex)

    def matrix(theta, energy):
        return w @ model.matrix_fn(theta, energy)

    return replace(model, name=f"{model.name}+left", matrix_fn=matrix)


def right_wobbled(model: PumpModel, delta: float) -> PumpModel:
    """The 2-channel pump ``S(t) -> S(t) R(delta sin(2 pi t/T))``, R a real
    rotation; keeps ``delay``.  On a flux loop ``D(t)`` of winding w the
    rotation adds only off-diagonal entries to ``E``, of a ratio about
    ``delta / w``, so the charge stays ``(-w, w)`` while ``S(t) S(t_0)^dag``
    has off-diagonal entries of size delta."""

    def matrix(theta, energy):
        angle = delta * np.sin(theta)
        c, s = np.cos(angle), np.sin(angle)
        rotation = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
        return model.matrix_fn(theta, energy) @ rotation

    return replace(model, name=f"{model.name}+wobble", matrix_fn=matrix)


def time_reversed(model: PumpModel) -> PumpModel:
    """The pump run backwards, ``S'(t) = S(T - t)``, whose energy shift is
    ``-E(T - t)``; keeps ``delay``.  On a cycle grid node i
    maps to node -i mod N, as the cycle angle ``theta -> 2 pi - theta``."""

    def matrix(theta, energy):
        return model.matrix_fn(_TWO_PI - theta, energy)

    return replace(model, name=f"{model.name}+reversed", matrix_fn=matrix)


# --------------------------------------------------------------------------
# Certification and the diagonal decomposition (qpump.matcore, qpump.optimal).
# --------------------------------------------------------------------------


def unitarity_defect_norm(stack: np.ndarray) -> np.ndarray:
    """``||S^dag S - I||_F`` of each matrix of a stack by ``np.linalg.norm``."""
    with np.errstate(invalid="ignore", over="ignore"):
        gram = stack.conj().swapaxes(-1, -2) @ stack - np.eye(stack.shape[-1])
        return np.linalg.norm(gram, axis=(-2, -1))


def rebuilt_decomposition(samples: np.ndarray,
                          limit: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The diagonal decomposition judged by rebuilding it: ``None`` when an
    off-diagonal entry of ``M = S S0^dag`` or ``||diag(exp(i phases)) S0 - S||_F``
    at some node reaches ``limit``, else the unwrapped phases and ``S0 = S(t_0)``.
    Needs no unitary ``S0``."""
    s0 = samples[0]
    m = np.einsum("tij,kj->tik", samples, s0.conj())
    off = m - m * np.eye(samples.shape[-1])[None, :, :]
    if float(np.max(np.abs(off))) >= limit:
        return None
    phases = np.unwrap(np.angle(np.einsum("tjj->tj", m)), axis=0)
    rebuilt = np.exp(1j * phases)[:, :, None] * s0[None, :, :]
    if float(np.max(np.linalg.norm(rebuilt - samples, axis=(1, 2)))) >= limit:
        return None
    return phases, s0.copy()


# --------------------------------------------------------------------------
# Two-reservoir form of the bound (qpump.bathtub).
# --------------------------------------------------------------------------


def reference_fluxes(grid: DispersionGrid, occupations) -> tuple[np.ndarray, np.ndarray]:
    """Each occupation row's ``(qdot, edot)`` by a Python loop of ``row @ weights``
    and ``(row * eps) @ weights``: the scalar route to ``qpump.bathtub``'s block fluxes."""
    w, eps = grid.weights, grid.eps
    qdot = np.array([row @ w for row in occupations]) / _TWO_PI
    edot = np.array([(row * eps) @ w for row in occupations]) / _TWO_PI
    return qdot, edot


def two_sided_bound(mu_minus: float, source: Filling, grid: DispersionGrid) -> tuple[float, float]:
    """Both sides of the dissipation bound for a source feeding a cold
    reservoir at chemical potential ``mu_minus``.

    The reservoir's own fluxes take their continuum values
    ``Qdot_- = mu_-/2pi`` and ``Edot_- = mu_-^2/4pi``; the net fluxes are
    source minus reservoir.  Returns ``(lhs, rhs)`` with
    ``lhs = Edot_net - mu_- * Qdot_net`` and ``rhs = pi * Qdot_net^2``;
    the bound says lhs >= rhs, with equality when the source is itself a
    Fermi sea (up to the O(dk) discretization of the source).
    """
    if not mu_minus >= 0:
        raise ValueError("mu_minus must be >= 0")
    if source.grid is not grid:
        raise ValueError("source filling was built on a different grid")
    qdot_res, edot_res = analytic_minimum(mu_minus)
    edot_net = source.edot - edot_res
    qdot_net = source.qdot - qdot_res
    lhs = edot_net - mu_minus * qdot_net
    rhs = np.pi * qdot_net**2
    return float(lhs), float(rhs)


def project_to_qdot(grid: DispersionGrid, occupation, target_qdot: float) -> Filling:
    """Feasible filling near ``occupation`` with the exact target flux.

    Shifts all occupations by a common amount and re-clips to [0, 1]; the
    shifted flux is monotone in the shift, so bisection lands on the
    target.  Used to build feasible perturbations when certifying the
    greedy minimizer.
    """
    base = np.asarray(occupation, dtype=float)
    if base.shape != (grid.n_k,):
        raise ValueError(f"occupation must have shape ({grid.n_k},)")
    budget = _feasible_budget(grid, target_qdot)

    def flux(shift: float) -> float:
        return float(np.clip(base + shift, 0.0, 1.0) @ grid.weights)

    lo, hi = -1.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if flux(mid) < budget:
            lo = mid
        else:
            hi = mid
    return Filling.from_occupation(grid, np.clip(base + 0.5 * (lo + hi), 0.0, 1.0))
