"""Dense complex matrix numerics on periodic cycles.

Stack norms and defects (Frobenius, unitarity, Hermitian part), the
unitary polar factor, and spectral differentiation on uniform periodic
time grids (:func:`qpump.transport.cycle_integral` is their quadrature).
Its scalar input rules (a real number, or a finite and optionally positive one,
an integer in a range, a power of two) check :class:`Tolerances`, :class:`CycleGrid`
and the values of models, bathtub and reports.
Matrices travel as plain ``(n, n)`` or ``(N, n, n)`` arrays.  Natural
units are used across the whole package: hbar = e = 1, so Planck's
constant is ``2*pi`` and the von Klitzing resistance ``R_K = h/e**2 = 2*pi``.

Every value here is immutable after construction and every operation is a
pure function of its inputs, so concurrent read-only use is safe.
Reductions rely on numpy's fixed-order summation, which keeps grid sweeps
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, NumericalFailure, PumpError

__all__ = [
    "R_K",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "CycleGrid",
    "unitarize",
    "frobenius_norm",
    "unitarity_defect",
    "hermitian_part",
    "spectral_derivative",
]

R_K = 2.0 * np.pi  #: von Klitzing resistance h/e**2 in natural units

#: Rounding a certified gate absorbs below its user tolerance, relative to the scale
#: of the quantity it gates: the unitarity defect (against ``||I||_F``), the
#: dissipation-bound residual (against max D), an optimal pump's charge gap
#: (against ``T max|Qdot|``) and the bathtub margin (against the full filling's Edot).
ROUNDING_FLOOR = 64.0 * np.finfo(float).eps


def _number(value, fieldname: str) -> float:
    """``value`` as a float (inf beyond the largest double): a real number that is
    not a bool, numpy scalars included; otherwise a :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(fieldname, "must be a real number")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the largest double
        return math.inf


def _real(value, fieldname: str, *, positive=False) -> float:
    """A :func:`_number` that is finite (and optionally positive), or a :class:`ConfigError`."""
    v = _number(value, fieldname)
    if not math.isfinite(v):
        raise ConfigError(fieldname, "must be finite")
    if positive and v <= 0:
        raise ConfigError(fieldname, f"must be positive, got {v!r}")
    return v


def _integer(value, fieldname: str, lo=-math.inf, hi=math.inf) -> int:
    """``value`` as an int: an integer that is not a bool, numpy integers
    included, in ``[lo, hi]``; otherwise a :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(fieldname, "must be an integer")
    value = int(value)
    if not lo <= value <= hi:
        raise ConfigError(fieldname, f"must lie in [{lo}, {hi}], got {value}")
    return value


def _power_of_two(value, fieldname: str, minimum: int = 1) -> int:
    """An :func:`_integer` that is a power of two ``>= minimum``, or a :class:`ConfigError`."""
    value = _integer(value, fieldname)
    if value < minimum or value & (value - 1):
        raise ConfigError(fieldname, f"must be a power of two >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class Tolerances:
    """Central numerical tolerances: in field order, the configuration's
    ``tolerances`` keys and the report's ``versions.tolerances`` echo.

    Attributes
    ----------
    tol_unitary : float
        Frobenius norm allowed in ``S^dag S - I`` when certifying a
        unitary matrix.
    tol_herm : float
        Relative non-Hermiticity of a computed energy shift at or above
        which the analysis report carries a warning.
    tol_opt : float
        Off-diagonal ratio of the energy shift (against the cycle's scale,
        :func:`qpump.shift.cycle_scale`) below which a pump counts as optimal;
        saturation and the diagonal decomposition take their limits from it.
    tol_charge : float
        Allowed gap between a cycle charge and its winding integer, beyond
        the verdict's second-order ``T scale ratio**2``.

    Each field is stored as a float and must be a positive finite real (not a
    bool), or :class:`~qpump.errors.ConfigError` names the first faulty one.
    """

    tol_unitary: float = 1e-10
    tol_herm: float = 1e-6
    tol_opt: float = 1e-8
    tol_charge: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = _real(getattr(self, f.name), f"tolerances.{f.name}", positive=True)
            object.__setattr__(self, f.name, value)


DEFAULT_TOLERANCES = Tolerances()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _square_matrix(array) -> np.ndarray:
    """Read-only complex copy of a square matrix; :class:`ValueError`
    unless it is at least 1x1 with finite entries."""
    a = np.array(array, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return _frozen(a)


@dataclass(frozen=True, eq=False)
class CycleGrid:
    """Uniform time grid over one pump period.

    ``samples`` must be a power of two (radix-2 FFT differentiation) and at
    least 8, ``period`` a positive finite real whose step ``period/samples``
    is not 0; else a :class:`~qpump.errors.ConfigError` on ``cycle.samples``
    or ``cycle.period``.  Node i sits at ``i*period/samples``; the endpoint
    ``t = period`` is identified with ``t = 0`` by periodicity.
    """

    period: float
    samples: int
    times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = _power_of_two(self.samples, "cycle.samples", 8)
        period = _real(self.period, "cycle.period", positive=True)
        if not period / n > 0:
            raise ConfigError("cycle.period", f"{period!r} / {n} samples underflows to zero")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "samples", n)
        times = np.arange(self.samples) * (self.period / self.samples)
        object.__setattr__(self, "times", _frozen(times))

    @property
    def dt(self) -> float:
        return self.period / self.samples


def frobenius_norm(stack: np.ndarray) -> np.ndarray:
    """Frobenius norms over the last two axes of a matrix stack, each bit for
    bit ``np.linalg.norm`` of its matrix: the same BLAS dot products of the
    real and the imaginary parts, batched as row-by-column ``matmul``."""
    flat = stack.reshape(stack.shape[:-2] + (-1,))
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    sq = sum((x[..., None, :] @ x[..., :, None])[..., 0, 0] for x in parts)
    return np.sqrt(sq)


#: Largest channel count whose stacks are certified channel-major.  Measured on
#: stacks of N = 64 to 1024 nodes: one einsum beats batched ``matmul`` up to
#: n = 4, ties it at n = 5 and loses from n = 6 on.
CHANNEL_MAJOR_MAX_N = 4


def unitarity_defect(stack: np.ndarray) -> np.ndarray:
    """``||S^dag S - I||_F`` of each matrix in an (N, n, n) stack, or of one (n, n)
    matrix as a 0-d array; non-finite where S is not finite.

    The kernel is chosen by n alone.  Up to ``CHANNEL_MAJOR_MAX_N`` channels the
    stack is copied channel-major, ``(n, n, N)`` with the nodes innermost (entry
    ``[j, i]`` holds ``S_ij`` of every node), and one einsum forms each Gram entry
    as a sum of n products of N-long vectors.  Above it the batched ``matmul`` of
    ``S^dag S`` is faster.
    """
    n = stack.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):
        if n > CHANNEL_MAJOR_MAX_N:
            return frobenius_norm(stack.conj().swapaxes(-1, -2) @ stack - np.eye(n))
        columns = np.ascontiguousarray(stack.T)
        gram = np.einsum("ji...,ki...->jk...", columns.conj(), columns)
        gram.reshape(n * n, -1)[:: n + 1] -= 1.0  # the diagonal, every node
        return np.sqrt((gram.real ** 2 + gram.imag ** 2).sum(axis=(0, 1)))


def hermitian_part(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exactly self-adjoint ``(M + M^dag)/2`` of each matrix in a stack, and
    the discarded part's size ``||M - M^dag||_F``."""
    adj = raw.conj().swapaxes(-1, -2)
    return 0.5 * (raw + adj), frobenius_norm(raw - adj)


def unitarize(m) -> np.ndarray:
    """Project a nonsingular matrix onto the unitary group.

    Returns the unitary polar factor U V^dag from the singular value
    decomposition ``m = U diag(s) V^dag`` as a read-only ``(n, n)`` array;
    an already-unitary input is returned unchanged up to rounding.

    Raises
    ------
    PumpError
        If the smallest singular value is at or below 1e-12.
    NumericalFailure
        If the factor's unitarity defect exceeds ``Tolerances.tol_unitary``.
    """
    u, s, vh = np.linalg.svd(_square_matrix(m))
    if s[-1] <= 1e-12:
        raise PumpError(
            f"smallest singular value {s[-1]:.3e} <= 1e-12; no unitary polar factor"
        )
    factor, limit = u @ vh, DEFAULT_TOLERANCES.tol_unitary
    defect = float(unitarity_defect(factor))
    if defect > limit:
        raise NumericalFailure(f"unitarity defect {defect:.3e} exceeds tolerance {limit:g}")
    return _frozen(factor)


def spectral_derivative(samples: np.ndarray, grid: CycleGrid) -> np.ndarray:
    """Differentiate an ``(N, ...)`` periodic array with respect to time.

    Entrywise Fourier differentiation on the cycle grid: exact for
    trigonometric polynomials of degree < N/2 sampled on N nodes.  The
    Nyquist coefficient (mode N/2) carries no derivative information for
    data sampled on N points and is dropped.
    """
    n = grid.samples
    if samples.shape[0] != n:
        raise PumpError(f"got {samples.shape[0]} samples for a grid of {n} nodes")
    freq = 2j * np.pi * np.fft.fftfreq(n, d=grid.dt)
    freq[n // 2] = 0.0
    shape = (n,) + (1,) * (samples.ndim - 1)
    return np.fft.ifft(np.fft.fft(samples, axis=0) * freq.reshape(shape), axis=0)
