"""Dense complex matrix numerics on periodic cycles.

Stack norms and defects (Frobenius, unitarity, Hermitian part), the
unitary polar factor, and spectral differentiation on uniform periodic
time grids (:func:`qpump.transport.cycle_integral` is their quadrature).
Matrices travel as plain ``(n, n)`` or ``(N, n, n)`` arrays.  Natural
units are used across the whole package: hbar = e = 1, so Planck's
constant is ``2*pi`` and the von Klitzing resistance ``R_K = h/e**2 = 2*pi``.

Every value here is immutable after construction and every operation is a
pure function of its inputs, so concurrent read-only use is safe.
Reductions rely on numpy's fixed-order summation, which keeps grid sweeps
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, NumericalFailure, SingularInput

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
        Off-diagonal ratio of the energy shift below which a pump counts
        as optimal.  Chosen far above the ~1e-11 noise floor of spectral
        differentiation and far below genuine non-optimality.
    tol_charge : float
        Allowed gap between a cycle charge and its winding integer.
    """

    tol_unitary: float = 1e-10
    tol_herm: float = 1e-6
    tol_opt: float = 1e-8
    tol_charge: float = 1e-8


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

    ``samples`` must be a power of two (radix-2 FFT differentiation) and
    at least 8.  Node i sits at ``i*period/samples``; the endpoint
    ``t = period`` is identified with ``t = 0`` by periodicity.
    """

    period: float
    samples: int
    times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.samples
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ValueError("samples must be an integer")
        if n < 8 or n & (n - 1):
            raise ValueError(f"samples must be a power of two >= 8, got {n}")
        real = isinstance(self.period, (int, float, np.integer, np.floating))
        try:
            period = float(self.period) if real and not isinstance(self.period, bool) else np.nan
        except OverflowError:  # an integer beyond the largest double
            period = np.inf
        if not (np.isfinite(period) and period / n > 0):
            raise ValueError("period must be a positive finite real whose step period/samples is not 0")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "samples", int(n))
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


def unitarity_defect(stack: np.ndarray) -> np.ndarray:
    """``||S^dag S - I||_F`` of each matrix in a stack (nan where S is not finite)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return frobenius_norm(stack.conj().swapaxes(-1, -2) @ stack - np.eye(stack.shape[-1]))


def hermitian_part(raw: np.ndarray, scale=None) -> tuple[np.ndarray, np.ndarray]:
    """Exactly self-adjoint ``(M + M^dag)/2`` of each matrix in a stack, and
    the discarded part's size ``||M - M^dag||_F / scale`` (0 if the scale is
    0), by default relative to the stack's largest ``||M||_F``."""
    adj = raw.conj().swapaxes(-1, -2)
    scale = frobenius_norm(raw).max() if scale is None else scale
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        defect = np.where(scale > 0.0, frobenius_norm(raw - adj) / scale, 0.0)
    return 0.5 * (raw + adj), defect


def unitarize(m) -> np.ndarray:
    """Project a nonsingular matrix onto the unitary group.

    Returns the unitary polar factor U V^dag from the singular value
    decomposition ``m = U diag(s) V^dag`` as a read-only ``(n, n)`` array;
    an already-unitary input is returned unchanged up to rounding.

    Raises
    ------
    SingularInput
        If the smallest singular value is at or below 1e-12.
    NumericalFailure
        If the factor's unitarity defect exceeds ``Tolerances.tol_unitary``.
    """
    u, s, vh = np.linalg.svd(_square_matrix(m))
    if s[-1] <= 1e-12:
        raise SingularInput(
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
        raise GridMismatch(f"got {samples.shape[0]} samples for a grid of {n} nodes")
    freq = 2j * np.pi * np.fft.fftfreq(n, d=grid.dt)
    freq[n // 2] = 0.0
    shape = (n,) + (1,) * (samples.ndim - 1)
    return np.fft.ifft(np.fft.fft(samples, axis=0) * freq.reshape(shape), axis=0)
