"""Built-in pump models and configuration parsing.

A pump model is an evaluatable family ``(t, E) -> S`` of frozen unitary
scattering matrices, periodic in t with the pump period and defined for
energies inside a validity window.  Four families are built in:

``flux-loop``
    Two channels reflecting off a loop threaded by a linearly ramped
    flux: ``S = diag(exp(i(k(E)l + Phi(t))), exp(i(k(E)l - Phi(t))))``
    with ``Phi(t) = 2*pi*w*t/T``.  The dispersion is linear, ``E = v*k``,
    and the loop length enters through the dimensionless phase
    ``k_ell = k(mu)*l`` at the reference chemical potential, so the phase
    at energy E is ``k_ell*E/mu``.
``perturbed-flux-loop``
    The flux loop left-multiplied by a real rotation
    ``R(delta*sin(2*pi*t/T))``, which mixes the channels and pulls the
    cycle charge off its integer value; ``delta = 0`` recovers the flux
    loop exactly.
``diagonal-times-constant``
    ``S(t) = U_d(t) S0`` with ``U_d`` a diagonal unitary whose phases are
    low-degree trigonometric polynomials plus integer windings, and S0 a
    fixed unitary.  Energy independent.
``random-smooth-path``
    ``S(t) = exp(i H(t)) S0`` with H a Hermitian trigonometric polynomial
    drawn from a seeded generator.  Energy independent; intended as
    property-test fodder.

All model parameters are flat name -> real maps so they can live in JSON
configuration files; see :class:`ModelConfig` for the file schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import (
    BadParamRange,
    ConfigError,
    EnergyOutOfWindow,
    MissingParam,
    NumericalFailure,
    UnknownModel,
    UnknownParam,
)
from .matcore import DEFAULT_TOLERANCES, Tolerances, _frozen, unitarity_defect, unitarize

__all__ = [
    "SplitMix64",
    "uniform_stream",
    "PumpModel",
    "ModelConfig",
    "ParamInfo",
    "ModelInfo",
    "REGISTRY",
    "build",
    "build_model",
    "time_warp",
    "reparameterized",
]

_TWO_PI = 2.0 * np.pi

#: Default energy-derivative step as a fraction of the energy window width.
ENERGY_STEP_FRACTION = 1e-4


# --------------------------------------------------------------------------
# Deterministic pseudo-randomness.
#
# SplitMix64 (the Steele/Lea/Flood mixer).  State advances by the golden
# gamma 0x9E3779B97F4A7C15 modulo 2**64 and each output is
#     z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
#     z ^= z >> 27;  z *= 0x94D049BB133111EB
#     z ^= z >> 31
# Uniform doubles take the top 53 bits.  The constants are spelled out so
# fixtures can be reproduced outside Python.
# --------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


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


def uniform_stream(seed: int, count: int) -> np.ndarray:
    """Vectorized SplitMix64 stream: the same numbers ``SplitMix64(seed)``
    would produce, computed statelessly for ``count`` draws in [0, 1)."""
    return next(_uniform_rows(seed, 1, count, 1))[0]


def _uniform_rows(seed: int, streams: int, count: int, rows: int) -> Iterator[np.ndarray]:
    """``uniform_stream(s, count)`` for s = seed .. seed + streams - 1 (all
    below 2**64), ``rows`` streams at a time, each block a ``(rows, count)``
    buffer that the next block overwrites.  Counter i of stream s is
    ``s + i*gamma``; the mix runs in place."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z = np.empty((min(rows, streams), count), dtype=np.uint64)
    t = np.empty_like(z)
    for start in range(0, streams, rows):
        k = min(rows, streams - start)
        zk, tk = z[:k], t[:k]
        seeds = np.uint64(seed + start) + np.arange(k, dtype=np.uint64)
        np.add(seeds[:, None], steps, out=zk)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(zk, np.uint64(shift), out=tk)
            zk ^= tk
            zk *= np.uint64(mult)
        np.right_shift(zk, np.uint64(31), out=tk)
        zk ^= tk
        zk >>= np.uint64(11)
        yield np.multiply(zk, 2.0**-53, out=tk.view(np.float64))


# --------------------------------------------------------------------------
# Model values.
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PumpModel:
    """Evaluatable family ``(t, E) -> S`` over one period.

    ``matrix_fn(times, E)`` maps a 1-D array of N times and one energy to
    the ``(N, n, n)`` stack of scattering matrices; :meth:`sample`
    certifies such a stack and :meth:`eval` is its one-time case.
    Instances are immutable and evaluation is pure, so models may be
    shared freely between threads.
    """

    name: str
    n_channels: int
    period: float
    energy_window: tuple[float, float]
    params: Mapping[str, float]
    matrix_fn: Callable[[np.ndarray, float], np.ndarray] = field(repr=False)
    unitary_tol: float = DEFAULT_TOLERANCES.tol_unitary
    energy_independent: bool = False  # declared dS/dE = 0: a zero time delay, never sampled

    def sample(self, times, energy: float) -> np.ndarray:
        """Certified ``(N, n, n)`` stack of S at the given times and energy E;
        raises :class:`NumericalFailure` at the first time whose matrix is
        not finite or not unitary within ``unitary_tol``."""
        lo, hi = self.energy_window
        if not (lo <= energy <= hi):
            raise EnergyOutOfWindow(
                f"energy {energy:g} outside window [{lo:g}, {hi:g}] of model '{self.name}'"
            )
        times = np.asarray(times, dtype=float)
        stack = np.asarray(self.matrix_fn(times, float(energy)), dtype=np.complex128)
        shape = (times.shape[0], self.n_channels, self.n_channels)
        if stack.shape != shape:
            raise ValueError(f"model '{self.name}' returned shape {stack.shape}, expected {shape}")
        finite = np.isfinite(stack).all(axis=(1, 2))
        defect = unitarity_defect(stack)
        bad = ~finite | (defect > self.unitary_tol)
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalFailure(
                f"unitarity defect {defect[i]:.3e} exceeds tolerance {self.unitary_tol:g}"
                if finite[i] else
                f"model '{self.name}' has non-finite entries at t={times[i]:.6g}, E={energy:g}"
            )
        return stack

    def eval(self, t: float, energy: float) -> np.ndarray:
        """Frozen scattering matrix at time t and energy E: the read-only
        ``(n, n)`` array of a one-time :meth:`sample`, certified there."""
        return _frozen(self.sample([float(t)], energy)[0])


# --------------------------------------------------------------------------
# Parameter validation helpers.
# --------------------------------------------------------------------------


def _real(value, fieldname: str, *, positive=False, error=ConfigError) -> float:
    """``value`` as a float: a real, finite (optionally positive) number that
    is not a bool, numpy scalars included; otherwise ``error(fieldname, ...)``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(fieldname, "must be a real number")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the largest double
        v = math.inf
    if not math.isfinite(v):
        raise error(fieldname, "must be finite")
    if positive and v <= 0:
        raise error(fieldname, f"must be positive, got {v!r}")
    return v


def _param(params: dict, key: str, model: str, default=None, *, required=False,
           minimum=None, maximum=math.inf, positive=False, integer=False) -> float:
    if key not in params:
        if required:
            raise MissingParam(f"params.{key}", f"model '{model}' requires parameter '{key}'")
        value = default
    else:
        value = params[key]
    value = _real(value, f"params.{key}", positive=positive, error=BadParamRange)
    if integer and value != round(value):
        raise BadParamRange(f"params.{key}", f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise BadParamRange(f"params.{key}", f"must be >= {minimum}, got {value!r}")
    if value > maximum:
        raise BadParamRange(f"params.{key}", f"must be <= {maximum}, got {value!r}")
    return value


def _reject_unknown(params: dict, allowed: set[str], model: str) -> None:
    for key in params:
        if key not in allowed:
            raise UnknownParam(
                f"params.{key}", f"model '{model}' does not understand parameter '{key}'"
            )


def _uniform(seed: int, hi: np.ndarray) -> np.ndarray:
    """Draw i of ``SplitMix64(seed)`` in ``[-hi[i], hi[i])``, for every i in one
    ``uniform_stream`` pass with :meth:`SplitMix64.uniform`'s arithmetic."""
    lo = -hi
    return lo + (hi - lo) * uniform_stream(seed & _MASK64, hi.size)


def _hermitian_stack(draws: np.ndarray, n: int) -> np.ndarray:
    """Hermitian matrices from consecutive blocks of n*n draws, each drawn row
    by row (documented for reproducibility): the real diagonal entry, then
    for k > j the real and imaginary parts of entry (j, k)."""
    rows = draws.reshape(-1, n * n)
    h = np.zeros((rows.shape[0], n, n), dtype=complex)
    for j in range(n):  # rows 0..j-1 hold 2n-1, 2n-3, ... draws: row j starts at j(2n-j)
        row = rows[:, j * (2 * n - j):(j + 1) * (2 * n - j - 1)]
        h[:, j, j] = row[:, 0]
        h[:, j, j + 1:] = row[:, 1::2] + 1j * row[:, 2::2]
        h[:, j + 1:, j] = row[:, 1::2] - 1j * row[:, 2::2]
    return h


def _unitary(draws: np.ndarray, n: int) -> np.ndarray:
    """Unitary polar factor of the complex matrix of 2*n*n draws (row-major,
    real part before imaginary part)."""
    pairs = draws.reshape(n, n, 2)
    return unitarize(pairs[..., 0] + 1j * pairs[..., 1])


# --------------------------------------------------------------------------
# Built-in model builders.  Each takes the registry name, which its error
# messages cite, and returns (n_channels, matrix_fn, params).
# --------------------------------------------------------------------------


def _build_flux_loop(name, params, period, window, mu):
    k_ell = _param(params, "k_ell", name, required=True, minimum=0.0)
    w = int(_param(params, "w", name, default=1, integer=True))
    v = _param(params, "v", name, default=1.0, positive=True)
    _reject_unknown(params, {"k_ell", "w", "v"}, name)

    # Linear dispersion E = v*k with k(mu)*l = k_ell fixes l = k_ell*v/mu,
    # so the loop phase at energy E is k_ell*E/mu (independent of v).
    def matrix(times, energy):
        loop = k_ell * energy / mu
        flux = _TWO_PI * w * times / period
        out = np.zeros((times.shape[0], 2, 2), dtype=complex)
        out[:, 0, 0] = np.exp(1j * (loop + flux))
        out[:, 1, 1] = np.exp(1j * (loop - flux))
        return out

    return 2, matrix, {"k_ell": k_ell, "w": float(w), "v": v}


def _build_perturbed_flux_loop(name, params, period, window, mu):
    delta = _param(params, "delta", name, required=True)
    base_params = {k: v for k, v in params.items() if k != "delta"}
    n, base, norm = _build_flux_loop(name, base_params, period, window, mu)

    # The rotation multiplies from the left: a right factor commutes into
    # the diagonal of E and would leave every cycle charge exactly
    # quantized, defeating the point of the perturbation.
    def matrix(times, energy):
        angle = delta * np.sin(_TWO_PI * times / period)
        c, s = np.cos(angle), np.sin(angle)
        rotation = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
        return rotation @ base(times, energy)

    norm["delta"] = delta
    return n, matrix, norm


_DTC_DEGREE = 2  # trig-polynomial degree of the per-channel phases
_MAX_SIZE = 64  # cap on channel counts and degrees: the stacks and draws grow with them


def _build_diagonal_times_constant(name, params, period, window, mu):
    n = int(_param(params, "n", name, default=2, integer=True, minimum=1, maximum=_MAX_SIZE))
    s0_seed = int(_param(params, "s0_seed", name, default=0, integer=True, minimum=0))
    allowed = {"n", "s0_seed"}
    windings = np.zeros(n)
    cos_coef = np.zeros((n, _DTC_DEGREE))
    sin_coef = np.zeros((n, _DTC_DEGREE))
    norm = {"n": float(n), "s0_seed": float(s0_seed)}
    for j in range(1, n + 1):
        allowed.add(f"w{j}")
        windings[j - 1] = _param(params, f"w{j}", name, default=0, integer=True)
        norm[f"w{j}"] = windings[j - 1]
        for m in range(1, _DTC_DEGREE + 1):
            allowed.update({f"a{j}_{m}", f"b{j}_{m}"})
            cos_coef[j - 1, m - 1] = _param(params, f"a{j}_{m}", name, default=0.0)
            sin_coef[j - 1, m - 1] = _param(params, f"b{j}_{m}", name, default=0.0)
            norm[f"a{j}_{m}"] = cos_coef[j - 1, m - 1]
            norm[f"b{j}_{m}"] = sin_coef[j - 1, m - 1]
    _reject_unknown(params, allowed, name)

    s0 = (np.eye(n, dtype=complex) if s0_seed == 0
          else _unitary(_uniform(s0_seed, np.ones(2 * n * n)), n))
    modes = np.arange(1, _DTC_DEGREE + 1)

    def matrix(times, energy):
        # (n, degree) @ (N, degree, 1): the one-time form's matrix-vector product,
        # once per time, so a stack matches one-time evaluation bit for bit
        arg = _TWO_PI * times / period
        waves = modes[:, None] * arg[:, None, None]
        phases = windings * arg[:, None]
        phases = phases + (cos_coef @ np.cos(waves))[:, :, 0] + (sin_coef @ np.sin(waves))[:, :, 0]
        return np.exp(1j * phases)[:, :, None] * s0

    return n, matrix, norm


def _build_random_smooth_path(name, params, period, window, mu):
    n = int(_param(params, "n", name, default=2, integer=True, minimum=1, maximum=_MAX_SIZE))
    seed = int(_param(params, "seed", name, default=0, integer=True, minimum=0))
    degree = int(_param(params, "degree", name, default=3, integer=True, minimum=0,
                        maximum=_MAX_SIZE))
    amplitude = _param(params, "amplitude", name, default=1.0, minimum=0.0)
    _reject_unknown(params, {"n", "seed", "degree", "amplitude"}, name)

    # One SplitMix64(seed) stream draws the constant Hermitian term, a (cos, sin)
    # pair per mode 1..degree, then S0 in [-1, 1) (two blocks of n*n).  Mode
    # amplitudes decay like 1/(1+m) so the path is comfortably band limited.
    modes = np.repeat(np.arange(degree + 1), [1] + [2] * degree)
    draws = _uniform(seed, np.repeat(np.append(amplitude / (1.0 + modes), [1.0, 1.0]), n * n))
    terms = _hermitian_stack(draws[:-2 * n * n], n)
    const, cos_terms, sin_terms = terms[0], terms[1::2], terms[2::2]
    s0 = _unitary(draws[-2 * n * n:], n)

    def matrix(times, energy):
        arg = _TWO_PI * times[:, None, None] / period
        h = np.broadcast_to(const, (times.shape[0], n, n))
        for m in range(1, degree + 1):
            h = h + (cos_terms[m - 1] * np.cos(m * arg) + sin_terms[m - 1] * np.sin(m * arg))
        vals, vecs = np.linalg.eigh(h)
        return (vecs * np.exp(1j * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2) @ s0

    norm = {"n": float(n), "seed": float(seed), "degree": float(degree), "amplitude": amplitude}
    return n, matrix, norm


@dataclass(frozen=True)
class ParamInfo:
    name: str
    default: float | None  # None marks a required parameter
    note: str


@dataclass(frozen=True, eq=False)
class ModelInfo:
    name: str
    description: str
    n_channels: str
    params: tuple[ParamInfo, ...]
    builder: Callable = field(repr=False)
    energy_independent: bool = False


REGISTRY: dict[str, ModelInfo] = {
    info.name: info
    for info in [
        ModelInfo(
            name="flux-loop",
            description="Two reflecting channels on a flux-threaded loop; "
            "diagonal S with phases k_ell*E/mu +/- 2*pi*w*t/T.",
            n_channels="2",
            params=(
                ParamInfo("k_ell", None, "loop phase k(mu)*l at the reference energy, >= 0"),
                ParamInfo("w", 1.0, "integer flux winding per cycle"),
                ParamInfo("v", 1.0, "dispersion velocity E = v*k, > 0"),
            ),
            builder=_build_flux_loop,
        ),
        ModelInfo(
            name="perturbed-flux-loop",
            description="Flux loop left-multiplied by a real rotation "
            "R(delta*sin(2*pi*t/T)); mixes the channels and "
            "de-quantizes the cycle charge.",
            n_channels="2",
            params=(
                ParamInfo("k_ell", None, "loop phase at the reference energy, >= 0"),
                ParamInfo("delta", None, "rotation amplitude; 0 recovers flux-loop"),
                ParamInfo("w", 1.0, "integer flux winding per cycle"),
                ParamInfo("v", 1.0, "dispersion velocity, > 0"),
            ),
            builder=_build_perturbed_flux_loop,
        ),
        ModelInfo(
            name="diagonal-times-constant",
            description="S(t) = U_d(t) S0 with diagonal phases "
            "2*pi*w<j>*t/T + a<j>_m*cos(2*pi*m*t/T) + b<j>_m*sin(...), "
            "m = 1..2, and S0 seeded from s0_seed (0 = identity). "
            "Energy independent.",
            n_channels="n",
            params=(
                ParamInfo("n", 2.0, "number of channels, integer in 1..64"),
                ParamInfo("s0_seed", 0.0, "seed for the constant unitary; 0 keeps identity"),
                ParamInfo("w<j>", 0.0, "integer winding of channel j (1-based)"),
                ParamInfo("a<j>_<m>", 0.0, "cosine coefficient of channel j, mode m"),
                ParamInfo("b<j>_<m>", 0.0, "sine coefficient of channel j, mode m"),
            ),
            builder=_build_diagonal_times_constant,
            energy_independent=True,
        ),
        ModelInfo(
            name="random-smooth-path",
            description="S(t) = exp(i H(t)) S0 with H a seeded Hermitian "
            "trigonometric polynomial; energy independent.",
            n_channels="n",
            params=(
                ParamInfo("n", 2.0, "number of channels, integer in 1..64"),
                ParamInfo("seed", 0.0, "SplitMix64 seed, integer >= 0"),
                ParamInfo("degree", 3.0, "trig-polynomial degree, integer in 0..64"),
                ParamInfo("amplitude", 1.0, "coefficient scale, >= 0"),
            ),
            builder=_build_random_smooth_path,
            energy_independent=True,
        ),
    ]
}


def _check_mu(mu: float, lo: float, hi: float) -> None:
    """Reject a ``mu`` whose time-delay stencil ``mu +/- 2*dE`` leaves the
    window, ``dE = ENERGY_STEP_FRACTION * (hi - lo)`` (the analysis' step)."""
    reach = 2.0 * ENERGY_STEP_FRACTION * (hi - lo)
    if not (lo <= mu - reach and mu + reach <= hi):
        raise ConfigError("energy.mu", f"mu={mu!r} must lie inside window [{lo!r}, {hi!r}] "
                          f"by the time-delay stencil's reach 2*dE = {reach:g}")


def _window(window) -> tuple[float, float]:
    """``window`` as ``(lo, hi)``: two reals with ``0 < lo < hi``."""
    if not (isinstance(window, (list, tuple)) and len(window) == 2):
        raise ConfigError("energy.window", "must be a two-element array [lo, hi]")
    lo = _real(window[0], "energy.window", positive=True)
    hi = _real(window[1], "energy.window")
    if not lo < hi:
        raise ConfigError("energy.window", f"must satisfy 0 < lo < hi, got [{lo!r}, {hi!r}]")
    return lo, hi


def build(name: str, params: Mapping[str, float] | None = None, *,
          period: float = 1.0, energy_window: tuple[float, float] = (0.5, 1.5),
          mu: float = 1.0, unitary_tol: float | None = None) -> PumpModel:
    """Build a registered model directly (the configuration-free API).

    Raises :class:`UnknownModel`, :class:`MissingParam`, :class:`BadParamRange`
    or :class:`UnknownParam`, each naming the offending key, and
    :class:`ConfigError` on the other arguments, by their config fields.
    """
    period = _real(period, "cycle.period", positive=True)
    lo, hi = _window(energy_window)
    mu = _real(mu, "energy.mu")
    _check_mu(mu, lo, hi)
    unitary_tol = _real(DEFAULT_TOLERANCES.tol_unitary if unitary_tol is None else unitary_tol,
                        "tolerances.tol_unitary", positive=True)
    info = REGISTRY.get(name)
    if info is None:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownModel("model", f"unknown model '{name}'; built-ins: {known}")
    n, matrix_fn, norm = info.builder(name, dict(params or {}), period, (lo, hi), mu)
    return PumpModel(
        name=name,
        n_channels=n,
        period=period,
        energy_window=(lo, hi),
        params=MappingProxyType(norm),
        matrix_fn=matrix_fn,
        unitary_tol=unitary_tol,
        energy_independent=info.energy_independent,
    )


# --------------------------------------------------------------------------
# Configuration files.
# --------------------------------------------------------------------------

#: Cap on ``cycle.samples * n_channels**2``, the entries of one (N, n, n) stack (64 MiB).
MAX_STACK_ENTRIES = 2**22

_TOP_KEYS = ("model", "params", "cycle", "energy", "tolerances", "beta")
_REQUIRED_TOP = ("model", "params", "cycle", "energy")


def _integer(value, fieldname: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(fieldname, "must be an integer")
    return value


def _power_of_two(value, fieldname: str, minimum: int = 1) -> int:
    n = _integer(value, fieldname)
    if n < minimum or n & (n - 1):
        raise ConfigError(fieldname, f"must be a power of two >= {minimum}, got {n}")
    return n


def _section(doc: dict, key: str, keys: tuple[str, ...]) -> dict:
    sec = doc[key]
    if not isinstance(sec, dict):
        raise ConfigError(key, "must be an object")
    for k in sec:
        if k not in keys:
            raise ConfigError(f"{key}.{k}", "unknown field")
    for k in keys:
        if k not in sec:
            raise ConfigError(f"{key}.{k}", "missing required field")
    return sec


@dataclass(frozen=True, eq=False)
class ModelConfig:
    """Parsed analysis configuration (strict JSON schema).

    Top-level fields: ``model`` (registry name), ``params`` (name -> real),
    ``cycle`` = {period, samples}, ``energy`` = {mu, window, samples},
    optional ``tolerances`` (any subset of the :class:`Tolerances` fields)
    and optional ``beta`` (inverse temperature).  Unknown keys
    anywhere are an error.
    """

    model: str
    params: dict[str, float]
    period: float
    samples: int
    mu: float
    window: tuple[float, float]
    tolerances: Tolerances
    beta: float | None
    raw: dict = field(repr=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config", "top level must be a JSON object")
        for key in doc:
            if key not in _TOP_KEYS:
                raise ConfigError(key, "unknown field")
        for key in _REQUIRED_TOP:
            if key not in doc:
                raise ConfigError(key, "missing required field")

        if not isinstance(doc["model"], str):
            raise ConfigError("model", "must be a string")
        if not isinstance(doc["params"], dict):
            raise ConfigError("params", "must be an object")
        params = {k: _real(v, f"params.{k}", error=BadParamRange) for k, v in doc["params"].items()}

        cycle = _section(doc, "cycle", ("period", "samples"))
        period = _real(cycle["period"], "cycle.period", positive=True)
        samples = _power_of_two(cycle["samples"], "cycle.samples", minimum=8)
        if not period / samples > 0:
            raise ConfigError("cycle.period", f"{period!r} / {samples} samples underflows to zero")

        energy = _section(doc, "energy", ("mu", "window", "samples"))
        lo, hi = _window(energy["window"])
        mu = _real(energy["mu"], "energy.mu")
        _check_mu(mu, lo, hi)
        _power_of_two(energy["samples"], "energy.samples")  # reserved for energy sweeps; not read

        tolerances = DEFAULT_TOLERANCES
        if "tolerances" in doc:
            tol = doc["tolerances"]
            if not isinstance(tol, dict):
                raise ConfigError("tolerances", "must be an object")
            overrides = {}
            for k, v in tol.items():
                if k not in {f.name for f in fields(Tolerances)}:
                    raise ConfigError(f"tolerances.{k}", "unknown tolerance")
                overrides[k] = _real(v, f"tolerances.{k}", positive=True)
            tolerances = replace(tolerances, **overrides)

        beta = None
        if "beta" in doc:
            beta = _real(doc["beta"], "beta", positive=True)

        return cls(
            model=doc["model"],
            params=params,
            period=period,
            samples=samples,
            mu=mu,
            window=(lo, hi),
            tolerances=tolerances,
            beta=beta,
            raw=doc,
        )

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                doc = json.loads(handle.read())
            except UnicodeDecodeError as exc:
                raise ConfigError("config", f"not UTF-8 text: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError("config", f"invalid JSON: {exc}") from exc
            except RecursionError as exc:
                raise ConfigError("config", "JSON nested too deeply to parse") from exc
        return cls.from_dict(doc)


def build_model(config: ModelConfig) -> PumpModel:
    """Build the model a configuration refers to; :class:`ConfigError` on
    ``cycle.samples`` if one (N, n, n) stack exceeds ``MAX_STACK_ENTRIES``."""
    model = build(
        config.model,
        config.params,
        period=config.period,
        energy_window=config.window,
        mu=config.mu,
        unitary_tol=config.tolerances.tol_unitary,
    )
    if config.samples * model.n_channels**2 > MAX_STACK_ENTRIES:
        raise ConfigError("cycle.samples", f"{config.samples} samples of {model.n_channels} "
                          f"channels exceed the {MAX_STACK_ENTRIES}-entry stack cap")
    return model


# --------------------------------------------------------------------------
# Time reparameterization (used by the invariance checks).
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
    """The same pump along the warped time ``t -> f(t)``; keeps ``energy_independent``."""
    f, _ = time_warp(model.period, amplitude)

    def matrix(times, energy):
        return model.matrix_fn(f(times), energy)

    return PumpModel(
        name=f"{model.name}+warp",
        n_channels=model.n_channels,
        period=model.period,
        energy_window=model.energy_window,
        params=model.params,
        matrix_fn=matrix,
        unitary_tol=model.unitary_tol,
        energy_independent=model.energy_independent,
    )
