"""Built-in pump models and configuration parsing.

A pump model is an evaluatable family ``(t, E) -> S`` of frozen unitary
scattering matrices, periodic in t with the pump period and defined for
energies inside a validity window: a loop over the cycle angle
``theta = 2*pi*t/T``, which only the model forms.  Four families are built in:

``flux-loop``
    Two channels reflecting off a loop threaded by a linearly ramped
    flux: ``S = diag(exp(i(k(E)l + Phi)), exp(i(k(E)l - Phi)))``
    with ``Phi = w*theta``.  The dispersion is linear, so the loop
    length and the velocity enter only through the dimensionless phase
    ``k_ell = k(mu)*l`` at the reference chemical potential: the phase
    at energy E is ``k_ell*E/mu``.
``perturbed-flux-loop``
    The flux loop left-multiplied by a real rotation
    ``R(delta*sin(theta))``, which mixes the channels and pulls the
    cycle charge off its integer value; ``delta = 0`` recovers the flux
    loop exactly.
``diagonal-times-constant``
    ``S = U_d(theta) S0`` with ``U_d`` a diagonal unitary whose phases are
    low-degree trigonometric polynomials plus integer windings, and S0 a
    fixed unitary.  Energy independent.
``random-smooth-path``
    ``S = exp(i H(theta)) S0`` with H a Hermitian trigonometric polynomial
    drawn from a seeded generator.  Energy independent; intended as
    property-test fodder.

All model parameters are flat name -> real maps so they can live in JSON
configuration files; see :class:`ModelConfig` for the file schema.  Each
model declares them once, as the :class:`ParamInfo` tuple of its
:class:`ModelInfo`, and one parser reads every model by that schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import ConfigError, NumericalFailure
from .matcore import (DEFAULT_TOLERANCES, ROUNDING_FLOOR, CycleGrid, Tolerances, _frozen,
                      _power_of_two, _real, unitarity_defect, unitarize)

__all__ = [
    "uniform_stream",
    "PumpModel",
    "ModelConfig",
    "ParamInfo",
    "ModelInfo",
    "REGISTRY",
    "build",
]

_TWO_PI = 2.0 * np.pi


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

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def uniform_stream(seed: int, count: int) -> np.ndarray:
    """The first ``count`` uniform doubles in [0, 1) of the SplitMix64 stream
    of ``seed``, computed statelessly as the mixes of ``seed + i*gamma``, i = 1..count."""
    return next(_uniform_rows(seed, 1, count, 1))[0]


def _uniform_rows(seed: int, streams: int, count: int, rows: int) -> Iterator[np.ndarray]:
    """``uniform_stream(s, count)`` for s = seed .. seed + streams - 1 (all
    below 2**64), ``rows`` streams at a time, each block a ``(rows, count)``
    buffer that the next block overwrites.  Counter i of stream s is
    ``s + i*gamma``; the mix runs in place.  The top 53 bits are cast
    through a signed view (numpy's int64 -> float64 loop is faster than the
    uint64 one): both casts are exact below 2**53, as is the scaling by
    ``2**-53``."""
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
        uniform = tk.view(np.float64)
        np.copyto(uniform, zk.view(np.int64), casting="unsafe")
        uniform *= 2.0**-53
        yield uniform


# --------------------------------------------------------------------------
# Model values.
# --------------------------------------------------------------------------


def _window(window) -> tuple[float, float]:
    """``energy.window`` as floats ``(lo, hi)``: two finite reals, ``0 < lo < hi``."""
    if not (isinstance(window, (list, tuple)) and len(window) == 2):
        raise ConfigError("energy.window", "must be a two-element array [lo, hi]")
    lo = _real(window[0], "energy.window", positive=True)
    hi = _real(window[1], "energy.window")
    if not lo < hi:
        raise ConfigError("energy.window", f"must satisfy 0 < lo < hi, got [{lo!r}, {hi!r}]")
    return lo, hi


def _in_window(energy, window: tuple[float, float]) -> float:
    """``energy`` as a float, a real in ``[lo, hi]``, or a :class:`ConfigError` on ``energy.mu``."""
    energy, (lo, hi) = _real(energy, "energy.mu"), window
    if not lo <= energy <= hi:
        raise ConfigError("energy.mu", f"mu={energy!r} must lie inside window [{lo!r}, {hi!r}]")
    return energy


@dataclass(frozen=True, eq=False)
class PumpModel:
    """Evaluatable family ``(t, E) -> S`` over one period.

    ``matrix_fn(theta, E)`` maps a 1-D array of N cycle angles in ``[0, 2 pi)`` and one
    energy to the ``(N, n, n)`` stack of S.  :meth:`sample`, the one place time enters,
    certifies it at ``theta = 2 pi t / period``, and :meth:`eval` is its one-time case;
    :meth:`grid` makes the model's cycle grid, so no grid of another period meets it.
    ``delay`` declares the Wigner time delay, required and exact: a real c
    means ``-i dS/dE S^dag = c I`` at every (t, E) of the window, and
    ``|c|`` is the tau of the adiabaticity parameter.
    Construction stores ``period``, ``energy_window``, ``delay`` and ``unitary_tol`` as
    floats, or raises a :class:`ConfigError` naming the field's config path.
    Instances are immutable and evaluation is pure, so models may be
    shared freely between threads.
    """

    name: str
    n_channels: int
    period: float
    energy_window: tuple[float, float]
    params: Mapping[str, float]
    matrix_fn: Callable[[np.ndarray, float], np.ndarray] = field(repr=False)
    delay: float
    unitary_tol: float = DEFAULT_TOLERANCES.tol_unitary

    def __post_init__(self):
        object.__setattr__(self, "period", _real(self.period, "cycle.period", positive=True))
        object.__setattr__(self, "energy_window", _window(self.energy_window))
        object.__setattr__(self, "delay", _real(self.delay, "delay"))
        object.__setattr__(self, "unitary_tol",
                           _real(self.unitary_tol, "tolerances.tol_unitary", positive=True))

    def sample(self, times, energy: float) -> np.ndarray:
        """Certified ``(N, n, n)`` stack of S at energy E and a 1-D array of N ``times``
        (another shape is a ``ValueError``, before ``matrix_fn`` runs); raises
        :class:`NumericalFailure` at the first time whose unitarity defect (not finite where
        S is not, NaN where ``conj(z) z`` overflows) is not within ``unitary_tol``, at least
        the rounding ``ROUNDING_FLOOR sqrt(n)`` of ``||I||_F`` (the built-in families reach
        ``19 eps sqrt(n)``: ``random-smooth-path``'s eigh, n <= 64, amplitudes up to 2**22)."""
        energy = _in_window(energy, self.energy_window)
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise ValueError(f"times must be a 1-D array, got shape {times.shape}")
        stack = np.asarray(self.matrix_fn(_TWO_PI * times / self.period, energy), dtype=complex)
        shape = (times.shape[0], self.n_channels, self.n_channels)
        if stack.shape != shape:
            raise ValueError(f"model '{self.name}' returned shape {stack.shape}, expected {shape}")
        defect = unitarity_defect(stack)
        limit = max(self.unitary_tol, ROUNDING_FLOOR * math.sqrt(self.n_channels))
        bad = ~(defect <= limit)
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalFailure(
                f"unitarity defect {defect[i]:.3e} exceeds tolerance {limit:g}"
                if np.isfinite(stack[i]).all() else
                f"model '{self.name}' has non-finite entries at t={times[i]:.6g}, E={energy:g}"
            )
        return stack

    def grid(self, nodes: int) -> CycleGrid:
        """The uniform grid of ``nodes`` nodes over this model's period, the one place
        a model's grid is made (``nodes`` is checked as ``cycle.samples``)."""
        return CycleGrid(self.period, nodes)

    def eval(self, t: float, energy: float) -> np.ndarray:
        """Frozen scattering matrix at time t and energy E: the read-only
        ``(n, n)`` array of a one-time :meth:`sample`, certified there."""
        return _frozen(self.sample([float(t)], energy)[0])


# --------------------------------------------------------------------------
# Seeded draws of the built-in models.
# --------------------------------------------------------------------------


def _uniform(seed: int, hi: np.ndarray) -> np.ndarray:
    """Draw i of the SplitMix64 stream of ``seed`` in ``[-hi[i], hi[i])``, for every i
    in one ``uniform_stream`` pass, in the scalar ``lo + (hi - lo) * u`` arithmetic."""
    lo = -hi
    return lo + (hi - lo) * uniform_stream(seed, hi.size)


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
# Built-in model builders: (params, mu) -> (n_channels, matrix_fn, delay), params as
# their schema parsed them, matrix_fn(theta, E) over the cycle angle theta in
# [0, 2 pi) and delay the c of the Wigner delay c I.
# --------------------------------------------------------------------------


def _build_flux_loop(params, mu):
    k_ell, w = params["k_ell"], params["w"]

    def matrix(theta, energy):
        loop, flux = k_ell * energy / mu, w * theta
        out = np.zeros((theta.shape[0], 2, 2), dtype=complex)
        out[:, 0, 0] = np.exp(1j * (loop + flux))
        out[:, 1, 1] = np.exp(1j * (loop - flux))
        return out

    return 2, matrix, k_ell / mu  # d(loop)/dE: the loop traversal time l/v


def _build_perturbed_flux_loop(params, mu):
    delta = params["delta"]
    n, base, delay = _build_flux_loop(params, mu)

    # The rotation multiplies from the left: a right factor commutes into
    # the diagonal of E and would leave every cycle charge exactly
    # quantized, defeating the point of the perturbation.
    def matrix(theta, energy):
        angle = delta * np.sin(theta)
        c, s = np.cos(angle), np.sin(angle)
        rotation = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
        return rotation @ base(theta, energy)

    return n, matrix, delay


_DTC_DEGREE = 2  # trig-polynomial degree of the per-channel phases
_MAX_SIZE = 64  # cap on channel counts and degrees: the stacks and draws grow with them
_MAX_SEED = 2**53  # every seed up to it is exact as a double
#: Cap on ``cycle.samples * n_channels**2``, the entries of one (N, n, n) stack (64 MiB).
MAX_STACK_ENTRIES = 2**22


def _build_diagonal_times_constant(params, mu):
    n, s0_seed = int(params["n"]), int(params["s0_seed"])
    channels, modes = range(1, n + 1), np.arange(1, _DTC_DEGREE + 1)
    windings = np.array([params[f"w{j}"] for j in channels])
    cos_coef, sin_coef = (np.array([[params[f"{ab}{j}_{m}"] for m in modes] for j in channels])
                          for ab in "ab")
    s0 = (np.eye(n, dtype=complex) if s0_seed == 0
          else _unitary(_uniform(s0_seed, np.ones(2 * n * n)), n))

    def matrix(theta, energy):
        # (n, degree) @ (N, degree, 1): the one-time form's matrix-vector product,
        # once per angle, so a stack matches one-time evaluation bit for bit
        waves = modes[:, None] * theta[:, None, None]
        phases = windings * theta[:, None]
        phases = phases + (cos_coef @ np.cos(waves))[:, :, 0] + (sin_coef @ np.sin(waves))[:, :, 0]
        return np.exp(1j * phases)[:, :, None] * s0

    return n, matrix, 0.0


def _build_random_smooth_path(params, mu):
    n, seed, degree = (int(params[key]) for key in ("n", "seed", "degree"))

    # One SplitMix64(seed) stream draws the constant Hermitian term, a (cos, sin)
    # pair per mode 1..degree, then S0 in [-1, 1) (two blocks of n*n).  Mode
    # amplitudes decay like 1/(1+m) so the path is comfortably band limited.
    scale = params["amplitude"] / (1.0 + np.repeat(np.arange(degree + 1), [1] + [2] * degree))
    draws = _uniform(seed, np.repeat(np.append(scale, [1.0, 1.0]), n * n))
    terms = _hermitian_stack(draws[:-2 * n * n], n)
    const, cos_terms, sin_terms = terms[0], terms[1::2], terms[2::2]
    s0 = _unitary(draws[-2 * n * n:], n)

    def matrix(theta, energy):
        h, arg = np.broadcast_to(const, (theta.shape[0], n, n)), theta[:, None, None]
        for m in range(1, degree + 1):
            h = h + (cos_terms[m - 1] * np.cos(m * arg) + sin_terms[m - 1] * np.sin(m * arg))
        vals, vecs = np.linalg.eigh(h)
        return (vecs * np.exp(1j * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2) @ s0

    return n, matrix, 0.0


@dataclass(frozen=True)
class ParamInfo:
    """One model parameter: its default, its ``pump models`` note and its rule."""

    name: str
    default: float | None  # None marks a required parameter
    note: str
    minimum: float | None = None
    maximum: float = math.inf
    integer: bool = False


@dataclass(frozen=True, eq=False)
class ModelInfo:
    name: str
    description: str
    n_channels: str
    params: tuple[ParamInfo, ...]  # the schema, in parse order
    builder: Callable = field(repr=False)  # (params, mu) -> (n, matrix_fn(theta, E), delay)


_CHANNELS = ParamInfo("n", 2.0, "number of channels, integer in 1..64",
                      integer=True, minimum=1, maximum=_MAX_SIZE)
REGISTRY: dict[str, ModelInfo] = {
    info.name: info
    for info in [
        ModelInfo(
            name="flux-loop",
            description="Two reflecting channels on a flux-threaded loop; "
            "diagonal S with phases k_ell*E/mu +/- 2*pi*w*t/T.",
            n_channels="2",
            params=(
                ParamInfo("k_ell", None, "loop phase k(mu)*l at the reference energy, >= 0",
                          minimum=0.0),
                ParamInfo("w", 1.0, "integer flux winding per cycle", integer=True),
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
                ParamInfo("k_ell", None, "loop phase at the reference energy, >= 0", minimum=0.0),
                ParamInfo("delta", None, "rotation amplitude; 0 recovers flux-loop"),
                ParamInfo("w", 1.0, "integer flux winding per cycle", integer=True),
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
                _CHANNELS,
                ParamInfo("s0_seed", 0.0, "seed for the constant unitary; 0 keeps identity",
                          integer=True, minimum=0, maximum=_MAX_SEED),
                ParamInfo("w<j>", 0.0, "integer winding of channel j (1-based)", integer=True),
                ParamInfo("a<j>_<m>", 0.0, "cosine coefficient of channel j, mode m"),
                ParamInfo("b<j>_<m>", 0.0, "sine coefficient of channel j, mode m"),
            ),
            builder=_build_diagonal_times_constant,
        ),
        ModelInfo(
            name="random-smooth-path",
            description="S(t) = exp(i H(t)) S0 with H a seeded Hermitian "
            "trigonometric polynomial; energy independent.",
            n_channels="n",
            params=(
                _CHANNELS,
                ParamInfo("seed", 0.0, "SplitMix64 seed, integer >= 0",
                          integer=True, minimum=0, maximum=_MAX_SEED),
                ParamInfo("degree", 3.0, "trig-polynomial degree, integer in 0..64",
                          integer=True, minimum=0, maximum=_MAX_SIZE),
                ParamInfo("amplitude", 1.0, "coefficient scale, in 0..4194304; a grid "
                          "resolves it with more samples than the amplitude", minimum=0.0,
                          maximum=float(MAX_STACK_ENTRIES)),
            ),
            builder=_build_random_smooth_path,
        ),
    ]
}


def _parse(info: ModelInfo, params: Mapping[str, float]) -> dict[str, float]:
    """Every parameter ``info`` declares, in schema order, from ``params`` or its default;
    the first faulty key, missing, out of range or unknown, raises a :class:`ConfigError`
    on ``params.<key>``."""
    parsed: dict[str, float] = {}
    for p in info.params:
        keys = [p.name]
        for tag, count in (("<j>", int(parsed.get("n", 0))), ("<m>", _DTC_DEGREE)):
            if tag in p.name:
                keys = [k.replace(tag, str(i)) for k in keys for i in range(1, count + 1)]
        for key in keys:
            if key not in params and p.default is None:
                raise ConfigError(f"params.{key}",
                                  f"model '{info.name}' requires parameter '{key}'")
            raw = params.get(key, p.default)
            value = _real(raw, f"params.{key}")
            if p.integer and value != round(value):
                raise ConfigError(f"params.{key}", f"must be an integer, got {value!r}")
            if p.minimum is not None and raw < p.minimum:
                raise ConfigError(f"params.{key}", f"must be >= {p.minimum}, got {raw}")
            if raw > p.maximum:  # the exact input: 2**53 + 1 would round onto 2**53
                raise ConfigError(f"params.{key}", f"must be <= {p.maximum}, got {raw}")
            parsed[key] = value
    for key in params:
        if key not in parsed:
            raise ConfigError(f"params.{key}",
                              f"model '{info.name}' does not understand parameter '{key}'")
    return parsed


def build(name: str, params: Mapping[str, float] | None = None, *,
          period: float = 1.0, energy_window: tuple[float, float] = (0.5, 1.5),
          mu: float = 1.0, unitary_tol: float = DEFAULT_TOLERANCES.tol_unitary) -> PumpModel:
    """Build a registered model, called directly or by :class:`ModelConfig`.

    Checks the window and mu (the builder divides by mu), then the params
    against the model's schema; :class:`PumpModel` checks the rest.  Every fault is a
    :class:`ConfigError` naming its config field: ``model`` for a name not in the
    registry, ``params.<key>`` for a missing, out-of-range or unknown parameter.
    """
    window = _window(energy_window)
    mu = _in_window(mu, window)
    info = REGISTRY.get(name)
    if info is None:
        known = ", ".join(sorted(REGISTRY))
        raise ConfigError("model", f"unknown model '{name}'; built-ins: {known}")
    parsed = _parse(info, dict(params or {}))
    n, matrix_fn, delay = info.builder(parsed, mu)
    return PumpModel(
        name=name,
        n_channels=n,
        period=period,
        energy_window=window,
        params=MappingProxyType(parsed),
        matrix_fn=matrix_fn,
        delay=delay,
        unitary_tol=unitary_tol,
    )


# --------------------------------------------------------------------------
# Configuration files.
# --------------------------------------------------------------------------


def _object(value, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """``value`` if it is a JSON object with every ``required`` key and no key
    beyond ``optional``; otherwise a :class:`ConfigError` on ``path`` (the top
    level's, ``""``, is named ``config``) or on its first unknown key, then
    its first missing one, as ``path.key``."""
    if not isinstance(value, dict):
        raise ConfigError(path or "config", "must be an object")
    prefix = f"{path}." if path else ""
    for key in value:
        if key not in required and key not in optional:
            raise ConfigError(f"{prefix}{key}", "unknown field")
    for key in required:
        if key not in value:
            raise ConfigError(f"{prefix}{key}", "missing required field")
    return value


@dataclass(frozen=True, eq=False)
class ModelConfig:
    """Parsed analysis configuration (strict JSON schema): the model and the
    cycle grid a document describes, and how to analyse them.

    Top-level fields: ``model`` (registry name), ``params`` (name -> real),
    ``cycle`` = {period, samples}, ``energy`` = {mu, window[, samples]},
    optional ``tolerances`` (any subset of the :class:`Tolerances` fields)
    and optional ``beta`` (inverse temperature).  Unknown keys anywhere are
    an error.  :meth:`from_dict` checks each object's keys with one walker,
    the sample counts and beta with :mod:`qpump.matcore`'s scalar rules, and
    leaves each other value to the value holding it: :class:`Tolerances`,
    :func:`build`'s :class:`PumpModel` (kept as ``pump``) and ``grid``, which every
    construction, ``dataclasses.replace`` included, derives as ``pump.grid(samples)``.
    """

    pump: PumpModel
    samples: int
    mu: float
    tolerances: Tolerances
    beta: float | None
    raw: dict = field(repr=False)
    grid: CycleGrid = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "grid", self.pump.grid(self.samples))

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        _object(doc, "", ("model", "params", "cycle", "energy"), ("tolerances", "beta"))
        if not isinstance(doc["model"], str):
            raise ConfigError("model", "must be a string")
        if not isinstance(doc["params"], dict):
            raise ConfigError("params", "must be an object")
        cycle = _object(doc["cycle"], "cycle", ("period", "samples"))
        samples = _power_of_two(cycle["samples"], "cycle.samples", 8)
        energy = _object(doc["energy"], "energy", ("mu", "window"), ("samples",))
        _power_of_two(energy.get("samples", 1), "energy.samples")  # reserved for sweeps; not read

        tolerances = DEFAULT_TOLERANCES
        if "tolerances" in doc:
            names = tuple(f.name for f in fields(Tolerances))
            tolerances = Tolerances(**_object(doc["tolerances"], "tolerances", (), names))

        beta = None
        if "beta" in doc:
            beta = _real(doc["beta"], "beta", positive=True)

        pump = build(doc["model"], doc["params"], period=cycle["period"],
                     energy_window=energy["window"], mu=energy["mu"],
                     unitary_tol=tolerances.tol_unitary)
        if samples * pump.n_channels**2 > MAX_STACK_ENTRIES:
            raise ConfigError("cycle.samples", f"{samples} samples of {pump.n_channels} "
                              f"channels exceed the {MAX_STACK_ENTRIES}-entry stack cap")
        return cls(
            pump=pump,
            samples=samples,
            mu=float(energy["mu"]),  # build checked it is a finite real
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
