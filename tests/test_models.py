"""Built-in models, seeded randomness and configuration parsing."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpump.errors import (
    BadParamRange,
    ConfigError,
    EnergyOutOfWindow,
    MissingParam,
    UnknownModel,
    UnknownParam,
)
from qpump.matcore import DEFAULT_TOLERANCES, CycleGrid, Tolerances, unitarity_defect, unitarize
from qpump.models import REGISTRY, ModelConfig, PumpModel, _uniform_rows, build, uniform_stream
from reference import (
    ENERGY_STEP_FRACTION,
    SplitMix64,
    left_rotated,
    reparameterized,
    time_reversed,
    time_warp,
)

ALL_BUILTINS = [
    ("flux-loop", {"k_ell": 1.0}),
    ("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.1}),
    ("diagonal-times-constant", {"w1": 1, "w2": -2, "a1_1": 0.3, "b2_2": 0.2, "s0_seed": 5}),
    ("random-smooth-path", {"seed": 7, "n": 3}),
]


# ---------------------------------------------------------------- generator


def test_splitmix_reference_values():
    # frozen from the documented constants; guards cross-run reproducibility
    rng = SplitMix64(42)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_uniform_stream_matches_scalar_generator():
    rng = SplitMix64(987654321)
    scalar = np.array([rng.uniform() for _ in range(64)])
    np.testing.assert_array_equal(scalar, uniform_stream(987654321, 64))
    assert np.all(scalar >= 0.0) and np.all(scalar < 1.0)


@pytest.mark.parametrize("seed", [0, 987654321, 2**63 - 5, 2**64 - 23])
def test_uniform_rows_are_scalar_streams(seed):
    # 23 streams, 8 at a time: blocks of 8, 8 and 7 rows
    blocks = [block.copy() for block in _uniform_rows(seed, 23, 100, 8)]
    assert [b.shape for b in blocks] == [(8, 100), (8, 100), (7, 100)]
    for row, stream in zip(np.concatenate(blocks), range(seed, seed + 23)):
        rng = SplitMix64(stream)
        np.testing.assert_array_equal(row, [rng.uniform() for _ in range(100)])


def scalar_hermitian(n, rng, scale):
    """Reference Hermitian draw, one scalar at a time: per row j the real
    diagonal entry, then for k > j the real and imaginary parts of (j, k)."""
    h = np.zeros((n, n), dtype=complex)
    for j in range(n):
        h[j, j] = rng.uniform(-scale, scale)
        for k in range(j + 1, n):
            re = rng.uniform(-scale, scale)
            im = rng.uniform(-scale, scale)
            h[j, k] = re + 1j * im
            h[k, j] = re - 1j * im
    return h


def scalar_unitary(n, rng):
    """Reference unitary draw: row-major, real part before imaginary part."""
    m = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            re = rng.uniform(-1.0, 1.0)
            im = rng.uniform(-1.0, 1.0)
            m[j, k] = re + 1j * im
    return unitarize(m)


def drawn(model):
    """What a built model's matrix function closes over, by name."""
    fn = model.matrix_fn
    return dict(zip(fn.__code__.co_freevars, (cell.cell_contents for cell in fn.__closure__)))


@given(st.integers(1, 8), st.integers(0, 4), st.integers(0, 2**53), st.floats(0.0, 10.0))
@settings(max_examples=150, deadline=None)
def test_model_draws_match_scalar_generator(n, degree, seed, amplitude):
    # random-smooth-path draws its constant term, (cos, sin) per mode, then S0
    # from one stream; diagonal-times-constant draws S0 alone.  Bit for bit.
    rsp = drawn(build("random-smooth-path",
                      {"n": n, "degree": degree, "seed": seed, "amplitude": amplitude}))
    rng = SplitMix64(seed)
    const = scalar_hermitian(n, rng, amplitude)
    modes = [[scalar_hermitian(n, rng, amplitude / (1.0 + m)) for _ in "cs"]
             for m in range(1, degree + 1)]
    cos_terms, sin_terms = (np.array([pair[i] for pair in modes]).reshape(-1, n, n)
                            for i in (0, 1))
    assert rsp["const"].tobytes() == const.tobytes()
    assert rsp["cos_terms"].tobytes() == cos_terms.tobytes()
    assert rsp["sin_terms"].tobytes() == sin_terms.tobytes()
    assert rsp["s0"].tobytes() == scalar_unitary(n, rng).tobytes()
    s0 = drawn(build("diagonal-times-constant", {"n": n, "s0_seed": seed}))["s0"]
    expected = np.eye(n, dtype=complex) if seed == 0 else scalar_unitary(n, SplitMix64(seed))
    assert s0.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- building


def test_build_flux_loop():
    model = build("flux-loop", {"k_ell": 1.0})
    assert model.n_channels == 2
    assert model.params["w"] == 1.0  # documented default winding


def test_missing_param_names_key():
    with pytest.raises(MissingParam) as err:
        build("flux-loop", {})
    assert err.value.field == "params.k_ell"
    with pytest.raises(MissingParam):
        build("perturbed-flux-loop", {"k_ell": 1.0})


def test_perturbed_errors_name_their_model():
    # the perturbed builder delegates to the flux-loop one, under its own name
    with pytest.raises(MissingParam, match="model 'perturbed-flux-loop' requires parameter 'k_ell'"):
        build("perturbed-flux-loop", {"delta": 0.1})
    with pytest.raises(UnknownParam,
                       match="model 'perturbed-flux-loop' does not understand parameter 'zz'"):
        build("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.1, "zz": 1.0})


REQUIRED_VALUES = {"k_ell": 1.0, "delta": 0.1}


def obeys(p, value):
    """Whether ``value`` meets the rule of ParamInfo ``p``."""
    return ((not p.integer or value == round(value))
            and (p.minimum is None or value >= p.minimum) and value <= p.maximum)


def rule_cases(p):
    """Values of ParamInfo ``p`` on each side of its rule: each bound itself, then
    the value just past it and, for an integer, a non-integer inside the bounds."""
    inside, past = [], []
    for bound, way in ((p.minimum, -1), (p.maximum, 1)):
        if bound is not None and math.isfinite(bound):
            inside.append(bound)
            past.append(bound + way if p.integer else float(np.nextafter(bound, way * math.inf)))
    if p.integer:
        past.append(p.default + 0.5)
    return inside, past


@pytest.mark.parametrize("name", list(REGISTRY))
def test_registry_defaults_are_what_build_fills_in(name):
    # ``pump models`` lists ParamInfo.default and required; build must agree,
    # and must enforce each ParamInfo's rule, which every default meets.
    # Templated names (w<j>, a<j>_<m>, b<j>_<m>) are checked at j = m = 1 for
    # the defaults and at j = m = 1 and j = n = 3, m = 2 for the rules.
    infos = REGISTRY[name].params
    required = {p.name: REQUIRED_VALUES[p.name] for p in infos if p.default is None}
    model = build(name, required)
    for p in infos:
        if p.default is not None:
            key = p.name.replace("<j>", "1").replace("<m>", "1")
            assert model.params[key] == p.default, key
            assert obeys(p, p.default), key
    for key in required:
        with pytest.raises(MissingParam, match=f"model '{name}' requires parameter '{key}'"):
            build(name, {k: v for k, v in required.items() if k != key})
    for p in infos:
        inside, past = rule_cases(p)
        keys = dict.fromkeys(p.name.replace("<j>", str(j)).replace("<m>", str(m))
                             for j, m in ((1, 1), (3, 2)))
        for key in keys:
            base = {**required, "n": 3} if p.name != key else required
            for value in inside:
                assert obeys(p, value)
                assert build(name, {**base, key: value}).params[key] == value, key
            for value in past:
                assert not obeys(p, value)
                with pytest.raises(BadParamRange) as err:
                    build(name, {**base, key: value})
                assert err.value.field == f"params.{key}", value


@pytest.mark.parametrize("name,key", [("random-smooth-path", "seed"),
                                      ("diagonal-times-constant", "s0_seed")])
def test_seeds_above_two_to_the_53_are_rejected(name, key):
    # a seed is parsed as a double: above 2**53, 2**53 + 1 would draw the stream
    # of 2**53 and 2**64 (masked to 64 bits) that of seed 0
    assert build(name, {key: 2**53}).params[key] == 2**53
    for value in (2**53 + 1, 2**64):
        with pytest.raises(BadParamRange, match=f"params.{key}: must be <= {2**53}") as err:
            build(name, {key: value})
        assert err.value.field == f"params.{key}"


def test_unknown_model_and_param():
    with pytest.raises(UnknownModel):
        build("no-such-pump", {})
    with pytest.raises(UnknownParam) as err:
        build("flux-loop", {"k_ell": 1.0, "wobble": 2.0})
    assert err.value.field == "params.wobble"
    # the flux families take no dispersion velocity: their phases depend on k_ell alone
    for name, params in (("flux-loop", {"k_ell": 1.0}),
                         ("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.1})):
        with pytest.raises(UnknownParam) as err:
            build(name, {**params, "v": 1.0})
        assert err.value.field == "params.v"


def test_bad_param_ranges():
    with pytest.raises(BadParamRange):
        build("flux-loop", {"k_ell": -0.5})
    with pytest.raises(BadParamRange):
        build("flux-loop", {"k_ell": 1.0, "w": 0.5})
    with pytest.raises(BadParamRange):
        build("random-smooth-path", {"n": 0})
    with pytest.raises(BadParamRange, match="params.k_ell: must be a real number"):
        build("flux-loop", {"k_ell": True})
    # numpy scalars are real numbers, at build as in a config
    model = build("flux-loop", {"k_ell": np.float64(0.5), "w": np.int64(2)})
    assert model.params == {"k_ell": 0.5, "w": 2.0}


@pytest.mark.parametrize("name,key,value", [
    ("diagonal-times-constant", "n", 65), ("diagonal-times-constant", "n", 1e308),
    ("random-smooth-path", "n", 2**70), ("random-smooth-path", "degree", 65),
    ("random-smooth-path", "degree", 1e300),
])
def test_sizes_are_capped(name, key, value):
    # an unbounded channel count or degree exhausted memory or never returned
    with pytest.raises(BadParamRange, match=f"params.{key}: must be <= 64"):
        build(name, {key: value})
    assert build(name, {key: 64}).params[key] == 64.0


def test_perturbed_unitary_on_grid():
    model = build("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.1})
    for t in CycleGrid(1.0, 64).times:
        assert unitarity_defect(model.eval(t, 1.0)) < 1e-12


# ---------------------------------------------------------------- evaluation


def test_flux_loop_trivial_points():
    model = build("flux-loop", {"k_ell": 0.0})
    np.testing.assert_allclose(model.eval(0.0, 1.0), np.eye(2), atol=1e-15)
    # quarter cycle: flux phase pi/2
    got = model.eval(0.25, 1.0)
    np.testing.assert_allclose(
        got, np.diag([np.exp(0.5j * np.pi), np.exp(-0.5j * np.pi)]), atol=1e-15
    )


def test_flux_loop_is_exactly_diagonal():
    model = build("flux-loop", {"k_ell": 1.3, "w": 2})
    for t in (0.0, 0.21, 0.7):
        for energy in (0.6, 1.0, 1.4):
            m = model.eval(t, energy)
            assert m[0, 1] == 0.0 and m[1, 0] == 0.0


def test_energy_window_enforced():
    model = build("flux-loop", {"k_ell": 1.0}, energy_window=(0.5, 1.5))
    with pytest.raises(EnergyOutOfWindow):
        model.eval(0.1, 0.2)
    with pytest.raises(EnergyOutOfWindow):
        model.eval(0.1, 2.0)


def test_periodicity_all_builtins():
    for name, params in ALL_BUILTINS:
        model = build(name, params)
        ts = np.linspace(0.0, model.period, 4 * 64, endpoint=False)
        worst = max(
            np.linalg.norm(model.eval(t + model.period, 1.0) - model.eval(t, 1.0))
            for t in ts
        )
        assert worst < 1e-11, name


def test_perturbed_delta_zero_recovers_flux_loop():
    base = build("flux-loop", {"k_ell": 1.0})
    pert = build("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.0})
    for t in (0.0, 0.3, 0.77):
        a = base.eval(t, 1.2)
        b = pert.eval(t, 1.2)
        assert np.max(np.abs(a - b)) < 1e-14


def test_random_smooth_path_deterministic():
    a = build("random-smooth-path", {"seed": 7, "n": 3})
    b = build("random-smooth-path", {"seed": 7, "n": 3})
    c = build("random-smooth-path", {"seed": 8, "n": 3})
    np.testing.assert_array_equal(a.eval(0.3, 1.0), b.eval(0.3, 1.0))
    assert np.max(np.abs(a.eval(0.3, 1.0) - c.eval(0.3, 1.0))) > 1e-3
    assert unitarity_defect(a.eval(0.3, 1.0)) < 1e-12


def test_diagonal_times_constant_structure():
    model = build("diagonal-times-constant", {"w1": 1, "w2": 0, "s0_seed": 9})
    s0 = model.eval(0.0, 1.0)
    m = model.eval(0.4, 1.0) @ s0.conj().T
    off = m - np.diag(np.diag(m))
    assert np.max(np.abs(off)) < 1e-12


def test_builtin_paths_are_band_limited():
    # spectral decay: top quarter of the FFT band is at rounding level
    grid = CycleGrid(1.0, 256)
    for name, params in ALL_BUILTINS:
        model = build(name, params)
        samples = np.stack([model.eval(t, 1.0) for t in grid.times])
        coef = np.fft.fft(samples, axis=0) / grid.samples
        mags = np.abs(coef).max(axis=(1, 2))
        top = np.abs(np.fft.fftfreq(grid.samples)) >= 0.25
        assert mags[top].max() < 1e-10 * mags.max(), name


# ---------------------------------------------------------------- registry


def test_registry_lists_all_builtins():
    assert set(REGISTRY) == {
        "flux-loop",
        "perturbed-flux-loop",
        "diagonal-times-constant",
        "random-smooth-path",
    }
    winding = {p.name: p.default for p in REGISTRY["flux-loop"].params}
    assert winding["w"] == 1.0


# ---------------------------------------------------------------- declared time delay

ENERGY_INDEPENDENT = {"diagonal-times-constant", "random-smooth-path"}
FLUX_FAMILIES = {"flux-loop", "perturbed-flux-loop"}
STENCIL_GRID = CycleGrid(1.0, 32)


def stencil_stacks(model, mu=1.0):
    """``matrix_fn`` on a cycle grid at mu and at the time delay's four
    stencil energies mu +/- dE, mu +/- 2 dE, as raw bytes."""
    lo, hi = model.energy_window
    step = ENERGY_STEP_FRACTION * (hi - lo)
    energies = [mu, mu + step, mu - step, mu + 2.0 * step, mu - 2.0 * step]
    return [np.asarray(model.matrix_fn(STENCIL_GRID.times, e), dtype=complex).tobytes()
            for e in energies]


def test_registry_declares_exactly_the_energy_independent_families():
    assert set(REGISTRY) == ENERGY_INDEPENDENT | FLUX_FAMILIES
    for (name, params), mu in itertools.product(ALL_BUILTINS, (1.0, 0.8, 1.3)):
        model = build(name, params, mu=mu)
        # -i dS/dE S^dag = c I in closed form, declared bit for bit
        c = params["k_ell"] / mu if name in FLUX_FAMILIES else 0.0
        assert model.delay == c, (name, mu)
        assert reparameterized(model, 0.3).delay == model.delay


def test_a_model_must_declare_its_delay():
    model = build("flux-loop", {"k_ell": 1.0})
    given_fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(PumpModel)
                    if f.name != "delay"}
    with pytest.raises(TypeError, match="delay"):
        PumpModel(**given_fields)
    for bad in (None, True, 1j, "1.0", math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^delay: must be"):
            dataclasses.replace(model, delay=bad)
    declared = dataclasses.replace(model, delay=np.float64(-0.5))
    assert declared.delay == -0.5 and type(declared.delay) is float


#: Each field a PumpModel certifies with, and the config path its errors name.
MODEL_FIELDS = {"period": "cycle.period", "energy_window": "energy.window",
                "delay": "delay", "unitary_tol": "tolerances.tol_unitary"}


@pytest.mark.parametrize("name", MODEL_FIELDS)
def test_pump_model_checks_every_field_it_certifies_with(name):
    # a replace fails as a config does, on the field's config path, with an
    # error that is a ValueError too; a delay may be 0 or negative
    model = build("flux-loop", {"k_ell": 1.0})
    bads = [math.nan, math.inf, -math.inf, True, "1", "1.0", None, 1j, 10**400, (1.5, 0.5)]
    if name != "delay":
        bads += [0.0, -1]
    if name == "energy_window":
        bads += [(0.0, 1.5), (0.5, math.nan), (0.5, 0.5), (0.5,), [True, 1.5]]
    for bad in bads:
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(model, **{name: bad})
        assert err.value.field == MODEL_FIELDS[name] and isinstance(err.value, ValueError)
    good = {"period": np.float32(2.0), "energy_window": [np.int64(1), 2],
            "delay": np.float64(-0.5), "unitary_tol": np.float32(1e-6)}[name]
    stored = getattr(dataclasses.replace(model, **{name: good}), name)
    stored = stored if name == "energy_window" else (stored,)
    assert type(stored) is tuple and all(type(x) is float for x in stored)


def test_replace_keeps_the_declaration():
    # the transforms of tests/reference.py replace matrix_fn and name only
    model = build("perturbed-flux-loop", {"k_ell": 0.7, "delta": 0.3}, mu=1.1)
    for transformed in (reparameterized(model, 0.3), left_rotated(model, np.eye(2)),
                        time_reversed(model), dataclasses.replace(model, matrix_fn=None)):
        assert transformed.delay == model.delay == 0.7 / 1.1


@pytest.mark.parametrize("name,params", [
    ("flux-loop", {"k_ell": 1.0}),
    ("flux-loop", {"k_ell": 0.01, "w": 3}),
    ("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.3}),
    ("perturbed-flux-loop", {"k_ell": 2.5, "delta": -1.0, "w": -2}),
])
def test_flux_families_are_not_declared_energy_independent(name, params):
    # a zero declaration here would hide a genuinely nonzero time delay
    model = build(name, params)
    assert model.delay == params["k_ell"] > 0.0
    centre, *stencil = stencil_stacks(model)
    assert all(stack != centre for stack in stencil)


_coef = st.floats(-1.0, 1.0, allow_nan=False)
_dtc_params = st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries(
    {"n": st.just(n), "s0_seed": st.integers(0, 2**31)},
    optional={**{f"w{j}": st.integers(-3, 3) for j in range(1, n + 1)},
              **{f"{ab}{j}_{m}": _coef for ab in "ab" for j in range(1, n + 1)
                 for m in (1, 2)}}))
_rsp_params = st.fixed_dictionaries({
    "n": st.integers(1, 4), "seed": st.integers(0, 2**31),
    "degree": st.integers(0, 4), "amplitude": st.floats(0.0, 2.0)})
_flagged = st.one_of(st.tuples(st.just("diagonal-times-constant"), _dtc_params),
                     st.tuples(st.just("random-smooth-path"), _rsp_params))


@given(model=_flagged, warp=st.one_of(st.none(), st.floats(-0.9, 0.9)),
       period=st.floats(0.1, 10.0), mu=st.floats(0.75, 1.25))
@settings(max_examples=60, deadline=None)
def test_flagged_models_do_not_depend_on_energy(model, warp, period, mu):
    name, params = model
    built = build(name, params, period=period, mu=mu)
    if warp is not None:
        built = reparameterized(built, warp)
    assert built.delay == 0.0
    centre, *stencil = stencil_stacks(built, mu)
    assert all(stack == centre for stack in stencil)  # bit for bit


# ---------------------------------------------------------------- config


def good_config():
    return {
        "model": "flux-loop",
        "params": {"k_ell": 1.0},
        "cycle": {"period": 1.0, "samples": 256},
        "energy": {"mu": 1.0, "window": [0.5, 1.5], "samples": 16},
    }


def test_config_roundtrip():
    cfg = ModelConfig.from_dict(good_config())
    assert cfg.pump.name == "flux-loop" and cfg.pump.n_channels == 2
    assert cfg.grid.samples == 256 and cfg.grid.period == cfg.pump.period == 1.0
    assert cfg.beta is None


def test_config_rejects_unknown_top_level_key():
    doc = good_config()
    doc["extra"] = 1
    with pytest.raises(ConfigError) as err:
        ModelConfig.from_dict(doc)
    assert err.value.field == "extra"


def test_config_rejects_bad_samples():
    # energy.samples is unused by the analysis but still validated and echoed
    for section in ("cycle", "energy"):
        doc = good_config()
        doc[section]["samples"] = 100
        with pytest.raises(ConfigError) as err:
            ModelConfig.from_dict(doc)
        assert err.value.field == f"{section}.samples"


def test_config_rejects_mu_outside_window():
    doc = good_config()
    doc["energy"]["mu"] = 3.0
    with pytest.raises(ConfigError) as err:
        ModelConfig.from_dict(doc)
    assert err.value.field == "energy.mu"


@pytest.mark.parametrize("mu", [0.4999, 0.5, 0.5001, 1.4999, 1.5, 1.5001, float("nan")])
def test_config_and_build_share_the_mu_margin(mu):
    # mu must lie inside [lo, hi], edges included: both entry points build
    # such a mu and reject any other with the same error
    doc = good_config()
    doc["energy"]["mu"] = mu
    makers = (lambda: ModelConfig.from_dict(doc),
              lambda: build("flux-loop", {"k_ell": 1.0}, energy_window=(0.5, 1.5), mu=mu))
    if 0.5 <= mu <= 1.5:
        for make in makers:
            make()
        return
    errors = []
    for make in makers:
        with pytest.raises(ConfigError) as err:
            make()
        errors.append(err.value)
    assert str(errors[0]) == str(errors[1])
    assert [e.field for e in errors] == ["energy.mu", "energy.mu"]


#: build's keyword arguments and the config fields that carry them.
BUILD_FIELDS = {"period": ("cycle", "period"), "energy_window": ("energy", "window"),
                "mu": ("energy", "mu"), "unitary_tol": ("tolerances", "tol_unitary")}

#: Faulty params of a model by test id, and the message both routes give for them.
_CAP = "must be <= 9007199254740992, got"
PARAM_FAULTS = {
    "seed-2**53+1": ("random-smooth-path", {"seed": 2**53 + 1},
                     f"params.seed: {_CAP} 9007199254740993"),
    "seed-2**64": ("random-smooth-path", {"seed": 2**64},
                   f"params.seed: {_CAP} 18446744073709551616"),
    "s0_seed-2**53+1": ("diagonal-times-constant", {"s0_seed": 2**53 + 1},
                        f"params.s0_seed: {_CAP} 9007199254740993"),
    "s0_seed-2**64": ("diagonal-times-constant", {"s0_seed": 2**64},
                      f"params.s0_seed: {_CAP} 18446744073709551616"),
    "n-65": ("diagonal-times-constant", {"n": 65}, "params.n: must be <= 64, got 65"),
    "w-0.5": ("flux-loop", {"k_ell": 1.0, "w": 0.5}, "params.w: must be an integer, got 0.5"),
    "k_ell--1": ("flux-loop", {"k_ell": -1}, "params.k_ell: must be >= 0.0, got -1"),
    "k_ell-missing": ("flux-loop", {"w": 1},
                      "params.k_ell: model 'flux-loop' requires parameter 'k_ell'"),
}


@pytest.mark.parametrize("arg, value", [
    ("period", True), ("period", float("nan")), ("period", 0.0), ("period", "1.0"),
    pytest.param("period", 10**400, id="period-int-beyond-double"),
    ("energy_window", (0.5, float("inf"))), ("energy_window", (0.0, 1.5)),
    ("energy_window", (1.5, 0.5)), ("energy_window", (0.5,)), ("energy_window", (True, 1.5)),
    ("mu", True), ("mu", None),
    ("unitary_tol", float("nan")), ("unitary_tol", 0.0), ("unitary_tol", True),
    *(pytest.param("params", fault, id=f"params-{key}") for key, fault in PARAM_FAULTS.items()),
])
def test_build_rejects_an_argument_as_its_config_field(arg, value):
    # build checks each argument as a config's field carrying it is checked:
    # the same error type and message.  A config's params reach build as
    # given, so 2**53 + 1 is not read as 2**53 and the message names 2**53 + 1.
    doc = good_config()
    name, params, kwargs = "flux-loop", {"k_ell": 1.0}, {arg: value}
    if arg == "params":
        name, params, message = value
        doc = json.loads(json.dumps(dict(doc, model=name, params=params)))
        kwargs = {}
    else:
        section, key = BUILD_FIELDS[arg]
        doc.setdefault(section, {})[key] = list(value) if arg == "energy_window" else value
    errors = []
    for make in (lambda: ModelConfig.from_dict(doc), lambda: build(name, params, **kwargs)):
        with pytest.raises(ConfigError) as err:
            make()
        errors.append(err.value)
    assert type(errors[0]) is type(errors[1])
    assert str(errors[0]) == str(errors[1])
    if arg == "params":
        assert str(errors[0]) == message
    else:
        assert [e.field for e in errors] == [f"{section}.{key}"] * 2


def test_build_accepts_numpy_reals():
    model = build("flux-loop", {"k_ell": 1.0}, period=np.float32(2.0),
                  energy_window=(np.float32(0.5), np.int64(2)), mu=np.float64(1.0),
                  unitary_tol=np.float32(1e-6))
    assert model.period == 2.0 and model.energy_window == (0.5, 2.0)
    assert model.unitary_tol == float(np.float32(1e-6))
    assert all(type(x) is float for x in (model.period, *model.energy_window, model.unitary_tol))
    # the grid and the tolerances share the config's rules, numpy scalars included
    grid = CycleGrid(np.float32(2.0), np.int64(16))
    assert type(grid.samples) is int and grid.samples == 16 and grid.dt == 0.125
    tolerances = Tolerances(tol_opt=np.float32(1e-3), tol_herm=np.int64(1))
    assert type(tolerances.tol_opt) is float and tolerances.tol_opt == float(np.float32(1e-3))
    assert type(tolerances.tol_herm) is float and tolerances.tol_herm == 1.0


def test_config_rejects_missing_section_field():
    doc = good_config()
    del doc["cycle"]["period"]
    with pytest.raises(ConfigError) as err:
        ModelConfig.from_dict(doc)
    assert err.value.field == "cycle.period"


def test_config_rejects_bad_tolerance_and_beta():
    doc = good_config()
    doc["tolerances"] = {"tol_nonsense": 1.0}
    with pytest.raises(ConfigError):
        ModelConfig.from_dict(doc)
    # a value is checked where a Tolerances is made, so a direct call, a replace
    # and a config fail alike, on tolerances.<field>
    names = [f.name for f in dataclasses.fields(Tolerances)]
    for name, bad in itertools.product(names, (0.0, math.nan, -1, True, "1e-3", None, 10**400)):
        doc["tolerances"] = {name: bad}
        makers = (lambda: Tolerances(**{name: bad}),
                  lambda: dataclasses.replace(DEFAULT_TOLERANCES, **{name: bad}),
                  lambda: ModelConfig.from_dict(doc))
        errors = []
        for make in makers:
            with pytest.raises(ConfigError) as err:
                make()
            errors.append(err.value)
        assert [e.field for e in errors] == [f"tolerances.{name}"] * 3, bad
        assert len({str(e) for e in errors}) == 1
    # the walker reports an unknown key before Tolerances sees a bad value
    for pair in ((("tol_opt", -1.0), ("tol_nonsense", 1.0)),
                 (("tol_nonsense", 1.0), ("tol_opt", -1.0))):
        doc["tolerances"] = dict(pair)
        with pytest.raises(ConfigError) as err:
            ModelConfig.from_dict(doc)
        assert err.value.field == "tolerances.tol_nonsense"
    doc = good_config()
    doc["beta"] = -1.0
    with pytest.raises(ConfigError):
        ModelConfig.from_dict(doc)


def test_config_rejects_boolean_param():
    doc = good_config()
    doc["params"]["k_ell"] = True
    with pytest.raises(ConfigError):
        ModelConfig.from_dict(doc)
    doc["params"].update(k_ell=np.float64(0.5), w=np.int64(2))
    assert ModelConfig.from_dict(doc).pump.params == {"k_ell": 0.5, "w": 2.0}


def test_config_tolerance_overrides():
    doc = good_config()
    doc["tolerances"] = {"tol_opt": 1e-5}
    cfg = ModelConfig.from_dict(doc)
    assert cfg.tolerances.tol_opt == 1e-5
    assert cfg.tolerances.tol_charge == 1e-8
    assert cfg.tolerances == dataclasses.replace(DEFAULT_TOLERANCES, tol_opt=1e-5)
    assert ModelConfig.from_dict(good_config()).tolerances is DEFAULT_TOLERANCES


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(good_config()))
    assert ModelConfig.from_file(path).pump.name == "flux-loop"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ModelConfig.from_file(bad)


# ---------------------------------------------------------------- warping


def test_time_warp_properties():
    f, fp = time_warp(2.0, 0.1)
    assert abs(f(0.0)) < 1e-15
    assert abs(f(1.3 + 2.0) - (f(1.3) + 2.0)) < 1e-12  # periodic-compatible
    ts = np.linspace(0.0, 2.0, 201)
    assert np.all(fp(ts) > 0.0)  # monotone
    with pytest.raises(ValueError):
        time_warp(1.0, 1.5)


def test_reparameterized_model_periodic():
    model = reparameterized(build("flux-loop", {"k_ell": 1.0}), 0.1)
    assert model.period == 1.0
    gap = np.linalg.norm(model.eval(1.0, 1.0) - model.eval(0.0, 1.0))
    assert gap < 1e-12
