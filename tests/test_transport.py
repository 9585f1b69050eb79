"""Currents, dissipation and its bound, entropy/noise, charges and windings."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpump.errors import NumericalFailure, PumpError
from qpump.matcore import R_K, ROUNDING_FLOOR, CycleGrid
from qpump.models import ModelConfig, build
from qpump.optimal import optimality_verdict
from qpump.report import _regime
from qpump.shift import energy_shift_cycle, sample_cycle
from qpump.transport import (
    InstantReport,
    cycle_integral,
    instant_report,
    instantaneous_current,
    winding_charge,
)
from reference import (
    central_derivative,
    dissipation_from_symbol,
    outgoing_symbol,
    reparameterized,
    stencil_delay,
)
from test_models import ALL_BUILTINS
from test_shift import as_shift

GRID = CycleGrid(1.0, 256)
PI = np.pi


def shift_stack(model, grid=GRID):
    """The energy-shift stack of ``model`` at mu = 1 on ``grid``."""
    return energy_shift_cycle(sample_cycle(model, 1.0, grid), grid)[0]


def charge(model, grid=GRID):
    """The cycle charge of ``model`` at mu = 1 on ``grid``, as ``analyze``
    takes it: the integral of the instant reports' currents."""
    return cycle_integral(instant_report(shift_stack(model, grid), grid.times).qdot, grid)


def winding(model, grid=GRID):
    """The winding count of ``model`` at mu = 1 on ``grid``, given its verdict."""
    samples = sample_cycle(model, 1.0, grid)
    shifts, _ = energy_shift_cycle(samples, grid)
    verdict = optimality_verdict(shifts, samples, instant_report(shifts, grid.times), grid)
    return winding_charge(model, 1.0, grid, samples, verdict)


def random_hermitian_shift(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return as_shift(a + a.conj().T)


def joule(report):
    """The Joule floor ``(R_K/2) Qdot^2`` of a report's channels."""
    return R_K / 2 * report.qdot**2


def flux_loop_shift(w=1):
    model = build("flux-loop", {"k_ell": 1.0, "w": w})
    return shift_stack(model)[0]


# ---------------------------------------------------------------- current


def test_current_zero_shift():
    np.testing.assert_array_equal(
        instantaneous_current(as_shift(np.zeros((3, 3)))), np.zeros(3)
    )


def test_current_flux_loop():
    np.testing.assert_allclose(instantaneous_current(flux_loop_shift()), [-1.0, 1.0], atol=1e-11)


def test_current_linear_in_shift():
    e = as_shift(np.diag([PI, -PI]))
    np.testing.assert_allclose(instantaneous_current(e), [0.5, -0.5], atol=1e-15)


# ---------------------------------------------------------------- dissipation


def test_dissipation_zero():
    d = instant_report(as_shift(np.zeros((2, 2))), 0.0)
    assert np.all(d.total_dissipation == 0.0) and np.all(d.excess == 0.0)


def test_dissipation_flux_loop_saturates_bound():
    d = instant_report(flux_loop_shift(), 0.0)
    np.testing.assert_allclose(d.total_dissipation, [PI, PI], atol=1e-10)
    np.testing.assert_allclose(joule(d), [PI, PI], atol=1e-10)
    np.testing.assert_allclose(d.excess, [0.0, 0.0], atol=1e-12)


def test_dissipation_purely_offdiagonal():
    d = instant_report(as_shift([[0.0, 1.0], [1.0, 0.0]]), 0.0)
    np.testing.assert_allclose(d.total_dissipation, [1 / (4 * PI)] * 2, atol=1e-15)
    np.testing.assert_allclose(joule(d), [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(d.excess, d.total_dissipation, atol=1e-15)


def test_decomposition_identity_on_builtins():
    for name, params in ALL_BUILTINS:
        for e, t in zip(shift_stack(build(name, params))[:: 16], GRID.times[:: 16]):
            d = instant_report(e, t)
            gap = np.abs(d.total_dissipation - (joule(d) + d.excess))
            assert np.max(gap) < 1e-12, name


def test_square_identity_on_builtins():
    # diagonal of E^2 equals the row sums of |E_jk|^2
    for name, params in ALL_BUILTINS:
        for m in shift_stack(build(name, params))[:: 16]:
            via_product = np.real(np.diag(m @ m))
            via_rows = (np.abs(m) ** 2).sum(axis=1)
            assert np.max(np.abs(via_product - via_rows)) < 1e-12, name


# ---------------------------------------------------------------- bound


def test_residual_diagonal_is_zero():
    e = as_shift(np.diag([2.0, -1.0, 0.5]))
    assert np.max(np.abs(instant_report(e, 0.0).residual)) < 1e-14


def test_residual_hand_value():
    # E = [[1,1],[1,-1]]: E^2 = 2 I, D = 1/2pi, joule = 1/4pi each channel
    e = as_shift([[1.0, 1.0], [1.0, -1.0]])
    np.testing.assert_allclose(instant_report(e, 0.0).residual, [1 / (4 * PI)] * 2, atol=1e-15)


def test_residual_nonnegative_sweep():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        e = random_hermitian_shift(rng, 4)
        r = instant_report(e, 0.0).residual
        closed_form = instant_report(e, 0.0).excess
        np.testing.assert_allclose(r, closed_form, atol=1e-12)
        worst = min(worst, r.min())
    assert worst >= -1e-12


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_residual_nonnegative_property(seed, n):
    e = random_hermitian_shift(np.random.default_rng(seed), n)
    assert instant_report(e, 0.0).residual.min() >= -1e-12


def test_charge_conservation_is_trace():
    rng = np.random.default_rng(9)
    e = random_hermitian_shift(rng, 3)
    total = instantaneous_current(e).sum()
    assert abs(total - np.trace(e).real / (2 * PI)) < 1e-12
    # flux loop is trace free: zero net instantaneous current
    assert abs(instantaneous_current(flux_loop_shift()).sum()) < 1e-12


# ---------------------------------------------------------------- entropy/noise


def test_entropy_noise_diagonal_is_zero():
    en = instant_report(as_shift(np.diag([1.0, -1.0])), 0.0, 10.0)
    assert np.all(en.sdot == 0.0) and np.all(en.ndot == 0.0)


def test_entropy_noise_values_and_ratio():
    e = as_shift([[0.0, 1.0], [1.0, 0.0]])
    en = instant_report(e, 0.0, 10.0)
    np.testing.assert_allclose(en.sdot, [10 / (4 * PI)] * 2, atol=1e-15)
    np.testing.assert_allclose(en.ndot, [10 / (12 * PI)] * 2, atol=1e-15)
    np.testing.assert_allclose(en.sdot / en.ndot, 3.0, rtol=1e-14)


def regime_config(model, params, omega, beta):
    """A config at mu = 1 whose cycle has ``omega = 2 pi / T``: on a flux loop
    ``tau = k_ell``, on ``diagonal-times-constant`` ``tau = 0``."""
    doc = {"model": model, "params": params, "cycle": {"period": 2 * PI / omega, "samples": 64},
           "energy": {"mu": 1.0, "window": [0.5, 1.5]}}
    return ModelConfig.from_dict(doc if beta is None else dict(doc, beta=beta))


#: (model, params, omega, beta, regime_ok) at the edges of omega < 1/beta < 1/tau.
REGIME_CASES = {
    "inside": ("flux-loop", {"k_ell": 5.0}, 0.05, 10.0, True),  # 0.5 < 1, 5 < 10
    "omega_beta_2": ("flux-loop", {"k_ell": 5.0}, 0.2, 10.0, False),
    "tau_over_beta": ("flux-loop", {"k_ell": 20.0}, 0.05, 10.0, False),
    "tau_0": ("diagonal-times-constant", {"w1": 1.0}, 0.05, 10.0, True),  # no lower scale
    "no_beta": ("flux-loop", {"k_ell": 5.0}, 0.05, None, None),
}


def test_entropy_noise_regime_flags():
    # the window is the cycle's: omega, tau and beta come from the config
    for name in ("inside", "omega_beta_2", "tau_over_beta", "tau_0"):
        model, params, omega, beta, expected = REGIME_CASES[name]
        epsilon, regime_ok = _regime(regime_config(model, params, omega, beta))
        assert regime_ok is expected, name
        assert epsilon == pytest.approx(omega * params.get("k_ell", 0.0), rel=1e-15), name
    with pytest.raises(ValueError):
        instant_report(as_shift([[0.0, 1.0], [1.0, 0.0]]), 0.0, 0.0)


# ---------------------------------------------------------------- guards


@pytest.mark.parametrize("call,message", [
    (lambda: stencil_delay(build("diagonal-times-constant", {}), [0.0], 1.0, float("nan")),
     "step must be positive"),
    (lambda: instant_report(flux_loop_shift(), 0.0, beta=float("nan")), "^beta: must be finite"),
    (lambda: central_derivative(lambda x: np.array([x]), 1.0, float("nan")),
     "step must be positive"),
    (lambda: instant_report(flux_loop_shift(), 0.0, beta=float("inf")),
     "^beta: must be finite"),
], ids=["time_delay-dE", "instant_report-beta", "central_derivative-step", "instant_report-beta-inf"])
def test_positive_guards_reject_nan(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------- symbol


def test_symbol_zero_shift_is_fermi_sea():
    sym = outgoing_symbol(as_shift(np.zeros((2, 2))))
    assert np.all(sym.delta_weight == 0.0) and np.all(sym.delta_prime_weight == 0.0)


def test_symbol_flux_loop():
    sym = outgoing_symbol(flux_loop_shift())
    np.testing.assert_allclose(sym.delta_weight, [-2 * PI, 2 * PI], atol=1e-10)
    np.testing.assert_allclose(sym.delta_prime_weight, [-2 * PI**2] * 2, atol=1e-9)
    assert np.all(sym.delta_prime_weight <= 0.0)


def test_symbol_moment_consistency():
    rng = np.random.default_rng(17)
    for _ in range(50):
        e = random_hermitian_shift(rng, 3)
        via_moments = dissipation_from_symbol(outgoing_symbol(e))
        assert np.max(np.abs(via_moments - instant_report(e, 0.0).total_dissipation)) < 1e-12


# ---------------------------------------------------------------- cycle charge


def test_cycle_charge_constant_model():
    model = build("diagonal-times-constant", {})
    np.testing.assert_allclose(charge(model), [0.0, 0.0], atol=1e-13)


def test_cycle_charge_flux_loop_quantized():
    for w in (1, 3):
        model = build("flux-loop", {"k_ell": 1.0, "w": w})
        q = charge(model)
        np.testing.assert_allclose(q, [-w, w], atol=1e-10)


def test_cycle_charge_reparameterization_invariant():
    model = build("flux-loop", {"k_ell": 1.0, "w": 2})
    q0 = charge(model)
    q1 = charge(reparameterized(model, 0.1))
    assert np.max(np.abs(q0 - q1)) < 1e-8


def test_winding_matches_charge_on_optimal_models():
    for name, params in [
        ("flux-loop", {"k_ell": 1.0, "w": 2}),
        ("diagonal-times-constant", {"w1": 3, "w2": -1, "a1_1": 0.2, "s0_seed": 4}),
    ]:
        model = build(name, params)
        q = charge(model)
        w = winding(model)
        assert np.max(np.abs(q - np.rint(q))) < 1e-8
        np.testing.assert_array_equal(w, np.rint(q).astype(int))


def test_winding_flux_loop():
    model = build("flux-loop", {"k_ell": 0.0, "w": 5})
    np.testing.assert_array_equal(winding(model, CycleGrid(1.0, 64)), [-5, 5])
    with pytest.raises(NumericalFailure, match="advances"):
        winding(model, CycleGrid(1.0, 8))


def test_winding_of_a_nan_node_raises():
    # a NaN overlap has no phase step: it fails with its own message, not as a cast
    model, grid = build("flux-loop", {"k_ell": 1.0, "w": 2}), GRID
    samples = sample_cycle(model, 1.0, grid)
    shifts, _ = energy_shift_cycle(samples, grid)
    verdict = optimality_verdict(shifts, samples, instant_report(shifts, grid.times), grid)
    samples = samples.copy()
    samples[7, 1, 1] = np.nan
    with pytest.raises(NumericalFailure, match="^row 2 overlap is NaN; the samples are not "
                                               "certified$"):
        winding_charge(model, 1.0, grid, samples, verdict)


def test_winding_requires_optimality():
    model = build("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.1})
    with pytest.raises(PumpError, match="fails the optimality verdict"):
        winding(model)


# ---------------------------------------------------------------- sweep


def test_dequantization_sweep():
    sweep = {delta: charge(build("perturbed-flux-loop", {"k_ell": 1.0, "delta": delta}))
             for delta in (0.0, 0.2, 0.1, 0.05)}
    assert abs(sweep[0.0][0] + 1.0) < 1e-10
    offsets = [abs(sweep[d][0] + 1.0) for d in (0.2, 0.1, 0.05)]
    assert offsets[0] > 1e-6
    assert offsets[0] > offsets[1] > offsets[2] > 0.0


# ---------------------------------------------------------------- reports


def test_instant_report_fields():
    rep = instant_report(flux_loop_shift(), 0.0, beta=10.0)
    np.testing.assert_allclose(rep.qdot, [-1.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(rep.total_dissipation, [PI, PI], atol=1e-10)
    assert rep.sdot is not None and rep.ndot is not None
    bare = instant_report(flux_loop_shift(), 0.0)
    assert bare.sdot is None and bare.ndot is None


@pytest.mark.parametrize("period", [1.0, 1000.0])
def test_identity_check_is_relative_to_the_channel_scale(period):
    # a relative 1e-9 error in the excess breaks D = joule + excess on a slow
    # pump (max D ~ 1e-5 at T = 1000) as on a fast one: the identity is held,
    # like the residual, to the channel's largest D, not to max(1, |D|)
    model = build("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.3, "w": 2}, period=period)
    grid = CycleGrid(period, 256)
    report = instant_report(shift_stack(model, grid), grid.times)
    with pytest.raises(NumericalFailure, match="decomposition identity"):
        dataclasses.replace(report, excess=report.excess * (1.0 + 1e-9))


@pytest.mark.parametrize("period", [1e-3, 1.0])
def test_residual_floor_is_relative_to_the_dissipation(period):
    # D - (R_K/2) Qdot^2 rounds at eps max D: a fast optimal pump (max D ~ 3e6 at
    # T = 1e-3, residuals down to -9e-10) passes as a slow one does, and a residual
    # two floors below zero fails at both periods
    model = build("flux-loop", {"k_ell": 1.0, "w": 1}, period=period)
    grid = CycleGrid(period, 256)
    report = instant_report(shift_stack(model, grid), grid.times)
    if period < 1.0:
        assert report.residual.min() < -1e-12
    floor = ROUNDING_FLOOR * report.total_dissipation.max(axis=0)
    with pytest.raises(NumericalFailure, match="^dissipation bound violated"):
        dataclasses.replace(report, residual=report.residual - 2.0 * floor)


def test_instant_report_rejects_negative_dissipation():
    with pytest.raises(NumericalFailure, match="^negative dissipation in instant report$"):
        InstantReport(t=0.0, qdot=np.zeros(2), total_dissipation=np.array([0.1, -1e-300]),
                      excess=np.array([0.1, 0.0]), residual=np.array([0.1, 0.0]))


def test_instant_report_rejects_bound_violation():
    with pytest.raises(NumericalFailure):
        InstantReport(
            t=0.0,
            qdot=np.array([1.0]),
            total_dissipation=np.array([0.1]),
            excess=np.array([0.0]),
            residual=np.array([0.1 - 0.5 * R_K]),
        )
