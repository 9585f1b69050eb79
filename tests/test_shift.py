"""Energy shift, time delay, adiabaticity and the velocity split."""

import dataclasses

import numpy as np
import pytest

from qpump.errors import EnergyOutOfWindow, GridMismatch, NumericalFailure
from qpump.matcore import R_K, CycleGrid
from qpump.models import build, reparameterized, time_warp
from qpump.shift import (
    EnergyShift,
    delay_scale,
    energy_shift_at,
    energy_shift_cycle,
    energy_shift_fd,
    energy_shift_rows,
    sample_cycle,
    time_delay,
)
from qpump.transport import instant_report
from test_models import ALL_BUILTINS

GRID = CycleGrid(1.0, 256)
TWO_PI = 2.0 * np.pi


def shift_stack(model, grid=GRID):
    """The energy-shift stack of ``model`` at mu = 1 on ``grid``."""
    return energy_shift_cycle(sample_cycle(model, 1.0, grid), grid)


def constant_model():
    # all defaults: zero windings, zero coefficients, identity constant
    return build("diagonal-times-constant", {})


# ---------------------------------------------------------------- energy shift


def test_constant_model_has_zero_shift():
    shifts = shift_stack(constant_model())
    assert all(np.max(np.abs(e.array)) < 1e-13 for e in shifts)


def test_flux_loop_analytic_shift():
    # hand oracle: S = diag(e^{i(.+Phi)}, e^{i(.-Phi)}) gives
    # i dS/dt S^dag = diag(-dPhi/dt, +dPhi/dt) with dPhi/dt = 2 pi w / T
    for w in (1, 3):
        model = build("flux-loop", {"k_ell": 1.0, "w": w})
        expected = np.diag([-TWO_PI * w, TWO_PI * w]).astype(complex)
        for e in shift_stack(model)[:: 32]:
            assert np.max(np.abs(e.array - expected)) < 1e-10


def test_shift_grid_refinement():
    model = build("random-smooth-path", {"seed": 3})
    coarse = shift_stack(model, CycleGrid(1.0, 128))
    fine = shift_stack(model, CycleGrid(1.0, 256))
    worst = max(
        np.max(np.abs(coarse[i].array - fine[2 * i].array)) for i in range(128)
    )
    assert worst < 1e-10


def test_rows_route_agrees_with_matrix_route():
    for name, params in ALL_BUILTINS:
        model = build(name, params)
        stacked = np.stack([e.array for e in shift_stack(model)])
        rows = energy_shift_rows(model, 1.0, GRID)
        assert np.max(np.abs(stacked - rows)) < 1e-10, name


def test_flux_loop_rows_agree_tightly():
    model = build("flux-loop", {"k_ell": 1.0})
    stacked = np.stack([e.array for e in shift_stack(model)])
    rows = energy_shift_rows(model, 1.0, GRID)
    assert np.max(np.abs(stacked - rows)) < 1e-12


def test_diagonal_times_constant_rows_offdiagonal_free():
    model = build("diagonal-times-constant", {"w1": 1, "w2": -1, "a1_1": 0.4, "s0_seed": 3})
    rows = energy_shift_rows(model, 1.0, GRID)
    off = rows - rows * np.eye(2)[None]
    assert np.max(np.abs(off)) < 1e-12


def test_identity_model_rows_are_zero():
    rows = energy_shift_rows(constant_model(), 1.0, GRID)
    assert np.max(np.abs(rows)) < 1e-13


def test_hermiticity_defect_small_on_builtins():
    for name, params in ALL_BUILTINS:
        for e in shift_stack(build(name, params)):
            assert e.herm_defect < 1e-8, name


def test_under_resolved_grid_fails_hard():
    model = build("perturbed-flux-loop", {"k_ell": 1.0, "delta": 2.0})
    with pytest.raises(NumericalFailure):
        shift_stack(model, CycleGrid(1.0, 8))


def test_grid_period_must_match_model():
    model = build("flux-loop", {"k_ell": 1.0}, period=2.0)
    with pytest.raises(GridMismatch):
        sample_cycle(model, 1.0, GRID)


def test_finite_difference_cross_check():
    # independent differentiation route: 4th-order stencil, step T/(8N)
    for name, params in [("flux-loop", {"k_ell": 1.0}), ("random-smooth-path", {"seed": 5})]:
        model = build(name, params)
        shifts = shift_stack(model)
        for i in (0, 50, 180):
            fd = energy_shift_fd(model, GRID.times[i], 1.0, GRID)
            assert np.max(np.abs(fd.array - shifts[i].array)) < 1e-7, name


def test_energy_shift_at_matches_cycle_nodes():
    model = build("random-smooth-path", {"seed": 5})
    shifts = shift_stack(model)
    for i in (0, 17, 100):
        single = energy_shift_at(model, GRID.times[i], 1.0, GRID)
        assert np.max(np.abs(single.array - shifts[i].array)) < 1e-10


# ---------------------------------------------------------------- time delay


def test_time_delay_energy_independent():
    td = time_delay(build("random-smooth-path", {"seed": 2}), 0.3, 1.0, 1e-4)
    assert np.max(np.abs(td)) == 0.0


def test_time_delay_flux_loop_traversal_time():
    # linear dispersion, k_ell = 2 at mu = 1 -> loop traversal time l/v = 2
    model = build("flux-loop", {"k_ell": 2.0})
    td = time_delay(model, 0.3, 1.0, 1e-4)
    np.testing.assert_allclose(td, 2.0 * np.eye(2), atol=1e-9)


def test_time_delay_step_convergence():
    model = build("flux-loop", {"k_ell": 2.0})
    a = time_delay(model, 0.0, 1.0, 1e-4)
    b = time_delay(model, 0.0, 1.0, 5e-5)
    assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("name,params", [("flux-loop", {"k_ell": 1.0}),
                                         ("random-smooth-path", {"seed": 2})],
                         ids=["flux-loop", "random-smooth-path"])
def test_time_delay_stencil_window_guard(name, params):
    # an energy-independent model skips the stencil, not its guards
    model = build(name, params, energy_window=(0.5, 1.5))
    with pytest.raises(EnergyOutOfWindow, match=r"stencil \[mu-2dE, mu\+2dE\]"):
        time_delay(model, 0.0, 1.49, 0.01)
    with pytest.raises(ValueError, match="dE must be positive"):
        time_delay(model, 0.0, 1.0, -1e-4)
    with pytest.raises(EnergyOutOfWindow, match=r"stencil \[mu-2dE, mu\+2dE\]"):
        delay_scale(model, 1.49999, GRID)  # dE = 1e-4 * (hi - lo)


def test_energy_independent_delay_samples_nothing():
    model = dataclasses.replace(build("diagonal-times-constant", {"w1": 1, "s0_seed": 3}),
                                matrix_fn=None)  # any evaluation would raise
    assert model.energy_independent
    td = time_delay(model, 0.3, 1.0, 1e-4)
    np.testing.assert_array_equal(td, np.zeros((2, 2)))
    assert delay_scale(model, 1.0, GRID) == 0.0


# ---------------------------------------------------------------- adiabaticity


def epsilon(model, grid=GRID):
    """The adiabaticity parameter ``omega * tau`` at mu = 1 as ``analyze``
    takes it: ``omega = 2pi/T`` and tau the :func:`delay_scale`."""
    return (TWO_PI / model.period) * delay_scale(model, 1.0, grid)


def test_adiabaticity_energy_independent_is_zero():
    assert epsilon(build("random-smooth-path", {"seed": 4})) == 0.0


def test_adiabaticity_flux_loop():
    model = build("flux-loop", {"k_ell": 2.0})
    assert abs(epsilon(model) - 4.0 * np.pi) < 1e-8


def test_adiabaticity_slow_cycle():
    model = build("flux-loop", {"k_ell": 2.0}, period=1000.0)
    grid = CycleGrid(1000.0, 256)
    eps = epsilon(model, grid)
    assert abs(eps - 4.0 * np.pi / 1000.0) < 1e-10
    assert abs(delay_scale(model, 1.0, grid) - 2.0) < 1e-9


# ---------------------------------------------------------------- velocity split


def velocity_split(e):
    """Each row's squared velocity as (fiber, base): the phase motion
    ``|E_jj|^2 = 4pi (R_K/2) Qdot_j^2`` and the projective motion
    ``sum_{k != j} |E_jk|^2 = 4pi Xs_j``, read off the instant report."""
    report = instant_report(e)
    return 4.0 * np.pi * (R_K / 2 * report.qdot**2), 4.0 * np.pi * report.excess


def test_velocity_split_flux_loop():
    model = build("flux-loop", {"k_ell": 1.0})
    fiber, base = velocity_split(shift_stack(model)[0])
    np.testing.assert_allclose(fiber, [4.0 * np.pi**2] * 2, atol=1e-9)
    np.testing.assert_allclose(base, [0.0, 0.0], atol=1e-12)


def test_velocity_split_offdiagonal():
    fiber, base = velocity_split(EnergyShift.from_matrix([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(fiber, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(base, [1.0, 1.0], atol=1e-15)


def test_velocity_split_sums_to_square_diagonal():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    e = EnergyShift.from_matrix(a + a.conj().T)
    fiber, base = velocity_split(e)
    square_diag = np.real(np.diag(e.array @ e.array))
    assert np.max(np.abs(fiber + base - square_diag)) < 1e-13


# ---------------------------------------------------------------- covariance


def test_reparameterization_covariance():
    # E_warped(t) = f'(t) * E(f(t)) pointwise
    model = build("flux-loop", {"k_ell": 1.0, "w": 2})
    warped = reparameterized(model, 0.1)
    f, fprime = time_warp(model.period, 0.1)
    shifts = shift_stack(warped)
    for i in range(0, GRID.samples, 16):
        t = GRID.times[i]
        expected = fprime(t) * energy_shift_at(model, f(t), 1.0, GRID).array
        assert np.max(np.abs(shifts[i].array - expected)) < 1e-8
