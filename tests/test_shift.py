"""Energy shift, time delay, adiabaticity and the velocity split."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpump.errors import GridMismatch, NumericalFailure
from qpump.matcore import R_K, CycleGrid, hermitian_part, unitarize
from qpump.models import build
from qpump.optimal import optimality_verdict
from qpump.shift import energy_shift_at, energy_shift_cycle, sample_cycle
from qpump.transport import instant_report, winding_charge
from reference import (
    energy_shift_fd,
    energy_shift_rows,
    reparameterized,
    stencil_delay,
    time_warp,
)
from test_models import ALL_BUILTINS

GRID = CycleGrid(1.0, 256)
TWO_PI = 2.0 * np.pi


def shift_stack(model, grid=GRID):
    """The energy-shift stack of ``model`` at mu = 1 on ``grid``."""
    return energy_shift_cycle(sample_cycle(model, 1.0, grid), grid)[0]


def as_shift(matrix):
    """An explicit square, finite matrix as an energy shift: its Hermitian part."""
    return hermitian_part(np.asarray(matrix, dtype=complex))[0]


def constant_model():
    # all defaults: zero windings, zero coefficients, identity constant
    return build("diagonal-times-constant", {})


# ---------------------------------------------------------------- energy shift


def test_constant_model_has_zero_shift():
    shifts = shift_stack(constant_model())
    assert all(np.max(np.abs(e)) < 1e-13 for e in shifts)


def test_flux_loop_analytic_shift():
    # hand oracle: S = diag(e^{i(.+Phi)}, e^{i(.-Phi)}) gives
    # i dS/dt S^dag = diag(-dPhi/dt, +dPhi/dt) with dPhi/dt = 2 pi w / T
    for w in (1, 3):
        model = build("flux-loop", {"k_ell": 1.0, "w": w})
        expected = np.diag([-TWO_PI * w, TWO_PI * w]).astype(complex)
        for e in shift_stack(model)[:: 32]:
            assert np.max(np.abs(e - expected)) < 1e-10


def test_shift_grid_refinement():
    model = build("random-smooth-path", {"seed": 3})
    coarse = shift_stack(model, CycleGrid(1.0, 128))
    fine = shift_stack(model, CycleGrid(1.0, 256))
    worst = max(
        np.max(np.abs(coarse[i] - fine[2 * i])) for i in range(128)
    )
    assert worst < 1e-10


def test_rows_route_agrees_with_matrix_route():
    for name, params in ALL_BUILTINS:
        model = build(name, params)
        stacked = shift_stack(model)
        rows = energy_shift_rows(model, 1.0, GRID)
        assert np.max(np.abs(stacked - rows)) < 1e-10, name


def test_flux_loop_rows_agree_tightly():
    model = build("flux-loop", {"k_ell": 1.0})
    stacked = shift_stack(model)
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
        model = build(name, params)
        for defect in energy_shift_cycle(sample_cycle(model, 1.0, GRID), GRID)[1]:
            assert defect < 1e-8, name


def test_under_resolved_grid_fails_hard():
    model = build("perturbed-flux-loop", {"k_ell": 1.0, "delta": 2.0})
    with pytest.raises(NumericalFailure):
        shift_stack(model, CycleGrid(1.0, 8))


def test_grid_period_must_match_model():
    # every sampler checks the grid against the model, relative to its period
    model = build("flux-loop", {"k_ell": 1.0}, period=2.0)
    with pytest.raises(GridMismatch):
        sample_cycle(model, 1.0, GRID)
    tiny = build("flux-loop", {"k_ell": 1.0}, period=2e-13)
    with pytest.raises(GridMismatch):
        sample_cycle(tiny, 1.0, CycleGrid(1e-13, 64))
    loop = build("flux-loop", {"k_ell": 1.0})
    with pytest.raises(GridMismatch):
        energy_shift_at(loop, 0.25, 1.0, CycleGrid(0.5, 64))
    samples = sample_cycle(loop, 1.0, GRID)
    shifts = shift_stack(loop)
    verdict = optimality_verdict(shifts, samples, instant_report(shifts, GRID.times))
    assert verdict.is_optimal
    with pytest.raises(GridMismatch):
        winding_charge(loop, 1.0, CycleGrid(0.5, 256), samples, verdict)


def test_finite_difference_cross_check():
    # independent differentiation route: 4th-order stencil, step T/(8N)
    for name, params in [("flux-loop", {"k_ell": 1.0}), ("random-smooth-path", {"seed": 5})]:
        model = build(name, params)
        shifts = shift_stack(model)
        for i in (0, 50, 180):
            fd = energy_shift_fd(model, GRID.times[i], 1.0, GRID)
            assert np.max(np.abs(fd - shifts[i])) < 1e-7, name


def test_energy_shift_at_matches_cycle_nodes():
    model = build("random-smooth-path", {"seed": 5})
    shifts = shift_stack(model)
    for i in (0, 17, 100):
        single = energy_shift_at(model, GRID.times[i], 1.0, GRID)
        assert np.max(np.abs(single - shifts[i])) < 1e-10


# ---------------------------------------------------------------- time delay


def time_delay(model, t, mu, dE):
    """The stencil's time delay of ``model`` at one time, an (n, n) array."""
    return stencil_delay(model, [t], mu, dE)[0]


def test_time_delay_energy_independent():
    # declared 0, and the stencil's paired differences of a constant are exactly 0
    model = build("random-smooth-path", {"seed": 2})
    assert model.delay == 0.0
    assert np.max(np.abs(time_delay(model, 0.3, 1.0, 1e-4))) == 0.0


def test_time_delay_flux_loop_traversal_time():
    # linear dispersion, k_ell = 2 at mu = 1 -> loop traversal time l/v = 2:
    # the stencil finds it, and the model declares it exactly
    model = build("flux-loop", {"k_ell": 2.0})
    td = time_delay(model, 0.3, 1.0, 1e-4)
    np.testing.assert_allclose(td, 2.0 * np.eye(2), atol=1e-9)
    assert model.delay == 2.0


def test_time_delay_step_convergence():
    model = build("flux-loop", {"k_ell": 2.0})
    a = time_delay(model, 0.0, 1.0, 1e-4)
    b = time_delay(model, 0.0, 1.0, 5e-5)
    assert 0.0 < np.max(np.abs(a - b)) < 1e-8  # two stencils, not one declaration


def test_energy_independent_delay_samples_nothing():
    # the delay c I is declared, and kept by a replace: tau = |c| samples no energy
    for name, params, mu, c in [
        ("diagonal-times-constant", {"w1": 1, "s0_seed": 3}, 1.0, 0.0),
        ("flux-loop", {"k_ell": 1.3, "w": 2}, 0.9, 1.3 / 0.9),
        ("perturbed-flux-loop", {"k_ell": 0.7, "delta": 0.3}, 1.1, 0.7 / 1.1),
    ]:
        model = dataclasses.replace(build(name, params, mu=mu),
                                    matrix_fn=None)  # any evaluation would raise
        assert model.delay == c
        assert epsilon(model) == TWO_PI * c  # period 1


# ---------------------------------------------------------------- adiabaticity


def epsilon(model):
    """The adiabaticity parameter ``omega * tau`` as ``analyze`` takes it:
    ``omega = 2pi/T`` and tau the declared ``|delay|``."""
    return (TWO_PI / model.period) * abs(model.delay)


def test_adiabaticity_energy_independent_is_zero():
    assert epsilon(build("random-smooth-path", {"seed": 4})) == 0.0


def test_adiabaticity_flux_loop():
    model = build("flux-loop", {"k_ell": 2.0})
    assert abs(epsilon(model) - 4.0 * np.pi) < 1e-8


def test_adiabaticity_slow_cycle():
    model = build("flux-loop", {"k_ell": 2.0}, period=1000.0)
    eps = epsilon(model)
    assert abs(eps - 4.0 * np.pi / 1000.0) < 1e-10
    assert abs(abs(model.delay) - 2.0) < 1e-9


# ---------------------------------------------------------------- velocity split


def velocity_split(e):
    """Each row's squared velocity as (fiber, base): the phase motion
    ``|E_jj|^2 = 4pi (R_K/2) Qdot_j^2`` and the projective motion
    ``sum_{k != j} |E_jk|^2 = 4pi Xs_j``, read off the instant report."""
    report = instant_report(e, 0.0)
    return 4.0 * np.pi * (R_K / 2 * report.qdot**2), 4.0 * np.pi * report.excess


def test_velocity_split_flux_loop():
    model = build("flux-loop", {"k_ell": 1.0})
    fiber, base = velocity_split(shift_stack(model)[0])
    np.testing.assert_allclose(fiber, [4.0 * np.pi**2] * 2, atol=1e-9)
    np.testing.assert_allclose(base, [0.0, 0.0], atol=1e-12)


def test_velocity_split_offdiagonal():
    fiber, base = velocity_split(as_shift([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(fiber, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(base, [1.0, 1.0], atol=1e-15)


def test_velocity_split_sums_to_square_diagonal():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    e = as_shift(a + a.conj().T)
    fiber, base = velocity_split(e)
    square_diag = np.real(np.diag(e @ e))
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
        expected = fprime(t) * energy_shift_at(model, f(t), 1.0, GRID)
        assert np.max(np.abs(shifts[i] - expected)) < 1e-8


def analysed(model, grid):
    """Energy shift, instant report, verdict and (optimal pumps only) winding
    of ``model`` at mu = 1 on ``grid``."""
    samples = sample_cycle(model, 1.0, grid)
    shifts, _ = energy_shift_cycle(samples, grid)
    instants = instant_report(shifts, grid.times)
    verdict = optimality_verdict(shifts, samples, instants)
    winding = winding_charge(model, 1.0, grid, samples, verdict) if verdict.is_optimal else None
    return shifts, instants, verdict, winding


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=10, deadline=None)
def test_right_gauge_and_relabelling_laws(seed, data):
    # S -> S V (V a random unitary) leaves E = i dS/dt S^dag, and all that
    # follows from it, unchanged.  S -> P S P^T (P any permutation)
    # relabels the channels: E -> P E P^T, and every per-channel column,
    # flag and winding is permuted by P.
    grid = CycleGrid(1.0, 128)
    rng = np.random.default_rng(seed)
    for name, params in ALL_BUILTINS:
        model = build(name, params)
        n, f = model.n_channels, model.matrix_fn
        v = unitarize(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        perm = np.array(data.draw(st.permutations(range(n)), label=f"{name} relabelling"))
        p = np.eye(n)[perm]  # (P x)_j = x_perm[j]
        e, rep, verdict, winding = analysed(model, grid)
        # the excess is measured against D: on an optimal pump it is rounding
        scales = {"qdot": np.max(np.abs(rep.qdot)),
                  "total_dissipation": np.max(rep.total_dissipation),
                  "excess": np.max(rep.total_dissipation)}
        laws = [("right gauge", lambda t, en: f(t, en) @ v, np.arange(n)),
                ("relabelling", lambda t, en: p @ f(t, en) @ p.T, perm)]
        for law, matrix_fn, k in laws:
            where = f"{name}, {law}"
            e2, rep2, verdict2, winding2 = analysed(dataclasses.replace(model, matrix_fn=matrix_fn),
                                                    grid)
            assert np.max(np.abs(e2 - e[:, k][:, :, k])) <= 1e-12 * np.max(np.abs(e)), where
            for field, scale in scales.items():
                gap = np.max(np.abs(getattr(rep2, field) - getattr(rep, field)[:, k]))
                assert gap <= 1e-12 * scale, (where, field)
            assert verdict2.is_optimal == verdict.is_optimal, where
            assert abs(verdict2.max_offdiag_ratio - verdict.max_offdiag_ratio) <= 1e-12, where
            assert verdict2.per_channel_saturation == tuple(
                np.array(verdict.per_channel_saturation)[k]), where
            if winding is not None:
                np.testing.assert_array_equal(winding2, winding[k], err_msg=where)
            if law == "right gauge" and verdict.decomposition is not None:
                constant = verdict2.decomposition[1]
                assert np.max(np.abs(constant - verdict.decomposition[1] @ v)) <= 1e-12, where
