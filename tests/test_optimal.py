"""Optimality verdicts, saturation flags and the diagonal decomposition."""

import numpy as np

from qpump.matcore import CycleGrid
from qpump.models import build, reparameterized
from qpump.optimal import (
    diagonal_decomposition,
    offdiag_ratio,
    optimality_verdict,
)
from qpump.shift import EnergyShift
from test_models import ALL_BUILTINS

GRID = CycleGrid(1.0, 256)


# ---------------------------------------------------------------- ratio


def test_ratio_diagonal():
    assert offdiag_ratio(EnergyShift.from_matrix(np.diag([1.0, -1.0]))) == 0.0


def test_ratio_fully_offdiagonal():
    assert abs(offdiag_ratio(EnergyShift.from_matrix([[0, 1], [1, 0]])) - 1.0) < 1e-15


def test_ratio_mixed_hand_value():
    got = offdiag_ratio(EnergyShift.from_matrix([[1.0, 1.0], [1.0, -1.0]]))
    assert abs(got - np.sqrt(0.5)) < 1e-12


def test_ratio_motionless_is_zero():
    assert offdiag_ratio(EnergyShift.from_matrix(np.zeros((3, 3)))) == 0.0


# ---------------------------------------------------------------- verdict


def test_flux_loop_verdict():
    verdict = optimality_verdict(build("flux-loop", {"k_ell": 1.0}), 1.0, GRID)
    assert verdict.is_optimal
    assert verdict.max_offdiag_ratio < 1e-12
    assert all(verdict.per_channel_saturation)
    assert verdict.decomposition is not None
    assert 0.0 <= verdict.worst_time < 1.0


def test_perturbed_verdict():
    model = build("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.1})
    verdict = optimality_verdict(model, 1.0, GRID)
    assert not verdict.is_optimal
    assert verdict.max_offdiag_ratio > 1e-3
    assert not any(verdict.per_channel_saturation)
    assert verdict.decomposition is None


def test_single_channel_always_optimal():
    for seed in (0, 3, 11):
        model = build("random-smooth-path", {"n": 1, "seed": seed})
        assert optimality_verdict(model, 1.0, GRID).is_optimal


def test_saturation_iff_optimal():
    for name, params in ALL_BUILTINS:
        verdict = optimality_verdict(build(name, params), 1.0, GRID)
        assert all(verdict.per_channel_saturation) == verdict.is_optimal, name


def test_criteria_equivalence_on_builtins():
    # diagonality of the energy shift <=> diagonal-times-constant form
    for name, params in ALL_BUILTINS:
        model = build(name, params)
        verdict = optimality_verdict(model, 1.0, GRID)
        decomposition = diagonal_decomposition(model, 1.0, GRID)
        assert verdict.is_optimal == (decomposition is not None), name


def test_verdict_reparameterization_invariant():
    for name, params in [
        ("flux-loop", {"k_ell": 1.0}),
        ("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.1}),
    ]:
        model = build(name, params)
        v0 = optimality_verdict(model, 1.0, GRID)
        v1 = optimality_verdict(reparameterized(model, 0.1), 1.0, GRID)
        assert v0.is_optimal == v1.is_optimal
        assert v0.per_channel_saturation == v1.per_channel_saturation


# ---------------------------------------------------------------- decomposition


def test_decomposition_of_built_form():
    model = build(
        "diagonal-times-constant",
        {"w1": 2, "w2": -1, "a1_1": 0.3, "b2_1": 0.1, "s0_seed": 9},
    )
    dec = diagonal_decomposition(model, 1.0, GRID)
    assert dec is not None
    rebuilt = np.exp(1j * dec.phases)[:, :, None] * dec.constant[None]
    sampled = np.stack([model.eval(t, 1.0) for t in GRID.times])
    assert np.max(np.abs(rebuilt - sampled)) < 1e-10


def test_decomposition_flux_loop_phases():
    dec = diagonal_decomposition(build("flux-loop", {"k_ell": 1.0}), 1.0, GRID)
    assert dec is not None
    # phases are +/- the flux ramp, up to the constant gauge at t0
    ramp = 2.0 * np.pi * GRID.times
    ph = dec.phases - dec.phases[0]
    assert np.max(np.abs(ph[:, 0] - ramp)) < 1e-12
    assert np.max(np.abs(ph[:, 1] + ramp)) < 1e-12


def test_decomposition_absent_for_perturbed():
    model = build("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.1})
    assert diagonal_decomposition(model, 1.0, GRID) is None
