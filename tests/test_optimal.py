"""Optimality verdicts, saturation flags and the diagonal decomposition."""

import numpy as np
import pytest

from qpump.matcore import DEFAULT_TOLERANCES, CycleGrid, Tolerances
from qpump.models import build
from qpump.optimal import (
    diagonal_decomposition,
    offdiag_ratio,
    optimality_verdict,
)
from qpump.shift import energy_shift_cycle, sample_cycle
from qpump.transport import instant_report
from reference import rebuilt_decomposition, reparameterized, right_wobbled
from test_acceptance import BARELY_MOVING_DTC, STATIONARY_DTC
from test_models import ALL_BUILTINS
from test_shift import as_shift

GRID = CycleGrid(1.0, 256)


def verdict_of(model):
    """The optimality verdict of ``model`` at mu = 1 on GRID."""
    samples = sample_cycle(model, 1.0, GRID)
    shifts, _ = energy_shift_cycle(samples, GRID)
    return optimality_verdict(shifts, samples, instant_report(shifts, GRID.times), GRID)


def limit_of(model, grid=GRID, tol=DEFAULT_TOLERANCES.tol_opt):
    """``model``'s samples at mu = 1 on ``grid`` and the decomposition limit its
    verdict at ``tol_opt = tol`` implies (the one ``optimality_verdict`` attempts)."""
    samples = sample_cycle(model, 1.0, grid)
    shifts, _ = energy_shift_cycle(samples, grid)
    verdict = optimality_verdict(shifts, samples, instant_report(shifts, grid.times), grid,
                                 Tolerances(tol_opt=tol))
    return samples, max(tol, tol * verdict.scale * grid.period)


def decomposition_of(model):
    """The diagonal decomposition of ``model``'s samples at mu = 1 on GRID, at the
    limit its verdict implies."""
    return diagonal_decomposition(*limit_of(model))


# ---------------------------------------------------------------- ratio


def own_ratio(e):
    """The off-diagonal ratio of one shift against its own norm."""
    return offdiag_ratio(e, np.linalg.norm(e))


def test_ratio_diagonal():
    assert own_ratio(as_shift(np.diag([1.0, -1.0]))) == 0.0


def test_ratio_fully_offdiagonal():
    assert abs(own_ratio(as_shift([[0, 1], [1, 0]])) - 1.0) < 1e-15


def test_ratio_mixed_hand_value():
    got = own_ratio(as_shift([[1.0, 1.0], [1.0, -1.0]]))
    assert abs(got - np.sqrt(0.5)) < 1e-12


def test_ratio_motionless_is_zero():
    # an energy shift of exactly zero: the verdict's scale is the noise floor, never 0
    verdict = verdict_of(build("diagonal-times-constant", {"n": 3, "s0_seed": 5}))
    assert verdict.is_optimal and verdict.max_offdiag_ratio == 0.0
    assert verdict.scale > 0.0


def test_slow_cycles_are_judged_like_fast_ones():
    # a small generic pump: its energy shift scales as 1/period, far below
    # any fixed energy at the slow periods, yet its ratios are the same
    verdicts = {}
    for period in (1.0, 1e14, 1e16):
        grid = CycleGrid(period, 64)
        model = build("random-smooth-path", {"n": 2, "seed": 3, "amplitude": 1e-3},
                      period=period)
        samples = sample_cycle(model, 1.0, grid)
        shifts, _ = energy_shift_cycle(samples, grid)
        instants = instant_report(shifts, grid.times)
        verdicts[period] = optimality_verdict(shifts, samples, instants, grid)
    reference = verdicts[1.0]
    assert not reference.is_optimal
    for period, verdict in verdicts.items():
        assert verdict.is_optimal == reference.is_optimal, period
        assert verdict.max_offdiag_ratio == pytest.approx(reference.max_offdiag_ratio,
                                                          rel=1e-12, abs=0.0), period
        # per time, the grid nodes themselves round differently at each period
        np.testing.assert_allclose(verdict.ratios, reference.ratios, rtol=1e-10, atol=0.0,
                                   err_msg=f"period {period:g}")


# ---------------------------------------------------------------- verdict


def test_flux_loop_verdict():
    verdict = verdict_of(build("flux-loop", {"k_ell": 1.0}))
    assert verdict.is_optimal
    assert verdict.max_offdiag_ratio < 1e-12
    assert all(verdict.per_channel_saturation)
    assert verdict.decomposition is not None
    assert 0.0 <= verdict.worst_time < 1.0


def test_perturbed_verdict():
    model = build("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.1})
    verdict = verdict_of(model)
    assert not verdict.is_optimal
    assert verdict.max_offdiag_ratio > 1e-3
    assert not any(verdict.per_channel_saturation)
    assert verdict.decomposition is None


def test_single_channel_always_optimal():
    for seed in (0, 3, 11):
        model = build("random-smooth-path", {"n": 1, "seed": seed})
        assert verdict_of(model).is_optimal


def test_saturation_iff_optimal():
    for name, params in ALL_BUILTINS:
        verdict = verdict_of(build(name, params))
        assert all(verdict.per_channel_saturation) == verdict.is_optimal, name


def test_criteria_equivalence_on_builtins():
    # diagonality of the energy shift <=> diagonal-times-constant form
    for name, params in ALL_BUILTINS:
        model = build(name, params)
        verdict = verdict_of(model)
        decomposition = decomposition_of(model)
        assert verdict.is_optimal == (decomposition is not None), name


def test_verdict_reparameterization_invariant():
    for name, params in [
        ("flux-loop", {"k_ell": 1.0}),
        ("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.1}),
    ]:
        model = build(name, params)
        v0 = verdict_of(model)
        v1 = verdict_of(reparameterized(model, 0.1))
        assert v0.is_optimal == v1.is_optimal
        assert v0.per_channel_saturation == v1.per_channel_saturation


# ---------------------------------------------------------------- decomposition


def test_decomposition_of_built_form():
    model = build(
        "diagonal-times-constant",
        {"w1": 2, "w2": -1, "a1_1": 0.3, "b2_1": 0.1, "s0_seed": 9},
    )
    dec = decomposition_of(model)
    assert dec is not None
    phases, constant = dec
    rebuilt = np.exp(1j * phases)[:, :, None] * constant[None]
    sampled = np.stack([model.eval(t, 1.0) for t in GRID.times])
    assert np.max(np.abs(rebuilt - sampled)) < 1e-10


def test_decomposition_flux_loop_phases():
    dec = decomposition_of(build("flux-loop", {"k_ell": 1.0}))
    assert dec is not None
    phases, _ = dec
    # phases are +/- the flux ramp, up to the constant gauge at t0
    ramp = 2.0 * np.pi * GRID.times
    ph = phases - phases[0]
    assert np.max(np.abs(ph[:, 0] - ramp)) < 1e-12
    assert np.max(np.abs(ph[:, 1] + ramp)) < 1e-12


def test_decomposition_absent_for_perturbed():
    model = build("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.1})
    assert decomposition_of(model) is None


def test_decomposition_needs_a_unitary_anchor():
    # the error is read off M = S S0^dag, exact when S0 is unitary: a stack scaled
    # by 2 has a diagonal M of modulus 4 and no decomposition (the rebuild, which
    # compares 2 U_d S0 with itself, accepts it with a non-unitary S0)
    model = build("diagonal-times-constant", {"n": 3, "s0_seed": 5, "w1": 1, "a2_1": 0.2})
    samples, limit = limit_of(model)
    assert diagonal_decomposition(samples, limit) is not None
    assert diagonal_decomposition(2.0 * samples, limit) is None
    assert rebuilt_decomposition(2.0 * samples, limit) is not None
    # with S0 unitary the two rules agree on a node whose modulus drifts alone
    drifted = samples.copy()
    drifted[100, 1] *= 1.0 + 10.0 * limit
    assert diagonal_decomposition(drifted, limit) is None
    assert rebuilt_decomposition(drifted, limit) is None


def test_decomposition_of_nan_samples_is_absent():
    # every comparison with NaN is false, so the limits are met only by numbers
    assert diagonal_decomposition(np.full((8, 2, 2), np.nan + 0j), 1e-8) is None
    samples, limit = limit_of(build("flux-loop", {"k_ell": 1.0, "w": 2}))
    assert diagonal_decomposition(samples, limit) is not None
    samples = samples.copy()
    samples[5, 0, 1] = np.nan
    assert diagonal_decomposition(samples, limit) is None


def _law_cases():
    """The pumps of acceptance criterion 09 at the default ``tol_opt``, and the
    explicit examples of the laws that judge optimality, at theirs."""
    default = DEFAULT_TOLERANCES.tol_opt
    cases = [(build(name, params), GRID, default)
             for name, params in [*ALL_BUILTINS, STATIONARY_DTC, BARELY_MOVING_DTC]]
    cases.append((right_wobbled(build("flux-loop", {"k_ell": 1, "w": 20}), 1e-7), GRID, default))
    cases += [(build(*STATIONARY_DTC), CycleGrid(1.0, 64), default),
              (build("diagonal-times-constant",
                     {"n": 2, "s0_seed": 1, "a1_1": 1e-12, "b2_1": 2e-12}), GRID, default)]
    for tol, delta, w, right in [(1e-3, 1e-4, 1, False), (1e-3, 3e-4, 1, False),
                                 (1e-4, 1e-4, 20, True), (1e-8, 1e-7, 20, True),
                                 (1e-10, 1e-7, 3, False), (1e-2, 3e-2, 3, True)]:
        model = (right_wobbled(build("flux-loop", {"k_ell": 1.0, "w": w}), delta) if right
                 else build("perturbed-flux-loop", {"k_ell": 1.0, "w": w, "delta": delta}))
        cases.append((model, GRID, tol))
    return cases


@pytest.mark.parametrize("model, grid, tol", _law_cases())
def test_decomposition_decides_as_the_rebuild(model, grid, tol):
    # on certified samples the error from M alone and the rebuilt factorization's
    # differ by rounding, so every decision at the verdict's limit is the same
    samples, limit = limit_of(model, grid, tol)
    got, want = diagonal_decomposition(samples, limit), rebuilt_decomposition(samples, limit)
    assert (got is None) == (want is None), model.name
    if got is not None:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
