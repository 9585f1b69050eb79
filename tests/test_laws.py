"""Laws of the energy shift, against the numbers the pipeline computes.

Closed-form oracles: ``diagonal-times-constant`` has
``E = -diag(phi_j'(t))``, so ``Q_j = -w_j`` and a dissipation per cycle of
``(pi/T) (w_j^2 + sum_m m^2 (a_jm^2 + b_jm^2) / 2)``.  ``flux-loop`` has
``E = (2 pi w/T) diag(-1, 1)`` and ``-i dS/dE S^dag = (k_ell/mu) I``, so
``Q = (-w, w)`` and ``pi w^2/T`` per channel and cycle.  The charges and
dissipations are held at 1e-12 relative to the scale of their quantity,
the time delay at its stencil's rounding floor.

Covariance: a left rotation ``S -> W S`` maps ``E -> W E W^dag``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qpump.matcore import CycleGrid, unitarize
from qpump.models import ENERGY_STEP_FRACTION, build
from qpump.shift import energy_shift_cycle, sample_cycle, time_delay
from qpump.transport import cycle_integral, instant_report
from reference import left_rotated
from test_models import ALL_BUILTINS
from test_shift import analysed

RTOL = 1e-12
EPS = np.finfo(float).eps

_samples = st.sampled_from([64, 256])
_period = st.floats(0.3, 10.0)
_coef = st.floats(-0.25, 0.25)
# Channel 1 winds monotonically (|w1| >= 2 > sum_m m (|a1m| + |b1m|)), so E
# vanishes at no node.  Where it does, the relative Hermiticity defect of
# ``energy_shift_cycle`` is rounding over rounding and fails its hard limit:
# ``{"n": 1, "b1_2": 0.5}`` on 64 samples stops at t = 0.125 with exit 2.
_dtc = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n), "s0_seed": st.integers(0, 2**31),
    "w1": st.sampled_from([-3, -2, 2, 3]),
    **{f"w{j}": st.integers(-3, 3) for j in range(2, n + 1)},
    **{f"{ab}{j}_{m}": _coef for ab in "ab" for j in range(1, n + 1) for m in (1, 2)}}))


def cycle_totals(model, mu, grid):
    """Charge and dissipation per cycle of each channel, as ``analyze`` takes them."""
    shifts, _ = energy_shift_cycle(sample_cycle(model, mu, grid), grid)
    instants = instant_report(shifts, grid.times)
    return (cycle_integral(instants.qdot, grid),
            cycle_integral(instants.total_dissipation, grid))


@given(params=_dtc, period=_period, samples=_samples)
@settings(max_examples=40, deadline=None)
def test_diagonal_times_constant_charge_and_dissipation(params, period, samples):
    model = build("diagonal-times-constant", params, period=period)
    charge, dissipation = cycle_totals(model, 1.0, CycleGrid(period, samples))
    for j in range(1, params["n"] + 1):
        w = params[f"w{j}"]
        a, b = (np.array([params[f"{ab}{j}_{m}"] for m in (1, 2)]) for ab in "ab")
        modes = np.array([1.0, 2.0])
        # |phi_j'| T / 2pi is at most this: the scale of the charge
        rate = abs(w) + modes @ (np.abs(a) + np.abs(b))
        assert abs(charge[j - 1] + w) <= RTOL * max(1.0, rate), (j, charge)
        expected = (np.pi / period) * (w**2 + modes**2 @ (a**2 + b**2) / 2.0)
        scale = (np.pi / period) * max(1.0, rate**2)
        assert abs(dissipation[j - 1] - expected) <= RTOL * scale, (j, dissipation, expected)


@given(k_ell=st.floats(0.0, 5.0), w=st.integers(-3, 3), period=_period,
       mu=st.floats(0.8, 1.2), samples=_samples, t=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_flux_loop_charge_dissipation_and_time_delay(k_ell, w, period, mu, samples, t):
    model = build("flux-loop", {"k_ell": k_ell, "w": w}, period=period, mu=mu)
    charge, dissipation = cycle_totals(model, mu, CycleGrid(period, samples))
    assert np.max(np.abs(charge - [-w, w])) <= RTOL * max(1, abs(w)), charge
    expected = np.pi * w**2 / period
    scale = np.pi * max(1, w**2) / period
    assert np.max(np.abs(dissipation - expected)) <= RTOL * scale, dissipation

    # The delay comes from the analysis' fourth-order stencil, whose rounding
    # floor is far above 1e-12 relative: each stencil entry exp(i phase) is
    # rounded by about eps (1 + |phase|), with |phase| up to
    # k_ell hi/mu + 2 pi |w|, and the stencil divides by dE = 1e-4.
    lo, hi = model.energy_window
    step = ENERGY_STEP_FRACTION * (hi - lo)
    delay = time_delay(model, t * period, mu, step)
    floor = 3.0 * EPS * (1.0 + k_ell * hi / mu + 2.0 * np.pi * abs(w)) / step
    gap = np.max(np.abs(delay - (k_ell / mu) * np.eye(2)))
    assert gap <= RTOL * k_ell / mu + floor, (gap, floor)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_left_rotation_law(seed):
    # S -> W S (W a fixed unitary) gives E -> W E W^dag.  The traces
    # sum_j Qdot_j = tr E / 2pi and sum_j D_j = tr E^2 / 4pi are kept; the
    # channel basis is not, so a generic W makes an optimal pump non-optimal.
    grid = CycleGrid(1.0, 128)
    rng = np.random.default_rng(seed)
    for name, params in ALL_BUILTINS:
        model = build(name, params)
        n = model.n_channels
        w = unitarize(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        e, rep, verdict, _ = analysed(model, grid)
        e2, rep2, verdict2, _ = analysed(left_rotated(model, w), grid)
        scale = np.max(np.abs(e))
        assert np.max(np.abs(e2 - w @ e @ w.conj().T)) <= RTOL * scale, name
        for field, unit in (("qdot", scale / (2 * np.pi)),
                            ("total_dissipation", scale**2 / (4 * np.pi))):
            gap = np.abs(getattr(rep2, field).sum(axis=1) - getattr(rep, field).sum(axis=1))
            assert np.max(gap) <= RTOL * n * unit, (name, field)
        if name == "diagonal-times-constant":
            assert verdict.is_optimal and not verdict2.is_optimal
