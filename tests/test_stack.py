"""The stacked pipeline against its one-time form, bit for bit.

Every observable reduces over the last two axes, so evaluating it on an
``(N, n, n)`` energy-shift stack must give exactly what a loop over the
one-time views gives.  The loop here is the reference.
"""

import numpy as np

from qpump.matcore import CycleGrid
from qpump.models import build
from qpump.optimal import offdiag_ratio
from qpump.shift import energy_shift_cycle, sample_cycle, velocity_split
from qpump.transport import (
    bound_residual,
    dissipation,
    entropy_noise,
    instant_report,
    instantaneous_current,
    outgoing_symbol,
)
from test_models import ALL_BUILTINS

GRID = CycleGrid(1.0, 64)


def test_sample_equals_one_time_evals():
    for name, params in ALL_BUILTINS:
        model = build(name, params)
        times = GRID.times + 0.01
        looped = np.stack([model.eval(t, 1.1) for t in times])
        np.testing.assert_array_equal(model.sample(times, 1.1), looped, err_msg=name)


def test_stack_views_and_observables_match_loop():
    for name, params in ALL_BUILTINS:
        model = build(name, params)
        shifts = energy_shift_cycle(model, 1.0, GRID)
        assert len(shifts) == GRID.samples and len(shifts[::4]) == GRID.samples // 4
        stacked = instant_report(shifts, beta=5.0, omega=0.1, tau=0.1)
        ratios = offdiag_ratio(shifts)
        for i, e in enumerate(shifts):
            assert e.array.shape == (model.n_channels,) * 2
            assert e.t == GRID.times[i] and e.herm_defect == shifts.herm_defect[i]
            one = instant_report(e, beta=5.0, omega=0.1, tau=0.1)
            for field in ("qdot", "total_dissipation", "excess", "residual", "sdot", "ndot"):
                np.testing.assert_array_equal(getattr(stacked, field)[i], getattr(one, field))
            assert ratios[i] == offdiag_ratio(e)
            np.testing.assert_array_equal(bound_residual(shifts)[i], bound_residual(e))
            np.testing.assert_array_equal(dissipation(shifts).joule[i], dissipation(e).joule)
            np.testing.assert_array_equal(instantaneous_current(shifts)[i],
                                          instantaneous_current(e))
            np.testing.assert_array_equal(entropy_noise(shifts, 5.0, 0.1, 0.1).sdot[i],
                                          entropy_noise(e, 5.0, 0.1, 0.1).sdot)
            np.testing.assert_array_equal(outgoing_symbol(shifts).delta_prime_weight[i],
                                          outgoing_symbol(e).delta_prime_weight)
            np.testing.assert_array_equal(velocity_split(shifts).base[i], velocity_split(e).base)


def test_shared_samples_give_the_same_stack():
    model = build("random-smooth-path", {"seed": 2, "n": 3})
    fresh = energy_shift_cycle(model, 1.0, GRID)
    shared = energy_shift_cycle(model, 1.0, GRID, samples=sample_cycle(model, 1.0, GRID))
    np.testing.assert_array_equal(fresh.array, shared.array)
