"""The stacked pipeline against its one-time form, bit for bit.

Every observable reduces over the last two axes, so evaluating it on an
``(N, n, n)`` energy-shift stack must give exactly what a loop over its
``(n, n)`` slices gives.  The loop here is the reference.
"""

import numpy as np

from qpump.matcore import CycleGrid
from qpump.models import build
from qpump.optimal import offdiag_ratio
from qpump.shift import energy_shift_cycle, sample_cycle
from qpump.transport import instant_report, instantaneous_current
from reference import outgoing_symbol
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
        shifts, _ = energy_shift_cycle(sample_cycle(model, 1.0, GRID), GRID)
        assert shifts.shape == (GRID.samples,) + (model.n_channels,) * 2
        stacked = instant_report(shifts, GRID.times, beta=5.0)
        ratios = offdiag_ratio(shifts)
        for i, e in enumerate(shifts):
            one = instant_report(e, GRID.times[i], beta=5.0)
            for field in ("t", "qdot", "total_dissipation", "excess", "residual", "sdot", "ndot"):
                np.testing.assert_array_equal(getattr(stacked, field)[i], getattr(one, field))
            assert ratios[i] == offdiag_ratio(e)
            np.testing.assert_array_equal(instantaneous_current(shifts)[i],
                                          instantaneous_current(e))
            np.testing.assert_array_equal(outgoing_symbol(shifts).delta_prime_weight[i],
                                          outgoing_symbol(e).delta_prime_weight)
