"""Discrete fillings, the greedy minimizer and the dissipation bound."""

import tracemalloc

import numpy as np
import pytest

import qpump.bathtub as bathtub
from qpump.bathtub import (
    _BLOCK,
    BoundCheck,
    DispersionGrid,
    Filling,
    _greedy_edot,
    _sorted_modes,
    analytic_minimum,
    greedy_minimize,
    linear_dispersion,
    quadratic_dispersion,
    thermal_step,
    verify_bound,
)
from qpump.errors import ConfigError, PumpError
from qpump.models import uniform_stream
from reference import project_to_qdot, reference_fluxes, two_sided_bound

PI = np.pi
TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------- grids


def test_grid_construction():
    grid = linear_dispersion(2.0, 128)
    assert grid.kind == "linear"
    assert grid.dk == 2.0 / 128
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.weights >= 0.0)
    np.testing.assert_allclose(grid.eps, grid.nodes)
    quad = quadratic_dispersion(2.0, 128, mass=2.0)
    np.testing.assert_allclose(quad.eps, 0.25 * quad.nodes**2)
    with pytest.raises(ValueError):
        linear_dispersion(2.0, 32)
    with pytest.raises(ValueError):
        linear_dispersion(-1.0, 128)
    with pytest.raises(ValueError):
        quadratic_dispersion(2.0, 128, mass=0.0)


def test_filling_fluxes():
    grid = linear_dispersion(2.0, 64)
    full = Filling.from_occupation(grid, np.ones(64))
    # full band: measure k_max, energy (k_max^2 + k_max*dk)/2 at right edges
    assert abs(full.qdot - 2.0 / TWO_PI) < 1e-14
    assert abs(full.edot - (4.0 + 2.0 * grid.dk) / 2.0 / TWO_PI) < 1e-14
    with pytest.raises(ValueError):
        Filling.from_occupation(grid, np.full(64, 1.5))
    with pytest.raises(ValueError):
        Filling.from_occupation(grid, np.ones(32))


def test_nan_inputs_are_rejected():
    # NaN fails every range check instead of flowing into the fluxes
    grid = linear_dispersion(2.0, 64)
    occ = np.full(64, 0.5)
    occ[7] = np.nan
    with pytest.raises(ValueError, match=r"occupations must lie in \[0, 1\]"):
        Filling.from_occupation(grid, occ)
    with pytest.raises(ValueError, match=r"occupations must lie in \[0, 1\]"):
        project_to_qdot(grid, occ, 0.1)
    with pytest.raises(ConfigError, match="^mass: must be finite"):
        quadratic_dispersion(2.0, 64, mass=np.nan)
    with pytest.raises(PumpError, match="outside feasible range"):
        greedy_minimize(grid, np.nan)
    with pytest.raises(PumpError, match="outside feasible range"):
        project_to_qdot(grid, np.full(64, 0.5), np.nan)
    with pytest.raises(ValueError, match="mu_minus must be >= 0"):
        two_sided_bound(np.nan, thermal_step(grid, 1.0), grid)
    with pytest.raises(ConfigError, match=r"^mu: must lie in \(0, eps\(k_max\)\]"):
        thermal_step(grid, np.nan)
    with pytest.raises(ConfigError, match=r"^mu: must lie in \(0, eps\(k_max\)\]"):
        verify_bound(grid, 1, mu=np.nan)
    with pytest.raises(ValueError, match="k \\* eps'\\(k\\) >= 0"):
        DispersionGrid(kind="nan", k_max=2.0, n_k=64, nodes=grid.nodes, eps=grid.eps,
                       weights=np.full(64, np.nan))


LINEAR64 = linear_dispersion(2.0, 64)


@pytest.mark.parametrize("call,field", [
    (lambda: linear_dispersion(2.0, 0), "nk"),
    (lambda: quadratic_dispersion(2.0, 0), "nk"),
    (lambda: linear_dispersion(2.0, 64.7), "nk"),
    (lambda: linear_dispersion(2.0, True), "nk"),
    (lambda: linear_dispersion(2.0, bathtub.MAX_NK + 1), "nk"),
    (lambda: linear_dispersion(0.0, 32), "nk"),
    (lambda: quadratic_dispersion(float("inf"), 64), "kmax"),
    (lambda: quadratic_dispersion(1e200, 64), "kmax"),
    (lambda: quadratic_dispersion(2.0, 64, mass=-1.0), "mass"),
    (lambda: thermal_step(LINEAR64, 0.0), "mu"),
    (lambda: thermal_step(LINEAR64, 1.5 * LINEAR64.eps[-1]), "mu"),
    (lambda: thermal_step(LINEAR64, 10**400), "mu"),
    (lambda: verify_bound(LINEAR64, 0, seed=-1), "trials"),
    (lambda: verify_bound(LINEAR64, 2.0), "trials"),
    (lambda: verify_bound(LINEAR64, 1, seed=-1, mu=0.0), "seed"),
    (lambda: verify_bound(LINEAR64, 1, seed=0, mu=3.0), "mu"),
    (lambda: verify_bound(LINEAR64, 3, 0, mu=True), "mu"),
    (lambda: verify_bound(LINEAR64, 1, mu="1"), "mu"),
    (lambda: thermal_step(LINEAR64, np.bool_(True)), "mu"),
], ids=["linear-nk-0", "quadratic-nk-0", "nk-fractional", "nk-bool", "nk-above-cap",
        "nk-before-kmax", "kmax-inf", "kmax-band-overflows", "mass-negative", "mu-0",
        "mu-above-band", "mu-beyond-double", "trials-before-seed", "trials-float",
        "seed-before-mu", "mu-in-verify-bound", "mu-bool", "mu-string", "mu-numpy-bool"])
def test_each_rule_is_a_config_error_on_its_flag(call, field):
    # each pump bathtub flag's rule lives in the library value that holds it, so
    # a library call fails as the CLI does: with a ConfigError naming the flag
    # (mu a real number that is not a bool, as every real flag)
    with pytest.raises(ConfigError) as err:
        call()
    assert type(err.value) is ConfigError and err.value.field == field


@pytest.mark.parametrize("field", ["nodes", "eps", "weights"])
@pytest.mark.parametrize("shape", [(10,), (1, 64), ()])
def test_grid_arrays_have_shape_n_k(field, shape):
    arrays = {"nodes": np.ones(64), "eps": np.ones(64), "weights": np.ones(64)}
    arrays[field] = np.ones(shape)
    with pytest.raises(ValueError, match=r"must have shape \(64,\)"):
        DispersionGrid(kind="x", k_max=2.0, n_k=64, **arrays)


def test_grid_fields_are_stored_as_checked():
    grid = DispersionGrid(kind="linear", k_max=np.int64(2), n_k=np.int32(64),
                          nodes=np.ones(64), eps=np.ones(64), weights=np.ones(64))
    assert type(grid.k_max) is float and type(grid.n_k) is int
    assert linear_dispersion(np.float64(2.0), np.int64(64)).weights.sum() == 2.0


def test_filling_clips_a_copy():
    # rounding slack of 1e-12 is clipped in the filling, not in the caller's array
    grid = linear_dispersion(2.0, 64)
    occ = np.linspace(-5e-13, 1.0 + 5e-13, 64)
    filling = Filling.from_occupation(grid, occ)
    assert occ[0] == -5e-13 and occ[-1] == 1.0 + 5e-13
    assert filling.occupation[0] == 0.0 and filling.occupation[-1] == 1.0
    assert not filling.occupation.flags.writeable


# ---------------------------------------------------------------- greedy


def test_greedy_zero_target():
    filling = greedy_minimize(linear_dispersion(2.0, 128), 0.0)
    assert filling.qdot == 0.0 and filling.edot == 0.0
    assert np.all(filling.occupation == 0.0)


def test_greedy_full_band():
    grid = linear_dispersion(2.0, 128)
    filling = greedy_minimize(grid, grid.max_qdot)
    assert np.all(filling.occupation == 1.0)


def test_greedy_hits_target_flux():
    for make in (linear_dispersion, quadratic_dispersion):
        grid = make(2.0, 512)
        target = 0.83 / TWO_PI
        filling = greedy_minimize(grid, target)
        assert abs(filling.qdot - target) < 1e-12


def test_greedy_infeasible_targets():
    grid = linear_dispersion(2.0, 128)
    with pytest.raises(PumpError, match="outside feasible range"):
        greedy_minimize(grid, -0.1)
    with pytest.raises(PumpError, match="outside feasible range"):
        greedy_minimize(grid, grid.max_qdot * 1.01)


def test_greedy_converges_to_analytic_minimum():
    # canonical setup: linear dispersion, mu = 1, k_max = 2
    qdot, edot = analytic_minimum(1.0)
    errors = []
    for n_k in (512, 1024, 2048):
        filling = greedy_minimize(linear_dispersion(2.0, n_k), qdot)
        err = abs(filling.edot - edot)
        assert err < 5.0 / n_k
        errors.append(err)
    for a, b in zip(errors, errors[1:]):
        assert 0.4 <= b / a <= 0.6  # first-order: error halves per doubling


def test_greedy_dispersion_independent():
    # the minimizer lives in the energy measure, so the minimum matches
    # between dispersions up to the energy cell width
    qdot, edot = analytic_minimum(1.0)
    lin = greedy_minimize(linear_dispersion(2.0, 1024), qdot)
    quad = greedy_minimize(quadratic_dispersion(2.0, 1024), qdot)
    max_cell = max(
        float(np.max(np.diff(linear_dispersion(2.0, 1024).eps))),
        float(np.max(np.diff(quadratic_dispersion(2.0, 1024).eps))),
    )
    assert abs(lin.edot - quad.edot) < 2.0 * max_cell


def test_greedy_is_discrete_minimizer():
    # certificate: feasible perturbations at the same flux never do better
    grid = linear_dispersion(2.0, 256)
    target = 1.0 / TWO_PI
    greedy = greedy_minimize(grid, target)
    rng = np.random.default_rng(42)
    for _ in range(100):
        noisy = np.clip(greedy.occupation + rng.normal(scale=0.05, size=grid.n_k), 0.0, 1.0)
        candidate = project_to_qdot(grid, noisy, target)
        assert abs(candidate.qdot - target) < 1e-10
        assert candidate.edot >= greedy.edot - 1e-12


# ---------------------------------------------------------------- analytic


def test_analytic_minimum_values():
    np.testing.assert_allclose(analytic_minimum(1.0), (1 / TWO_PI, 1 / (4 * PI)), rtol=1e-15)
    assert analytic_minimum(0.0) == (0.0, 0.0)
    np.testing.assert_allclose(analytic_minimum(2.0), (1 / PI, 1 / PI), rtol=1e-15)


# ---------------------------------------------------------------- bound


def test_verify_bound_no_violations():
    check = verify_bound(linear_dispersion(2.0, 1024), trials=1000, seed=0, mu=1.0)
    assert check.trials == 1000
    assert check.violations == 0
    assert check.max_violation == 0.0
    # greedy sits within the discretization gap of the continuum bound
    assert 0.0 <= check.greedy_gap_max < 5.0 / 1024


@pytest.mark.parametrize("k_max", [1e-6, 1.0])
def test_verify_bound_margin_is_relative_to_the_grid(monkeypatch, k_max):
    # with every energy flux cut to a tenth, every random filling breaks the
    # bound by about 90% of its Edot; on a band of tiny energies that is far
    # below any fixed figure, so the margin must scale with the grid's fluxes
    clip = bathtub._clip_fluxes

    def understated(grid, n, scratch):
        qdot, edot = clip(grid, n, scratch)
        return qdot, 0.1 * edot

    monkeypatch.setattr(bathtub, "_clip_fluxes", understated)
    check = verify_bound(linear_dispersion(k_max, 4096), trials=50, seed=0)
    assert check.violations == 50 and check.max_violation > 0.0


def test_verify_bound_step_filling_gap():
    for n_k in (512, 1024):
        check = verify_bound(linear_dispersion(2.0, n_k), trials=1, seed=0, mu=1.0)
        assert 0.0 <= check.step_gap < 5.0 / n_k
    # halving the cell size halves the equality-case gap
    a = verify_bound(linear_dispersion(2.0, 512), 1, 0, mu=1.0).step_gap
    b = verify_bound(linear_dispersion(2.0, 1024), 1, 0, mu=1.0).step_gap
    assert 0.4 <= b / a <= 0.6


def test_verify_bound_deterministic():
    a = verify_bound(linear_dispersion(2.0, 256), 50, seed=9, mu=1.0)
    b = verify_bound(linear_dispersion(2.0, 256), 50, seed=9, mu=1.0)
    assert a == b


def reference_greedy_edot(grid):
    """The greedy filling's energy flux at one charge budget ``2pi*Qdot``,
    one scalar ``searchsorted`` per call."""
    order = np.lexsort((np.arange(grid.n_k), grid.eps))
    w_sorted = grid.weights[order]
    eps_sorted = grid.eps[order]
    cum_w = np.cumsum(w_sorted)
    cum_e = np.cumsum(eps_sorted * w_sorted)

    def greedy_edot(budget):
        if budget >= cum_w[-1]:
            return float(cum_e[-1]) / TWO_PI
        m = int(np.searchsorted(cum_w, budget, side="left"))
        filled_w = cum_w[m - 1] if m > 0 else 0.0
        filled_e = cum_e[m - 1] if m > 0 else 0.0
        if w_sorted[m] > 0.0:
            filled_e += (budget - filled_w) * eps_sorted[m]
        return float(filled_e) / TWO_PI

    return greedy_edot


def reference_verify_bound(grid, trials, seed, mu):
    """``verify_bound`` one trial at a time: one stream, one ``Filling`` and
    one scalar greedy evaluation per trial."""
    greedy_edot = reference_greedy_edot(grid)
    margin = 64.0 * np.finfo(float).eps * greedy_edot(np.inf)  # of the full filling's Edot
    violations, max_violation, greedy_gap_max = 0, 0.0, 0.0
    for trial in range(trials):
        filling = Filling.from_occupation(grid, uniform_stream(seed + trial, grid.n_k))
        bound = PI * filling.qdot**2
        gap = bound - filling.edot
        if gap > margin:
            violations += 1
            max_violation = max(max_violation, gap)
        greedy_gap_max = max(greedy_gap_max, greedy_edot(TWO_PI * filling.qdot) - bound)
    step = thermal_step(grid, mu)
    return BoundCheck(trials=trials, violations=violations, max_violation=max_violation,
                      greedy_gap_max=greedy_gap_max,
                      step_gap=float(step.edot - PI * step.qdot**2), mu=float(mu))


def understated_energies(k_max, n_k):
    """A linear grid whose energies are half of ``k`` while the weights
    keep ``eps' = 1``: the bound's hypothesis fails, so about half of the
    random fillings violate it and every reduction of the check is used."""
    grid = linear_dispersion(k_max, n_k)
    return DispersionGrid(kind="understated", k_max=grid.k_max, n_k=grid.n_k,
                          nodes=grid.nodes, eps=0.5 * grid.eps, weights=grid.weights)


GRIDS = {"linear": linear_dispersion, "quadratic": quadratic_dispersion,
         "understated": understated_energies}


@pytest.mark.parametrize("kind", list(GRIDS))
@pytest.mark.parametrize("n_k", [64, 100, 4096])
def test_verify_bound_equals_per_trial_reference(kind, n_k):
    grid = GRIDS[kind](2.3, n_k)
    rows = max(1, _BLOCK // n_k)
    for trials in sorted({1, max(1, rows - 1), rows, rows + 1, 3 * rows + 7}):
        check = verify_bound(grid, trials, seed=31 * trials, mu=0.7)
        assert check == reference_verify_bound(grid, trials, 31 * trials, 0.7)
    if kind == "understated":
        assert 0 < check.violations < check.trials and check.max_violation > 0.0


@pytest.mark.parametrize("kind", list(GRIDS))
@pytest.mark.parametrize("n_k", [64, 100, 4096, 5000])
def test_block_fluxes_equal_scalar_reference(monkeypatch, kind, n_k):
    # every block's fluxes (one row, a full block, a short last block) and each
    # Filling's are the per-row dot products of the scalar loop, bit for bit
    grid = GRIDS[kind](2.3, n_k)
    rows = max(1, _BLOCK // n_k)
    clip = bathtub._clip_fluxes
    blocks = []

    def recorded(grid, n, scratch):
        occupations = n.copy()
        qdot, edot = clip(grid, n, scratch)
        blocks.append((occupations, qdot, edot))
        return qdot, edot

    monkeypatch.setattr(bathtub, "_clip_fluxes", recorded)
    for trials in (1, rows, 2 * rows + 3):
        blocks.clear()
        verify_bound(grid, trials, seed=5 * trials)
        step, *draws = blocks  # the thermal step's Filling comes first
        assert [len(occ) for occ, _, _ in draws] == [min(rows, trials - start)
                                                     for start in range(0, trials, rows)]
        drawn = [uniform_stream(5 * trials + t, n_k) for t in range(trials)]
        assert np.concatenate([occ for occ, _, _ in draws]).tolist() == np.array(drawn).tolist()
        for occ, qdot, edot in [step, *draws]:
            expected = reference_fluxes(grid, occ)
            assert qdot.tolist() == expected[0].tolist() and edot.tolist() == expected[1].tolist()
        for row, q, e in zip(drawn[:3], *reference_fluxes(grid, drawn[:3])):
            filling = Filling.from_occupation(grid, row)
            assert (filling.qdot, filling.edot) == (q, e)


def test_greedy_edot_matches_scalar_formula():
    # budgets at and between the cumulative weights, at zero and beyond the
    # band, on grids with and without zero-weight modes; at the band top of
    # linear_dispersion(0.7, 100) the marginal formula is an ulp off the
    # full band's Edot, so the band top must take the full band's
    grid = quadratic_dispersion(2.0, 100)
    flat = DispersionGrid(kind="flat", k_max=2.0, n_k=100, nodes=grid.nodes,
                          eps=np.repeat(grid.eps[::4], 4),
                          weights=np.where(np.arange(100) % 3 == 0, 0.0, grid.weights))
    for g in (grid, flat, linear_dispersion(2.0, 64), linear_dispersion(0.7, 100)):
        modes = _sorted_modes(g)
        cum = modes[3]
        budgets = np.array([0.0, 0.5 * cum[0], cum[0], cum[5], 0.5 * (cum[5] + cum[6]),
                            np.nextafter(cum[-1], 0.0), cum[-1], 1.5 * cum[-1]])
        expected = [reference_greedy_edot(g)(b) for b in budgets]
        assert _greedy_edot(modes, budgets).tolist() == expected


def test_verify_bound_seeds_up_to_two_to_the_64():
    for kind in ("linear", "understated"):
        grid = GRIDS[kind](2.0, 100)
        trials = _BLOCK // 100 + 3
        for seed in (2**64 - trials, 2**63 - 2):
            assert verify_bound(grid, trials, seed) == reference_verify_bound(
                grid, trials, seed, 0.5 * float(grid.eps[-1]))
    grid = linear_dispersion(2.0, 64)
    assert verify_bound(grid, 1, 2**64 - 1) == reference_verify_bound(grid, 1, 2**64 - 1, 1.0)
    for trials, seed in ((2, 2**64 - 1), (1, 2**64), (1, -1)):
        with pytest.raises(ValueError):
            verify_bound(grid, trials, seed)


def test_verify_bound_memory_is_per_block():
    # 2000 trials of 4096 modes are 62.5 MiB of occupations; only one
    # block of them (and its scratch) may be alive at a time
    grid = linear_dispersion(2.0, 4096)
    tracemalloc.start()
    try:
        verify_bound(grid, trials=2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_full_band_is_strictly_above_bound():
    # n == 1 fills every mode; at right-edge nodes the discrete energy flux
    # exceeds pi*Qdot^2 by k_max*dk/4pi
    grid = linear_dispersion(2.0, 1024)
    full = Filling.from_occupation(grid, np.ones(grid.n_k))
    gap = full.edot - PI * full.qdot**2
    assert gap > 0.0
    assert abs(gap - 2.0 * grid.dk / (4 * PI)) < 1e-12


def test_random_fillings_respect_bound_explicitly():
    grid = quadratic_dispersion(3.0, 256)
    for trial in range(200):
        filling = Filling.from_occupation(grid, uniform_stream(1000 + trial, grid.n_k))
        assert filling.edot >= PI * filling.qdot**2 - 1e-12


# ---------------------------------------------------------------- two-sided


def test_two_sided_equilibrium():
    grid = linear_dispersion(2.0, 1024)
    source = thermal_step(grid, 1.0)
    lhs, rhs = two_sided_bound(1.0, source, grid)
    assert abs(lhs) < 5.0 / grid.n_k
    assert abs(rhs) < 1e-5


def test_two_sided_biased_fermi_seas_saturate():
    grid = linear_dispersion(2.5, 2048)
    source = thermal_step(grid, 2.0)
    lhs, rhs = two_sided_bound(1.0, source, grid)
    assert lhs >= rhs - 5.0 / grid.n_k
    assert abs(lhs - rhs) < 5.0 / grid.n_k


def test_two_sided_random_source_dissipates():
    grid = linear_dispersion(2.0, 512)
    source = Filling.from_occupation(grid, uniform_stream(5, grid.n_k))
    lhs, rhs = two_sided_bound(1.0, source, grid)
    assert lhs > rhs


def test_two_sided_validation():
    grid = linear_dispersion(2.0, 128)
    other = linear_dispersion(2.0, 256)
    source = thermal_step(grid, 1.0)
    with pytest.raises(ValueError):
        two_sided_bound(-1.0, source, grid)
    with pytest.raises(ValueError):
        two_sided_bound(1.0, source, other)
