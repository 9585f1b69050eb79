"""Laws of the energy shift, against the numbers the pipeline computes.

Closed-form oracles: ``diagonal-times-constant`` has
``E = -diag(phi_j'(t))``, so ``Q_j = -w_j`` and a dissipation per cycle of
``(pi/T) (w_j^2 + sum_m m^2 (a_jm^2 + b_jm^2) / 2)``.  ``flux-loop`` has
``E = (2 pi w/T) diag(-1, 1)`` and ``-i dS/dE S^dag = (k_ell/mu) I``, so
``Q = (-w, w)`` and ``pi w^2/T`` per channel and cycle.
``perturbed-flux-loop``, with ``theta = delta sin(2 pi t/T)``, has
``E = -(2 pi w/T)(cos 2theta sigma_z + sin 2theta sigma_x) + theta' sigma_y``:
``Q = (-w J0(2 delta), w J0(2 delta))`` by the Jacobi-Anger expansion
(DLMF 10.12), ``pi w^2/T + pi delta^2/(2T)`` per channel and cycle, of
which ``((2 pi w/T)^2 T (1 - J0(4 delta))/2 + 2 pi^2 delta^2/T) / 4pi`` is
excess.  The charges and dissipations are held at 1e-12 relative to the
scale of their quantity, the time delay at its stencil's rounding floor.

The declared time delay ``c I`` of both flux families, which ``analyze``
reads as tau, matches the fourth-order energy stencil of the same model
(``tests/reference.py``), which reads S alone.

Covariance: a left rotation ``S -> W S`` maps ``E -> W E W^dag``; time
reversal ``S(t) -> S(T - t)`` maps ``E(t) -> -E(T - t)``; a monotone
reparameterization ``S(t) -> S(f(t))`` maps ``E(t) -> f'(t) E(f(t))``;
a period scaling ``S(t) -> S(t/T)`` maps ``E(t) -> E(t/T)/T``.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import j0

from qpump.errors import NumericalFailure
from qpump.matcore import CycleGrid, unitarize
from qpump.models import ModelConfig, build
from qpump.report import analyze
from qpump.shift import cycle_scale, energy_shift_at, energy_shift_cycle
from qpump.transport import cycle_integral, instant_report
from reference import (
    ENERGY_STEP_FRACTION,
    left_rotated,
    reparameterized,
    right_wobbled,
    stencil_delay,
    time_reversed,
    time_warp,
)
from test_models import ALL_BUILTINS
from test_shift import analysed

RTOL = 1e-12
EPS = np.finfo(float).eps

_samples = st.sampled_from([64, 256])
_period = st.floats(-3.0, 3.0).map(lambda log_period: 10.0**log_period)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0**x)


def _amplitude(hi):
    """0, or of either sign with a size log-uniform in [1e-12, hi].  A pump
    that barely moves (phases of 1e-12 rad about a generic S0) is lost in the
    FFT's rounding, which is relative to ||S||, not ||E||; the Hermiticity
    check and the verdict measure it against the noise floor nu, so it passes
    the Hermiticity limit and is judged like any other pump."""
    size = _log_uniform(1e-12, hi)
    return st.one_of(st.just(0.0), size, size.map(lambda x: -x))


_coef = _amplitude(0.25)
# Every channel may wind 0 times or move its phase back and forth, so E may
# vanish at grid nodes: the Hermiticity defect there is rounding against the
# cycle's largest ||E||_F.
_dtc = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n), "s0_seed": st.integers(0, 2**31),
    **{f"w{j}": st.integers(-3, 3) for j in range(1, n + 1)},
    **{f"{ab}{j}_{m}": _coef for ab in "ab" for j in range(1, n + 1) for m in (1, 2)}}))


def cycle_totals(model, mu, grid):
    """Charge and dissipation per cycle of each channel, as ``analyze`` takes them."""
    shifts, _ = energy_shift_cycle(model.sample(grid.times, mu), grid)
    instants = instant_report(shifts, grid.times)
    return (cycle_integral(instants.qdot, grid),
            cycle_integral(instants.total_dissipation, grid))


@given(params=_dtc, period=_period, samples=_samples)
@settings(max_examples=40, deadline=None)
def test_diagonal_times_constant_charge_and_dissipation(params, period, samples):
    model = build("diagonal-times-constant", params, period=period)
    charge, dissipation = cycle_totals(model, 1.0, model.grid(samples))
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
    charge, dissipation = cycle_totals(model, mu, model.grid(samples))
    assert np.max(np.abs(charge - [-w, w])) <= RTOL * max(1, abs(w)), charge
    expected = np.pi * w**2 / period
    scale = np.pi * max(1, w**2) / period
    assert np.max(np.abs(dissipation - expected)) <= RTOL * scale, dissipation

    # The model declares its delay; the fourth-order stencil finds it from S.
    step, floor = stencil_floor(model, k_ell, w, mu)
    delay = stencil_delay(model, [t * period], mu, step)[0]
    gap = np.max(np.abs(delay - (k_ell / mu) * np.eye(2)))
    assert gap <= RTOL * k_ell / mu + floor, (gap, floor)


def stencil_floor(model, k_ell, w, mu):
    """The time-delay stencil's step on ``model``'s window, and its rounding
    floor, far above 1e-12 relative: each stencil entry exp(i phase) is
    rounded by about eps (1 + |phase|), with |phase| up to
    k_ell hi/mu + 2 pi |w|, and the stencil divides by dE = 1e-4."""
    lo, hi = model.energy_window
    step = ENERGY_STEP_FRACTION * (hi - lo)
    return step, 3.0 * EPS * (1.0 + k_ell * hi / mu + 2.0 * np.pi * abs(w)) / step


@given(family=st.sampled_from(["flux-loop", "perturbed-flux-loop"]), k_ell=st.floats(0.0, 5.0),
       w=st.integers(-3, 3), delta=st.floats(-0.5, 0.5), period=_period,
       mu=st.floats(0.8, 1.2), t=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_declared_delay_matches_the_stencil(family, k_ell, w, delta, period, mu, t):
    # The declared c I against the stencil of the same model, at one time
    # and as the cycle maximum tau of its spectral norm.
    params = {"k_ell": k_ell, "w": w, **({"delta": delta} if family != "flux-loop" else {})}
    model = build(family, params, period=period, mu=mu)
    step, floor = stencil_floor(model, k_ell, w, mu)
    declared = model.delay * np.eye(2)
    gap = np.max(np.abs(stencil_delay(model, [t * period], mu, step)[0] - declared))
    assert gap <= RTOL * k_ell / mu + floor, (gap, floor)
    stencil = stencil_delay(model, model.grid(16).times, mu, step)
    gap = abs(np.max(np.linalg.norm(stencil, ord=2, axis=(1, 2))) - abs(model.delay))
    assert gap <= RTOL * k_ell / mu + 2.0 * floor, (gap, floor)


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


def one_minus_j0(x):
    """``1 - J0(x)`` from its power series, which has none of the
    cancellation of ``1 - j0(x)`` at small x (here |x| <= 2)."""
    return math.fsum((-1) ** (m + 1) * (x / 2) ** (2 * m) / math.factorial(m) ** 2
                     for m in range(1, 20))


def perturbed_cycle(k_ell, w, delta, period, samples, beta=None):
    """Cycle integrals of a ``perturbed-flux-loop`` instant report, and the
    scale of its dissipation per cycle."""
    model = build("perturbed-flux-loop", {"k_ell": k_ell, "w": w, "delta": delta},
                  period=period)
    grid = model.grid(samples)
    shifts, _ = energy_shift_cycle(model.sample(grid.times, 1.0), grid)
    report = instant_report(shifts, grid.times, beta=beta)
    totals = {name: cycle_integral(getattr(report, name), grid)
              for name in ("qdot", "total_dissipation", "excess", "sdot", "ndot")
              if getattr(report, name) is not None}
    return totals, np.pi * max(1, w**2) / period


# with w = 0, E = theta' sigma_y vanishes at t = T/4 and 3T/4
_perturbed = dict(k_ell=st.floats(0.0, 5.0), w=st.integers(-3, 3),
                  delta=_amplitude(0.5).map(abs), period=_period, samples=_samples)


@given(**_perturbed)
@settings(max_examples=40, deadline=None)
def test_perturbed_flux_loop_charge(k_ell, w, delta, period, samples):
    totals, _ = perturbed_cycle(k_ell, w, delta, period, samples)
    expected = w * j0(2.0 * delta) * np.array([-1.0, 1.0])
    assert np.max(np.abs(totals["qdot"] - expected)) <= RTOL * max(1, abs(w)), totals["qdot"]


@given(**_perturbed)
@settings(max_examples=40, deadline=None)
def test_perturbed_flux_loop_dissipation(k_ell, w, delta, period, samples):
    totals, scale = perturbed_cycle(k_ell, w, delta, period, samples)
    expected = np.pi * w**2 / period + np.pi * delta**2 / (2.0 * period)
    gap = np.max(np.abs(totals["total_dissipation"] - expected))
    assert gap <= RTOL * scale, (totals["total_dissipation"], expected)


@given(**_perturbed, beta=st.floats(1.0, 100.0))
@settings(max_examples=40, deadline=None)
def test_perturbed_flux_loop_excess_entropy_and_noise(k_ell, w, delta, period, samples, beta):
    # the excess is a part of the dissipation, so it is held at the same scale;
    # Sdot = beta Xs and Ndot = beta Xs / 3 at every time, so also per cycle
    totals, scale = perturbed_cycle(k_ell, w, delta, period, samples, beta)
    rate = 2.0 * np.pi * w / period
    excess = (rate**2 * period * one_minus_j0(4.0 * delta) / 2.0
              + 2.0 * np.pi**2 * delta**2 / period) / (4.0 * np.pi)
    assert np.max(np.abs(totals["excess"] - excess)) <= RTOL * scale, (totals["excess"], excess)
    assert np.max(np.abs(totals["sdot"] - beta * excess)) <= RTOL * beta * scale
    assert np.max(np.abs(totals["ndot"] - beta * excess / 3.0)) <= RTOL * beta * scale


_reversible = st.one_of(
    _dtc.map(lambda params: ("diagonal-times-constant", params)),
    st.builds(lambda k_ell, w, delta: ("perturbed-flux-loop",
                                       {"k_ell": k_ell, "w": w, "delta": delta}),
              _perturbed["k_ell"], _perturbed["w"], _perturbed["delta"]),
    st.builds(lambda seed, n: ("random-smooth-path", {"seed": seed, "n": n}),
              st.integers(0, 2**31), st.integers(2, 3)))


@given(pump=_reversible, period=_period, samples=_samples)
@example(pump=("diagonal-times-constant", {"n": 1, "s0_seed": 8, "w1": 0, "a1_1": 0.0,
                                           "a1_2": 0.0, "b1_1": 0.0,
                                           "b1_2": 0.003924189758484536}),
         period=10.0**0.5, samples=256)  # gap 1.65e-14 > 1e-12 max|E| = 1.56e-14
@settings(max_examples=20, deadline=None)
def test_time_reversal_law(pump, period, samples):
    # S(t) -> S(T - t) gives E(t) -> -E(T - t), and grid node i is node -i
    # mod N of the reversed cycle: Qdot changes sign at the mirrored node, D
    # is mirrored, and the cycle charge and an optimal pump's winding change sign.
    # The scale is max|E|, but no less than the FFT rounding floor nu / RTOL of
    # the one tolerance policy (cycle_scale of a zero stack): a small shift
    # carries that floor's rounding, not RTOL of its own size.
    name, params = pump
    model = build(name, params, period=period)
    grid = model.grid(samples)
    e, rep, verdict, winding = analysed(model, grid)
    e2, rep2, verdict2, winding2 = analysed(time_reversed(model), grid)
    mirror = -np.arange(samples) % samples
    scale = max(np.max(np.abs(e)), cycle_scale(np.zeros_like(e[:1]), grid, RTOL))
    assert np.max(np.abs(e2 + e[mirror])) <= RTOL * scale, name
    assert np.max(np.abs(rep2.qdot + rep.qdot[mirror])) <= RTOL * scale / (2 * np.pi), name
    gap = np.abs(rep2.total_dissipation - rep.total_dissipation[mirror])
    assert np.max(gap) <= RTOL * scale**2 / (4 * np.pi), name
    charge, charge2 = (cycle_integral(r.qdot, grid) for r in (rep, rep2))
    assert np.max(np.abs(charge2 + charge)) <= RTOL * max(1.0, scale * period / (2 * np.pi))
    assert verdict2.is_optimal == verdict.is_optimal
    if verdict.is_optimal:
        assert np.array_equal(winding2, -winding), (winding, winding2)


_scalable = st.one_of(
    st.builds(lambda k_ell, w: ("flux-loop", {"k_ell": k_ell, "w": w}),
              st.floats(0.0, 5.0), st.integers(-3, 3)),
    _reversible)


@given(pump=_scalable, log_period=st.floats(-3.0, 3.0), samples=_samples)
@example(pump=("diagonal-times-constant", {"n": 1, "s0_seed": 1, "w1": 0, "a1_1": 0.0,
                                           "a1_2": 0.0, "b1_1": 0.0, "b1_2": 0.001}),
         log_period=1.0, samples=256)  # gap 2.77e-14 > 1e-12 max|E| = 1.26e-14
@settings(max_examples=80, deadline=None)  # at 20, a planted 1e-12 floor passed 4 runs of 15
def test_period_scaling_law(pump, log_period, samples):
    # S_T(t) = S_1(t/T), the same pump run T times slower, gives
    # E_T(t) = E_1(t/T)/T, and grid node i of one is node i of the other: the
    # charge, the verdict and an optimal pump's winding are kept, and D scales
    # as 1/T^2, so the dissipation per cycle times T is.  A check whose floor
    # is absolute rather than relative to the cycle's scale fails here.  The
    # shift's scale is max|E|, but no less than the FFT rounding floor nu / RTOL
    # of the unit-period cycle, as in the time-reversal law; the charge and
    # dissipation keep max|E|.
    name, params = pump
    period = 10.0**log_period
    model, model2 = build(name, params), build(name, params, period=period)
    grid, grid2 = model.grid(samples), model2.grid(samples)
    e, rep, verdict, winding = analysed(model, grid)
    e2, rep2, verdict2, winding2 = analysed(model2, grid2)
    scale = np.max(np.abs(e))
    shift_scale = max(scale, cycle_scale(np.zeros_like(e[:1]), grid, RTOL))
    assert np.max(np.abs(e2 * period - e)) <= RTOL * shift_scale, name
    charge, charge2 = cycle_integral(rep.qdot, grid), cycle_integral(rep2.qdot, grid2)
    assert np.max(np.abs(charge2 - charge)) <= RTOL * max(1.0, scale / (2 * np.pi)), name
    dissipation = cycle_integral(rep.total_dissipation, grid)
    dissipation2 = cycle_integral(rep2.total_dissipation, grid2)
    assert np.max(np.abs(dissipation2 * period - dissipation)) <= RTOL * scale**2 / (4 * np.pi)
    assert verdict2.is_optimal == verdict.is_optimal
    if verdict.is_optimal:
        assert np.array_equal(winding2, winding), (winding, winding2)


@given(pump=st.sampled_from(ALL_BUILTINS), amplitude=st.floats(-0.5, 0.5), period=_period,
       samples=st.sampled_from([128, 256]))
@settings(max_examples=8, deadline=None)
def test_reparameterization_law(pump, amplitude, period, samples):
    # Along a monotone warp f of the cycle (f(t + T) = f(t) + T), S(t) -> S(f(t))
    # gives E(t) -> f'(t) E(f(t)): Qdot dt is kept, so the charge per cycle is,
    # and E(t) is diagonal exactly where E(f(t)) is, so the verdict is.  The
    # warped cycle is not a trigonometric polynomial; on 128 nodes or more its
    # spectral derivative is within rounding of the law (gaps measured up to
    # 2.8e-13 of max |E|, growing with N), where 64 nodes leave 2e-8.
    name, params = pump
    model = build(name, params, period=period)
    grid = model.grid(samples)
    f, fprime = time_warp(period, amplitude)
    e, rep, verdict, winding = analysed(model, grid)
    e2, rep2, verdict2, winding2 = analysed(reparameterized(model, amplitude), grid)
    expected = [fprime(t) * energy_shift_at(model, f(t), 1.0, samples) for t in grid.times]
    scale = np.max(np.abs(e))
    assert np.max(np.abs(e2 - expected)) <= RTOL * scale, name
    charge, charge2 = (cycle_integral(r.qdot, grid) for r in (rep, rep2))
    assert np.max(np.abs(charge2 - charge)) <= RTOL * max(1.0, scale * period / (2 * np.pi))
    assert verdict2.is_optimal == verdict.is_optimal
    if verdict.is_optimal:
        assert np.array_equal(winding2, winding), (winding, winding2)


# ---------------------------------------------------------------- characterization


def analysis(name, params, period=1.0, samples=256, tolerances=None, beta=None,
             transform=None):
    """``analyze`` of a pump at mu = 1 (with ``transform`` applied to its
    ``PumpModel``), or None where it exits 2 (NumericalFailure)."""
    doc = {"model": name, "params": params, "cycle": {"period": period, "samples": samples},
           "energy": {"mu": 1.0, "window": [0.5, 1.5]}, "tolerances": tolerances or {}}
    if beta is not None:
        doc["beta"] = beta
    config = ModelConfig.from_dict(doc)
    if transform is not None:
        config = replace(config, pump=transform(config.pump))
    try:
        return analyze(config)
    except NumericalFailure:
        return None


# Each phase a cosine series: every phase velocity vanishes at t = 0 and T/2.
_stationary_dtc = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n), "s0_seed": st.integers(0, 2**31),
    **{f"a{j}_{m}": _coef for j in range(1, n + 1) for m in (1, 2)}}))
_optimal = st.one_of(
    st.one_of(_dtc, _stationary_dtc).map(lambda params: ("diagonal-times-constant", params)),
    st.builds(lambda family, k_ell, w: (family, {"k_ell": k_ell, "w": w} if family == "flux-loop"
                                        else {"k_ell": k_ell, "w": w, "delta": 0.0}),
              st.sampled_from(["flux-loop", "perturbed-flux-loop"]), st.floats(0.0, 5.0),
              st.integers(-3, 3)))


@given(pump=_optimal, period=_period, samples=st.sampled_from([64, 128, 256]))
@example(pump=("diagonal-times-constant", {"n": 2, "s0_seed": 1, "a1_1": 0.3, "a2_1": 0.5}),
         period=1.0, samples=64)
@example(pump=("diagonal-times-constant", {"n": 2, "s0_seed": 1, "a1_1": 1e-12, "b2_1": 2e-12}),
         period=1.0, samples=256)
@settings(max_examples=40, deadline=None)
def test_optimal_pumps_meet_every_criterion(pump, period, samples):
    # The paper's characterization, on pumps S = U_d(t) S0 by construction: the
    # verdict is optimal, every channel saturates the bound, the decomposition
    # rebuilds S, each row winds by the rounded charge, and no entropy or noise
    # is produced beyond the FFT's noise floor nu.
    name, params = pump
    beta = 7.0
    result = analysis(name, params, period, samples, beta=beta)
    assert result is not None
    verdict, cycle = result.verdict, result.document["cycle"]
    assert verdict.is_optimal, verdict.max_offdiag_ratio
    assert all(verdict.per_channel_saturation)

    model = build(name, params, period=period)
    grid = model.grid(samples)
    phases, constant = verdict.decomposition
    rebuilt = np.exp(1j * phases)[:, :, None] * constant
    assert np.max(np.abs(rebuilt - model.sample(grid.times, 1.0))) <= 1e-12 * (
        1.0 + np.max(np.abs(phases)))

    if name == "diagonal-times-constant":
        expected = [-params.get(f"w{j}", 0) for j in range(1, params["n"] + 1)]
    else:
        expected = [-params["w"], params["w"]]
    assert cycle["winding"] == expected
    assert np.rint(cycle["charge"]).tolist() == expected

    # nu = 2**10 eps (pi N / T) sqrt(n), the FFT's rounding floor of ||E||_F
    nu = 2.0**10 * EPS * (np.pi * samples / period) * np.sqrt(model.n_channels)
    floor = nu**2 / (4.0 * np.pi)
    assert np.max(result.instants.sdot) <= beta * floor
    assert np.max(result.instants.ndot) <= beta * floor / 3.0


@given(k_ell=st.floats(0.0, 5.0), w=st.integers(-3, 3), period=_period, samples=_samples,
       delta=st.one_of(_log_uniform(1e-2, 0.5), _log_uniform(1e-2, 0.5).map(lambda x: -x)))
@settings(max_examples=20, deadline=None)
def test_perturbed_pumps_are_neither_optimal_nor_saturated(k_ell, w, delta, period, samples):
    result = analysis("perturbed-flux-loop", {"k_ell": k_ell, "w": w, "delta": delta},
                      period, samples)
    assert result is not None
    assert not result.verdict.is_optimal, result.verdict.max_offdiag_ratio
    assert not any(result.verdict.per_channel_saturation)


@given(tol_opt=_log_uniform(1e-10, 1e-2), delta=_log_uniform(1e-7, 3e-2),
       w=st.sampled_from([1, 3, 20]), right=st.booleans())
@example(tol_opt=1e-3, delta=1e-4, w=1, right=False)
@example(tol_opt=1e-3, delta=3e-4, w=1, right=False)
@example(tol_opt=1e-4, delta=1e-4, w=20, right=True)
@settings(max_examples=40, deadline=None)
def test_optimality_criteria_agree_at_every_tol_opt(tol_opt, delta, w, right):
    # The perturbed loop (its rotation on the left) has a worst ratio of about
    # 2 delta, and its charge misses the winding by w (1 - J0(2 delta)), second
    # order in the ratio.  With the rotation on the right the ratio is about
    # delta / w and the charge stays quantized, while S(t) S(t_0)^dag has
    # entries of size delta.  Whatever tol_opt is, the analysis exits 0, and
    # optimal <=> a decomposition <=> a winding: the decomposition's limit and
    # the charge-winding gate follow from the verdict rather than from
    # constants of their own.
    if right:
        result = analysis("flux-loop", {"k_ell": 1.0, "w": w}, tolerances={"tol_opt": tol_opt},
                          transform=lambda pump: right_wobbled(pump, delta))
    else:
        result = analysis("perturbed-flux-loop", {"k_ell": 1.0, "w": w, "delta": delta},
                          tolerances={"tol_opt": tol_opt})
    assert result is not None
    verdict, cycle = result.verdict, result.document["cycle"]
    assert (verdict.decomposition is not None) == verdict.is_optimal
    assert (cycle["winding"] is not None) == verdict.is_optimal
    if verdict.is_optimal:
        gap = np.abs(np.array(cycle["charge"]) - cycle["winding"])
        expected = 0.0 if right else w * one_minus_j0(2.0 * delta)
        assert np.max(np.abs(gap - expected)) <= RTOL * w, gap
