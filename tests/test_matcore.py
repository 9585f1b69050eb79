"""Matrix certification, spectral differentiation and periodic quadrature."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpump.errors import NumericalFailure, PumpError
from qpump.matcore import (
    CHANNEL_MAJOR_MAX_N,
    DEFAULT_TOLERANCES,
    CycleGrid,
    hermitian_part,
    spectral_derivative,
    unitarity_defect,
    unitarize,
)
from qpump.models import build
from qpump.transport import cycle_integral
from reference import central_derivative, unitarity_defect_norm


# ---------------------------------------------------------------- certification


def test_complex_matrix_validation():
    # the square/finite/read-only gate of unitarize
    for bad in (np.zeros((2, 3)), np.array([[np.nan, 0], [0, 1]]), np.zeros((0, 0))):
        with pytest.raises(ValueError):
            unitarize(bad)
    u = unitarize([[1, 0], [0, 1]])
    assert u.shape == (2, 2)
    with pytest.raises(ValueError):
        u[0, 0] = 5.0  # stored read-only


def test_unitary_certification():
    assert unitarity_defect(np.eye(3)) == 0.0
    # a non-unitary matrix is rejected where stacks are certified, PumpModel.sample
    model = dataclasses.replace(
        build("flux-loop", {"k_ell": 1.0}),
        matrix_fn=lambda times, energy: np.broadcast_to(np.diag([1.0, 0.999]), (len(times), 2, 2)),
    )
    with pytest.raises(NumericalFailure, match="unitarity defect"):
        model.sample([0.0, 0.5], 1.0)
    with pytest.raises(NumericalFailure, match="unitarity defect"):
        model.eval(0.0, 1.0)
    # the global default gate
    assert DEFAULT_TOLERANCES.tol_unitary == 1e-10
    # a tolerance below rounding gates at ROUNDING_FLOOR sqrt(n): every built-in
    # passes at any accepted tolerance, and no non-unitary matrix does
    flux = build("flux-loop", {"k_ell": 1.0, "w": 2})
    doubled = dataclasses.replace(flux, matrix_fn=lambda t, e: 2.0 * flux.matrix_fn(t, e))
    times = np.linspace(0.0, 1.0, 16, endpoint=False)
    for tol in (5e-324, 1e-300, 1e-16, 1e-10, 1e-3, 1.0):
        for name, params in [("flux-loop", {"k_ell": 1.0, "w": 2}),
                             ("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.3}),
                             ("diagonal-times-constant", {"n": 8, "s0_seed": 5, "a3_2": 0.4}),
                             ("random-smooth-path", {"n": 64, "seed": 3, "amplitude": 1e3})]:
            build(name, params, unitary_tol=tol).sample(times, 1.0)
        for bad in (model, doubled) if tol < 1e-3 else (doubled,):  # defects 2e-3, 3 sqrt(2)
            with pytest.raises(NumericalFailure, match="unitarity defect"):
                dataclasses.replace(bad, unitary_tol=tol).sample(times, 1.0)


def skewed(n: int, cos: float) -> np.ndarray:
    """The n x n identity with its second column turned toward the first:
    unit columns whose Gram is I but for ``cos`` at (0, 1) and (1, 0)."""
    s = np.eye(n, dtype=complex)
    s[:, 1] = 0.0
    s[0, 1], s[1, 1] = cos, np.sqrt(1.0 - cos * cos)
    return s


@pytest.mark.parametrize("n", range(2, CHANNEL_MAJOR_MAX_N + 3))
def test_certificate_sees_columns_that_are_not_orthogonal(n):
    # every column has unit norm, so only the Gram's off-diagonal entries carry
    # the defect sqrt(2) cos; n runs across both kernels
    for cos in (1e-6, 0.5):
        stack = np.stack([np.eye(n), skewed(n, cos), np.eye(n)])
        np.testing.assert_allclose(unitarity_defect(stack), [0.0, np.sqrt(2.0) * cos, 0.0],
                                   rtol=1e-9, atol=1e-15)
        assert unitarity_defect(stack[1]) == pytest.approx(np.sqrt(2.0) * cos, rel=1e-9)
        model = dataclasses.replace(
            build("random-smooth-path", {"n": n, "seed": 1}),
            matrix_fn=lambda theta, energy: np.broadcast_to(stack[1], (len(theta), n, n)))
        with pytest.raises(NumericalFailure, match="unitarity defect"):
            model.sample([0.0, 0.5], 1.0)


def _stack(seed: int, n: int, nodes: int, kind: str) -> np.ndarray:
    """A seeded (nodes, n, n) stack: unitary, unitary off by a relative 10**-k,
    or Gaussian."""
    rng = np.random.default_rng(seed)
    gauss = rng.normal(size=(nodes, n, n)) + 1j * rng.normal(size=(nodes, n, n))
    if kind == "gaussian":
        return gauss
    unitary = np.linalg.qr(gauss)[0]
    if kind == "unitary":
        return unitary
    scale = 10.0 ** -rng.integers(1, 16, size=(nodes, 1, 1))
    return unitary + scale * (rng.normal(size=(nodes, n, n)) + 1j * rng.normal(size=(nodes, n, n)))


@given(st.integers(1, 8), st.sampled_from([1, 8, 64, 1024]), st.integers(0, 2**32 - 1),
       st.sampled_from(["unitary", "near-unitary", "gaussian"]),
       st.sampled_from([None, np.nan, np.inf, -np.inf, complex(np.inf, np.inf)]))
@settings(max_examples=60, deadline=None)
def test_unitarity_defect_matches_the_matrix_norm(n, nodes, seed, kind, bad):
    # each Gram entry is a sum of n products, rounded by about n eps |S|^2 in
    # either route, so the two agree within a few eps of ||S||_F^2
    stack = _stack(seed, n, nodes, kind)
    if bad is not None:
        rng = np.random.default_rng(seed)
        stack[rng.integers(nodes), rng.integers(n), rng.integers(n)] = bad
    got, want = unitarity_defect(stack), unitarity_defect_norm(stack)
    assert got.shape == (nodes,)
    finite = np.isfinite(stack).all(axis=(1, 2))
    assert np.array_equal(np.isfinite(got), finite)
    size = np.linalg.norm(np.where(finite[:, None, None], stack, 0.0), axis=(1, 2)) ** 2
    slack = (2 * (n + 4) * size + 4 * want) * np.finfo(float).eps
    assert np.all(np.abs(got - want)[finite] <= slack[finite])
    # a single matrix is certified as the one-node stack holding it
    single = unitarity_defect(stack[0])
    assert single.shape == ()
    assert np.isfinite(single) == finite[0]
    if finite[0]:
        assert abs(single - want[0]) <= slack[0]


def test_hermitian_storage_is_exactly_self_adjoint():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h, defect = hermitian_part(raw)
    assert np.array_equal(h, h.conj().T)
    assert np.all(np.diag(h).imag == 0.0)
    # the discarded part's size, ||M - M^dag||_F: raw input was far from Hermitian
    assert defect == pytest.approx(np.linalg.norm(raw - raw.conj().T), rel=1e-15)
    assert defect > 0.1 * np.linalg.norm(raw)
    exact = raw + raw.conj().T
    assert hermitian_part(exact)[1] == 0.0
    # one size per matrix of a stack; the shift module sets the scale
    stack = np.stack([raw, 2.0 * raw, np.zeros_like(raw)])
    np.testing.assert_allclose(hermitian_part(stack)[1], [defect, 2.0 * defect, 0.0], rtol=1e-15)


# ---------------------------------------------------------------- unitarize


def test_unitarize_identity():
    u = unitarize(np.eye(2))
    np.testing.assert_allclose(u, np.eye(2), atol=1e-15)


def test_unitarize_diagonal_phase():
    # polar factor of a diagonal matrix is its phase
    u = unitarize(np.diag([2.0, 2.0j]))
    np.testing.assert_allclose(u, np.diag([1.0, 1.0j]), atol=1e-15)


def test_unitarize_random_well_conditioned():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    assert np.linalg.cond(m) < 10
    u = unitarize(m)
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-12
    # oracle: scipy's polar decomposition
    from scipy.linalg import polar

    expected, _ = polar(m)
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_unitarize_keeps_unitary_input():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    np.testing.assert_allclose(unitarize(q), q, atol=1e-14)


def test_unitarize_idempotent():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    once = unitarize(m)
    twice = unitarize(once)
    assert np.max(np.abs(once - twice)) < 1e-13


def test_unitarize_singular_input():
    with pytest.raises(PumpError, match="^smallest singular value"):
        unitarize(np.diag([1.0, 0.0]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_unitarize_property(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assume(np.linalg.svd(m, compute_uv=False)[-1] > 1e-6)
    u = unitarize(m)
    assert unitarity_defect(u) < 1e-12
    assert np.max(np.abs(unitarize(u) - u)) < 1e-13


# ---------------------------------------------------------------- grid


def test_cycle_grid_validation():
    grid = CycleGrid(2.0, 16)
    assert grid.dt == 0.125
    np.testing.assert_allclose(grid.times, np.arange(16) * 0.125)
    for bad in (0, 4, 100, 12):
        with pytest.raises(ValueError):
            CycleGrid(1.0, bad)
    with pytest.raises(ValueError):
        CycleGrid(-1.0, 16)
    with pytest.raises(ValueError, match="underflows to zero"):
        CycleGrid(5e-324, 8)  # the time step underflows to zero
    with pytest.raises(ValueError):
        CycleGrid(1.0, 16.0)  # must be an integer, not a float


def test_cycle_grid_period_is_any_real_but_a_bool():
    for period in (2, np.int64(2), np.float32(2.0), np.float64(2.0)):
        grid = CycleGrid(period, 16)
        assert type(grid.period) is float and grid.period == 2.0
        assert grid.dt == 0.125
    for bad in (True, False, np.float32("nan"), np.float32(-1.0), "1.0", None, 10**400, -10**400):
        with pytest.raises(ValueError, match="^cycle.period: must be"):
            CycleGrid(bad, 8)


# ---------------------------------------------------------------- derivative


def _matrix_samples(fn, grid):
    return np.stack([fn(t) * np.eye(2, dtype=complex) for t in grid.times])


def test_spectral_derivative_constant():
    grid = CycleGrid(1.0, 16)
    samples = np.full((16, 2, 2), 3.0 + 1.0j)
    for d in spectral_derivative(samples, grid):
        assert np.max(np.abs(d)) < 1e-14


def test_spectral_derivative_exact_mode():
    grid = CycleGrid(1.0, 16)
    samples = _matrix_samples(lambda t: np.exp(2j * np.pi * t), grid)
    out = spectral_derivative(samples, grid)
    expected = 2j * np.pi * samples
    assert np.max(np.abs(out - expected)) < 1e-12


def test_spectral_derivative_grid_refinement():
    fine = CycleGrid(1.0, 128)
    coarse = CycleGrid(1.0, 64)
    f = lambda t: np.cos(4.0 * np.pi * t)
    d_fine = spectral_derivative(_matrix_samples(f, fine), fine)
    d_coarse = spectral_derivative(_matrix_samples(f, coarse), coarse)
    assert np.max(np.abs(d_fine[::2] - d_coarse)) < 1e-12


def test_spectral_derivative_mismatch():
    grid = CycleGrid(1.0, 16)
    with pytest.raises(PumpError, match="samples for a grid of 16 nodes"):
        spectral_derivative(np.stack([np.eye(2, dtype=complex)] * 8), grid)
    with pytest.raises(PumpError, match="samples for a grid of 16 nodes"):
        spectral_derivative(np.zeros((8, 2, 2), dtype=complex), grid)


def test_derivative_integrates_to_zero():
    # closed-loop fundamental theorem: the derivative has zero mean
    grid = CycleGrid(2.0, 64)
    rng = np.random.default_rng(0)
    coef = rng.normal(size=5) + 1j * rng.normal(size=5)
    f = lambda t: sum(c * np.exp(2j * np.pi * m * t / 2.0) for m, c in enumerate(coef))
    d = spectral_derivative(_matrix_samples(f, grid), grid)
    total = cycle_integral(d[:, 0, 0], grid)
    assert abs(total) < 1e-11


# ---------------------------------------------------------------- quadrature


def test_periodic_integral_zeros():
    grid = CycleGrid(1.0, 32)
    assert cycle_integral(np.zeros(32), grid) == 0.0


def test_periodic_integral_pure_mode():
    for n in (8, 32, 128):
        grid = CycleGrid(1.0, n)
        vals = np.sin(2.0 * np.pi * grid.times)
        assert abs(cycle_integral(vals, grid)) < 1e-14


def test_periodic_integral_analytic_oracle():
    # int_0^1 (1 + cos(2 pi t))^2 dt = 1 + 1/2
    grid = CycleGrid(1.0, 64)
    vals = (1.0 + np.cos(2.0 * np.pi * grid.times)) ** 2
    assert abs(cycle_integral(vals, grid) - 1.5) < 1e-12


def test_periodic_integral_mismatch():
    for rates in (np.zeros(16), np.zeros((16, 3))):
        with pytest.raises(PumpError, match="got 16 samples for a grid of 32 nodes"):
            cycle_integral(rates, CycleGrid(1.0, 32))


def _bits(x) -> list:
    return np.atleast_1d(x).view(np.uint64).tolist()


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_cycle_integral_sums_each_column_alone(n):
    # each column of a table integrates bit for bit as the 1-D array it is: in
    # the pairwise order of a 1-D sum, not the row-by-row order of a sum over axis 0
    grid = CycleGrid(1.9, n)
    rng = np.random.default_rng(n)
    table = rng.normal(size=(n, 6)) * np.exp(3.0 * rng.normal(size=6))
    alone = [grid.dt * table[:, j].sum() for j in range(6)]
    assert _bits(cycle_integral(table, grid)) == _bits(alone)
    assert _bits([cycle_integral(table[:, j], grid) for j in range(6)]) == _bits(alone)
    z = table[:, 0] + 1j * table[:, 1]
    total = cycle_integral(z, grid)
    assert np.iscomplexobj(total) and _bits(total) == _bits(grid.dt * z.sum())


# ---------------------------------------------------------------- stencil


def test_central_derivative_quartic_exact():
    # the tests' fourth-order stencil is exact through degree-4 polynomials
    f = lambda x: np.array([x**4 - 2.0 * x**2])
    got = central_derivative(f, 1.3, 0.1)[0]
    assert abs(got - (4 * 1.3**3 - 4 * 1.3)) < 1e-12
    with pytest.raises(ValueError):
        central_derivative(f, 0.0, 0.0)
