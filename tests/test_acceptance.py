"""Acceptance suite.

Each test exercises one release criterion at its stated tolerance and
prints a single ``[criterion NN] ... PASS/FAIL`` line (visible with
``pytest -s`` or on failure).  All tolerances are pinned here; nothing is
deferred to later calibration.
"""

import json

import numpy as np

from qpump.cli import main
from qpump.matcore import CycleGrid
from qpump.models import build, uniform_stream
from qpump.optimal import diagonal_decomposition, optimality_verdict
from qpump.bathtub import Filling, analytic_minimum, greedy_minimize, linear_dispersion
from qpump.shift import energy_shift_cycle, sample_cycle
from qpump.transport import (
    cycle_integral,
    instant_report,
    winding_charge,
)
from reference import (
    dissipation_from_symbol,
    energy_shift_rows,
    outgoing_symbol,
    reparameterized,
)
from test_models import ALL_BUILTINS
from test_shift import as_shift

GRID = CycleGrid(1.0, 256)
MU = 1.0


def sampled(model):
    """The energy-shift stack on GRID, the samples S(t, mu) it comes from
    and its instant reports: the arguments of ``optimality_verdict``."""
    samples = sample_cycle(model, MU, GRID)
    shifts, _ = energy_shift_cycle(samples, GRID)
    return shifts, samples, instant_report(shifts, GRID.times)


def charge_of(model):
    """Cycle charge on GRID as ``analyze`` takes it: the integral of the
    instant reports' currents."""
    return cycle_integral(sampled(model)[2].qdot, GRID)


def check(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status}" + (f"  ({detail})" if detail else ""))
    return ok


def test_criterion_01_flux_loop_charge_quantization():
    ok = True
    details = []
    for w in (1, 2, 3):
        model = build("flux-loop", {"k_ell": 1.0, "w": w})
        shifts, samples, instants = sampled(model)
        charge = cycle_integral(instants.qdot, GRID)
        winding = winding_charge(model, MU, GRID, samples,
                                 optimality_verdict(shifts, samples, instants))
        gap = float(np.max(np.abs(charge - np.array([-w, w]))))
        ok &= gap < 1e-10 and np.array_equal(winding, [-w, w])
        details.append(f"w={w}: |Q-(-w,+w)|={gap:.2e}")
    assert check(1, "flux-loop charge quantization", ok, "; ".join(details))


def test_criterion_02_bound_saturation_on_optimal_pump():
    model = build("flux-loop", {"k_ell": 1.0})
    worst = max(
        float(np.max(instant_report(e, t).residual))
        for e, t in zip(sampled(model)[0], GRID.times)
    )
    ok = worst < 1e-12
    assert check(2, "bound saturated at every sample", ok, f"max residual {worst:.2e}")


def test_criterion_03_bound_inequality_random_shifts():
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for n in (2, 3, 4):
        for _ in range(200):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            residual = instant_report(as_shift(a + a.conj().T), 0.0).residual
            worst = min(worst, float(residual.min()))
            count += 1
    ok = worst >= -1e-12 and count >= 500
    assert check(3, "bound holds on random energy shifts", ok,
                 f"{count} matrices, min residual {worst:.2e}")


def test_criterion_04_bathtub_oracle():
    qdot, edot = analytic_minimum(MU)
    errors = []
    for n_k in (512, 1024, 2048):
        greedy = greedy_minimize(linear_dispersion(2.0, n_k), qdot)
        err = abs(greedy.edot - edot)
        errors.append((n_k, err))
    envelope_ok = all(err < 5.0 / n_k for n_k, err in errors)
    ratios = [b / a for (_, a), (_, b) in zip(errors, errors[1:])]
    rate_ok = all(0.4 <= r <= 0.6 for r in ratios)

    grid = linear_dispersion(2.0, 1024)
    violations = 0
    for trial in range(1000):
        filling = Filling.from_occupation(grid, uniform_stream(trial, grid.n_k))
        if filling.edot < np.pi * filling.qdot**2 - 1e-12:
            violations += 1

    ok = envelope_ok and rate_ok and violations == 0
    detail = (
        "errors " + ", ".join(f"{n}:{e:.2e}" for n, e in errors)
        + f"; ratios {', '.join(f'{r:.3f}' for r in ratios)}; violations {violations}"
    )
    assert check(4, "bathtub oracle convergence and bound", ok, detail)


def test_criterion_05_square_identity():
    worst = 0.0
    for name, params in ALL_BUILTINS:
        for m in sampled(build(name, params))[0]:
            gap = np.max(np.abs(np.real(np.diag(m @ m)) - (np.abs(m) ** 2).sum(axis=1)))
            worst = max(worst, float(gap))
    ok = worst < 1e-12
    assert check(5, "square identity on all built-ins", ok, f"max gap {worst:.2e}")


def test_criterion_06_outgoing_symbol_moments():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        e = as_shift(a + a.conj().T)
        gap = np.max(np.abs(dissipation_from_symbol(outgoing_symbol(e))
                            - instant_report(e, 0.0).total_dissipation))
        worst = max(worst, float(gap))
    ok = worst < 1e-12
    assert check(6, "outgoing-symbol moment consistency", ok, f"max gap {worst:.2e}")


def test_criterion_07_entropy_noise_ratio():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        en = instant_report(as_shift(a + a.conj().T), 0.0, 3.7)
        defined = en.ndot > 0.0
        if np.any(defined):
            rel = np.abs(en.sdot[defined] / en.ndot[defined] / 3.0 - 1.0)
            worst = max(worst, float(rel.max()))
    ok = worst < 1e-14
    assert check(7, "entropy/noise ratio is 3", ok, f"worst relative error {worst:.2e}")


def test_criterion_08_dequantization():
    sweep = {delta: charge_of(build("perturbed-flux-loop", {"k_ell": 1.0, "delta": delta}))
             for delta in (0.0, 0.2, 0.1, 0.05)}
    at_zero = abs(sweep[0.0][0] + 1.0)
    offsets = [abs(sweep[d][0] + 1.0) for d in (0.2, 0.1, 0.05)]
    ok = (
        at_zero < 1e-10
        and all(o > 0.0 for o in offsets)
        and offsets[0] > offsets[1] > offsets[2]
    )
    detail = f"delta=0: {at_zero:.2e}; offsets {', '.join(f'{o:.3e}' for o in offsets)}"
    assert check(8, "perturbation de-quantizes continuously", ok, detail)


def test_criterion_09_optimality_criteria_equivalence():
    ok = True
    details = []
    for name, params in ALL_BUILTINS:
        model = build(name, params)
        shifts, samples, instants = sampled(model)
        verdict = optimality_verdict(shifts, samples, instants)
        has_decomposition = diagonal_decomposition(samples) is not None
        ok &= verdict.is_optimal == has_decomposition
        details.append(f"{name}: {verdict.is_optimal}/{has_decomposition}")
    assert check(9, "diagonality <=> diagonal-times-constant form", ok, "; ".join(details))


def test_criterion_10_reparameterization_invariance():
    ok = True
    details = []
    for name, params in [
        ("flux-loop", {"k_ell": 1.0, "w": 2}),
        ("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.1}),
    ]:
        model = build(name, params)
        warped = reparameterized(model, 0.1)
        drift = float(np.max(np.abs(charge_of(model) - charge_of(warped))))
        same_verdict = (
            optimality_verdict(*sampled(model)).is_optimal
            == optimality_verdict(*sampled(warped)).is_optimal
        )
        ok &= drift < 1e-8 and same_verdict
        details.append(f"{name}: drift {drift:.2e}")
    assert check(10, "reparameterization invariance", ok, "; ".join(details))


def test_criterion_11_cross_path_equality():
    worst = 0.0
    for name, params in ALL_BUILTINS:
        model = build(name, params)
        matrix_route = sampled(model)[0]
        row_route = energy_shift_rows(model, MU, GRID)
        worst = max(worst, float(np.max(np.abs(matrix_route - row_route))))
    ok = worst < 1e-10
    assert check(11, "matrix and row routes agree", ok, f"max entrywise gap {worst:.2e}")


def test_criterion_12_cli_determinism_and_exit_codes(tmp_path, capsys):
    config = {
        "model": "flux-loop",
        "params": {"k_ell": 1.0},
        "cycle": {"period": 1.0, "samples": 256},
        "energy": {"mu": 1.0, "window": [0.5, 1.5], "samples": 16},
    }

    def write(doc, name):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    cfg = write(config, "good.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ok = main(["analyze", "--config", cfg, "--out", str(a)]) == 0
    ok &= main(["analyze", "--config", cfg, "--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()

    bad_samples = dict(config)
    bad_samples["cycle"] = {"period": 1.0, "samples": 100}
    code1 = main(["analyze", "--config", write(bad_samples, "bad1.json"), "--out", str(tmp_path / "x.json")])

    bad_mu = dict(config)
    bad_mu["energy"] = {"mu": 9.0, "window": [0.5, 1.5], "samples": 16}
    code1b = main(["analyze", "--config", write(bad_mu, "bad2.json"), "--out", str(tmp_path / "x.json")])

    code1c = main(["instant", "--config", cfg, "--t", "1.0"])

    rough = dict(config)
    rough["model"] = "perturbed-flux-loop"
    rough["params"] = {"k_ell": 1.0, "delta": 2.0}
    rough["cycle"] = {"period": 1.0, "samples": 8}
    code2 = main(["analyze", "--config", write(rough, "rough.json"), "--out", str(tmp_path / "x.json")])

    code3 = main(["analyze", "--config", cfg, "--out", str(tmp_path / "missing" / "x.json")])

    capsys.readouterr()  # flush collected stderr before reporting
    ok &= identical and (code1, code1b, code1c, code2, code3) == (1, 1, 1, 2, 3)
    detail = (
        f"byte-identical={identical}; exits: samples={code1}, mu={code1b}, "
        f"t=T={code1c}, rough={code2}, io={code3}"
    )
    assert check(12, "CLI determinism and exit codes", ok, detail)
