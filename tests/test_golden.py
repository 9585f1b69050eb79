"""Golden reports: ``pump analyze``, ``pump instant``, ``pump bathtub`` and
``pump models`` output, byte for byte.

The fixtures under ``tests/data/golden/`` hold the JSON report, the CSV
series and one ``pump instant`` document for each built-in model, with
and without an inverse temperature, the standard output of a few
``pump bathtub`` calls on both dispersions, and the ``pump models``
listing.  Any change to the numerics or the serializer that moves a
single byte of a report fails here.  After an intended change of the
report format, regenerate the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.  The spec 1.0 reports of the same configurations
are kept under ``spec-1.0/``, which regeneration never writes: every
1.0 fact the current report still carries must keep its bits, and the
ones it dropped must follow from the columns it kept.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qpump.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
EPS = np.finfo(float).eps
SPEC_1_0 = GOLDEN / "spec-1.0"

MODELS = {
    "flux": ("flux-loop", {"k_ell": 1.3, "w": 2}, 1.0, 32, 1.0),
    "perturbed": ("perturbed-flux-loop", {"k_ell": 0.7, "delta": 0.3}, 1.7, 32, 0.9),
    "dtc": ("diagonal-times-constant",
            {"n": 3, "s0_seed": 11, "w1": 1, "w2": -2, "a1_1": 0.15, "b2_2": -0.1,
             "a3_2": 0.05}, 0.8, 32, 1.1),
    "rsp": ("random-smooth-path",
            {"n": 3, "seed": 17, "degree": 2, "amplitude": 0.6}, 1.3, 32, 1.0),
}

#: Instant query time of each model, as a fraction of its period.
INSTANT_AT = {"flux": 0.3, "perturbed": 0.55, "dtc": 0.125, "rsp": 0.71}


def config(name: str, beta: bool) -> dict:
    model, params, period, samples, mu = MODELS[name]
    doc = {
        "model": model,
        "params": params,
        "cycle": {"period": period, "samples": samples},
        "energy": {"mu": mu, "window": [0.5, 1.5], "samples": 16},
    }
    if beta:
        doc["beta"] = 20.0
    elif name == "rsp":
        # every sample's defect lies above this, so the report carries the warning
        doc["tolerances"] = {"tol_herm": 1e-30}
    return doc


#: ``pump bathtub`` calls: dispersion, kmax, nk, mu, trials, seed.  No
#: mode count is a power of two.
BATHTUB = {
    "linear": ("linear", 2.0, 1000, 1.0, 300, 7),
    "quadratic": ("quadratic", 3.0, 700, 2.0, 257, 123),
    "linear-small": ("linear", 1.5, 97, 0.4, 64, 0),
    "quadratic-large": ("quadratic", 2.5, 4100, 3.0, 45, 2**62 + 11),
}

CASES = [(name, beta) for name in MODELS for beta in (True, False)]


def case_id(name: str, beta: bool) -> str:
    return f"{name}-{'beta' if beta else 'nobeta'}"


def run_analyze(workdir: Path, name: str, beta: bool) -> tuple[str, str]:
    cfg = workdir / f"{case_id(name, beta)}.config.json"
    cfg.write_text(json.dumps(config(name, beta)))
    out, csv = workdir / "report.json", workdir / "series.csv"
    assert main(["analyze", "--config", str(cfg), "--out", str(out), "--csv", str(csv)]) == 0
    return out.read_text(), csv.read_text()


def run_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def run_instant(workdir: Path, name: str) -> str:
    cfg = workdir / f"{name}.instant.config.json"
    cfg.write_text(json.dumps(config(name, True)))
    t = INSTANT_AT[name] * MODELS[name][2]
    return run_stdout(["instant", "--config", str(cfg), "--t", repr(t)])


def run_bathtub(name: str) -> str:
    dispersion, kmax, nk, mu, trials, seed = BATHTUB[name]
    return run_stdout(["bathtub", "--dispersion", dispersion, "--kmax", repr(kmax),
                       "--nk", str(nk), "--mu", repr(mu), "--trials", str(trials),
                       "--seed", str(seed)])


@pytest.mark.parametrize("name,beta", CASES, ids=[case_id(*c) for c in CASES])
def test_analyze_matches_golden(tmp_path, name, beta):
    report, series = run_analyze(tmp_path, name, beta)
    stem = GOLDEN / case_id(name, beta)
    assert report == (stem.with_suffix(".json")).read_text()
    assert series == (stem.with_suffix(".csv")).read_text()


@pytest.mark.parametrize("name,beta", [c for c in CASES if c[0] in ("flux", "perturbed")],
                         ids=[case_id(*c) for c in CASES if c[0] in ("flux", "perturbed")])
def test_flux_adiabaticity_is_the_declared_delay(name, beta):
    # omega * tau with tau = k_ell/mu exactly: the fixtures hold no stencil error
    _, params, period, _, mu = MODELS[name]
    report = json.loads((GOLDEN / f"{case_id(name, beta)}.json").read_text())
    expected = (2.0 * math.pi / period) * (params["k_ell"] / mu)
    assert report["cycle"]["adiabaticity"] == expected


#: 1.0 facts that 1.1 drops or moves, as paths of keys, each checked on its own
#: below against what 1.1 writes instead.
MOVED = {("adiabaticity",), ("instants",), ("optimality", "decomposition", "phases"),
         ("versions", "spec_version")}

#: 1.0 facts whose value 1.1 changes on purpose, with the reason.
CHANGED = {
    ("rsp-nobeta", ("warnings", 0)):
        "the Hermiticity defect is measured against the cycle's largest ||E||_F, not "
        "each node's own, so the warning's worst defect reads 4.735e-09, not 9.875e-09",
}


def leaves(doc, path=()):
    """The (path, value) pairs of a JSON document's scalars and empty containers."""
    if not isinstance(doc, (dict, list)) or not doc:
        yield path, doc
        return
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield from leaves(value, path + (key,))


def bits(value):
    """A JSON scalar with its float's bits (0.0 and -0.0 differ), as a comparable key."""
    return (float, value.hex()) if isinstance(value, float) else (type(value), value)


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def spectral_antiderivative(rates, period):
    """``int_0^t rates`` at each grid node for a periodic (N, n) rate table
    resolved on its grid: the mean times t plus the FFT antiderivative of the
    rest (the Nyquist mode dropped, as the pipeline's derivative drops it)."""
    n = len(rates)
    coef = np.fft.fft(rates, axis=0)
    freq = 2j * np.pi * np.fft.fftfreq(n, d=period / n)
    freq[0] = 1.0
    coef /= freq[:, None]
    mean = coef[0].real / n
    coef[0] = coef[n // 2] = 0.0
    anti = np.fft.ifft(coef, axis=0).real
    return anti - anti[0] + mean * (np.arange(n) * (period / n))[:, None]


@pytest.mark.parametrize("name,beta", CASES, ids=[case_id(*c) for c in CASES])
def test_spec_1_0_facts_keep_their_bits(name, beta):
    case = case_id(name, beta)
    old = json.loads((SPEC_1_0 / f"{case}.json").read_text())
    new = json.loads((GOLDEN / f"{case}.json").read_text())
    assert (old["versions"]["spec_version"], new["versions"]["spec_version"]) == ("1.0", "1.1")
    # every 1.0 fact still written carries the same bits
    changed = [path for c, path in CHANGED if c == case]
    for path, value in leaves(old):
        if not any(path[:len(p)] == p for p in [*MOVED, *changed]):
            assert bits(lookup(new, path)) == bits(value), path
    for path in changed:  # an exemption names a fact that did change
        assert lookup(new, path) != lookup(old, path)

    # the 1.0 records' t, Qdot, D and Xs are the 1.1 columns, bit for bit
    records, columns = old["instants"], new["instants"]
    assert list(columns) == ["t", "Qdot", "D", "Xs"]
    for key in columns:
        assert [bits(x) for x in np.ravel(columns[key]).tolist()] == \
            [bits(x) for r in records for x in np.ravel(r[key]).tolist()], key
    # the cycle-wide regime flag, once: each 1.0 record repeated it (true without beta)
    regime = {r["regime_ok"] for r in records}
    assert len(regime) == 1
    assert new["cycle"]["regime_ok"] == (regime.pop() if beta else None)
    assert bits(old["adiabaticity"]) == bits(new["cycle"]["adiabaticity"])

    # the dropped per-node facts follow from the kept columns
    q, d, xs = (np.array(columns[key]) for key in ("Qdot", "D", "Xs"))
    # r = D - (R_K/2) Qdot^2 with R_K = 2 pi: the same operations, the same bits
    assert np.array_equal(np.array([r["r"] for r in records]), d - np.pi * q**2)
    if beta:
        # Sdot = beta w/4pi and Ndot = beta w/12pi for the off-diagonal weight
        # w = 4pi Xs: each within 2 ulp of itself (1.5 ulp seen)
        beta_value = new["config"]["beta"]
        sdot, ndot = (np.array([r[key] for r in records]) for key in ("Sdot", "Ndot"))
        assert np.all(np.abs(sdot - beta_value * xs) <= 2 * EPS * np.abs(sdot))
        assert np.all(np.abs(ndot - beta_value * xs / 3.0) <= 2 * EPS * np.abs(ndot))
    else:
        assert all("Sdot" not in r and "Ndot" not in r for r in records)

    # phi_j(t) = phi_j(0) - 2 pi int_0^t Qdot_j on an optimal pump
    old_d, new_d = old["optimality"]["decomposition"], new["optimality"]["decomposition"]
    assert (old_d is None) == (new_d is None)
    if old_d is not None:
        phases = np.array(old_d["phases"])
        assert [bits(x) for x in new_d["initial_phases"]] == [bits(x) for x in phases[0].tolist()]
        period = new["cycle"]["period"]
        rebuilt = np.array(new_d["initial_phases"]) - 2.0 * np.pi * spectral_antiderivative(q, period)
        # 1.8e-13 seen on dtc, whose phases reach 12 rad
        assert np.max(np.abs(rebuilt - phases)) <= 1e-12 * max(1.0, np.max(np.abs(phases)))


@pytest.mark.parametrize("name", list(MODELS))
def test_instant_matches_golden(tmp_path, name):
    assert run_instant(tmp_path, name) == (GOLDEN / f"{name}.instant.json").read_text()


@pytest.mark.parametrize("name", list(BATHTUB))
def test_bathtub_matches_golden(name):
    assert run_bathtub(name) == (GOLDEN / f"bathtub-{name}.json").read_text()


def test_models_listing_matches_golden():
    assert run_stdout(["models"]) == (GOLDEN / "models.json").read_text()


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, beta in CASES:
            report, series = run_analyze(workdir, name, beta)
            stem = GOLDEN / case_id(name, beta)
            stem.with_suffix(".json").write_text(report)
            stem.with_suffix(".csv").write_text(series)
        for name in MODELS:
            (GOLDEN / f"{name}.instant.json").write_text(run_instant(workdir, name))
    for name in BATHTUB:
        (GOLDEN / f"bathtub-{name}.json").write_text(run_bathtub(name))
    (GOLDEN / "models.json").write_text(run_stdout(["models"]))


if __name__ == "__main__":
    regenerate()
