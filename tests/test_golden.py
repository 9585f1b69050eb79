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

and review the diff.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from qpump.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

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
    assert report["adiabaticity"] == report["cycle"]["adiabaticity"] == expected


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
