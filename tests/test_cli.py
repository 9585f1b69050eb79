"""Command-line interface: outputs, determinism and the exit-code contract."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpump import cli, errors, report
from qpump.bathtub import greedy_minimize, linear_dispersion
from qpump.cli import main
from qpump.errors import NumericalFailure
from qpump.matcore import DEFAULT_TOLERANCES, CycleGrid, Tolerances, spectral_derivative, unitarize
from qpump.models import MAX_STACK_ENTRIES, ModelConfig, PumpModel, build
from qpump.report import (_ARRAY_MIN, _P0, _format_block, _pow10_table, _scaled, analyze, dumps,
                          format_float, instant_document)
from qpump.transport import cycle_integral, instant_report, winding_charge
from test_transport import REGIME_CASES, regime_config

BASE_CONFIG = {
    "model": "flux-loop",
    "params": {"k_ell": 1.0},
    "cycle": {"period": 1.0, "samples": 256},
    "energy": {"mu": 1.0, "window": [0.5, 1.5], "samples": 16},
    "beta": 50.0,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------- serialization


def reference_float(value):
    """The float rule written out for one value: ``%.17g``, plus ".0" when the
    text has neither "." nor "e" (it would read back as an integer)."""
    text = format(value, ".17g")
    return text if "." in text or "e" in text else text + ".0"


def test_format_float_round_trips():
    values = [1.0, -1.0, 0.1, np.pi, 1e-300, 3.0e17, -2.5e-17]
    for v in values:
        text = format_float(v)
        assert float(text) == v
        assert isinstance(json.loads(text), float)  # never collapses to int


def test_dumps_round_trip_lossless():
    doc = {"a": [1.0, 2, True, None], "b": {"c": np.pi}, "d": "x\"y"}
    parsed = json.loads(dumps(doc))
    assert parsed == {"a": [1.0, 2, True, None], "b": {"c": np.pi}, "d": "x\"y"}
    assert parsed["b"]["c"] == np.pi  # exact float round trip


# ---------------------------------------------------------------- models


def test_models_listing(capsys):
    assert main(["models"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = [entry["name"] for entry in doc]
    assert names == [
        "flux-loop",
        "perturbed-flux-loop",
        "diagonal-times-constant",
        "random-smooth-path",
    ]
    flux = doc[0]
    defaults = {p["name"]: p for p in flux["params"]}
    assert defaults["w"]["default"] == 1.0
    assert defaults["k_ell"]["required"] is True


# ---------------------------------------------------------------- analyze


def test_analyze_flux_loop(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "report.json"
    csv = tmp_path / "series.csv"
    assert main(["analyze", "--config", cfg, "--out", str(out), "--csv", str(csv)]) == 0

    doc = json.loads(out.read_text())
    np.testing.assert_allclose(doc["cycle"]["charge"], [-1.0, 1.0], atol=1e-10)
    assert doc["cycle"]["winding"] == [-1, 1]
    assert doc["optimality"]["is_optimal"] is True
    assert doc["versions"]["spec_version"] == "1.2"
    assert doc["versions"]["tolerances"]["tol_opt"] == 1e-8
    # node-major columns; Sdot = beta Xs and Ndot = beta Xs / 3 are not written
    assert list(doc["instants"]) == ["t", "Qdot", "D", "Xs"]
    assert np.shape(doc["instants"]["t"]) == (256,)
    assert all(np.shape(doc["instants"][key]) == (256, 2) for key in ("Qdot", "D", "Xs"))
    # the regime flag is said once: omega * beta = 2 pi * 50 >= 1
    assert doc["cycle"]["regime_ok"] is False
    assert "adiabaticity" not in doc
    # adiabaticity here is 2*pi >= 0.1, so the advisory warning must appear
    assert any("adiabaticity" in w for w in doc["warnings"])

    lines = csv.read_text().splitlines()
    assert lines[0] == "t,Qdot_1,Qdot_2,D_1,D_2,Sdot_1,Sdot_2,Ndot_1,Ndot_2,rho"
    assert len(lines) == 257


def test_every_tolerance_is_read_and_echoed(tmp_path, capsys):
    # each Tolerances field is a config key and is echoed in field order,
    # whatever order the config lists them in
    names = [f.name for f in dataclasses.fields(Tolerances)]
    given_values = {name: 2.0 * getattr(DEFAULT_TOLERANCES, name) for name in reversed(names)}
    cfg = write_config(tmp_path, dict(BASE_CONFIG, tolerances=given_values))
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    echo = json.loads(out.read_text())["versions"]["tolerances"]
    assert list(echo) == names
    assert echo == given_values
    bad = write_config(tmp_path, dict(BASE_CONFIG, tolerances={"tol_opt": 1e-8, "tol_x": 1.0}))
    assert main(["analyze", "--config", bad, "--out", str(tmp_path / "bad.json")]) == 1
    assert "tolerances.tol_x" in capsys.readouterr().err


def test_analyze_without_beta_drops_entropy_columns(tmp_path):
    doc = dict(BASE_CONFIG)
    del doc["beta"]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "report.json"
    csv = tmp_path / "series.csv"
    assert main(["analyze", "--config", cfg, "--out", str(out), "--csv", str(csv)]) == 0
    report = json.loads(out.read_text())
    assert list(report["instants"]) == ["t", "Qdot", "D", "Xs"]
    assert report["cycle"]["regime_ok"] is None
    assert csv.read_text().splitlines()[0] == "t,Qdot_1,Qdot_2,D_1,D_2,rho"


def test_energy_samples_is_optional(tmp_path):
    # energy.samples is reserved and read by nothing: without it the report
    # differs only in the config echo; with it, it is validated and echoed
    reports = {}
    for name, energy in (("with", BASE_CONFIG["energy"]),
                         ("without", {"mu": 1.0, "window": [0.5, 1.5]})):
        cfg = write_config(tmp_path, dict(BASE_CONFIG, energy=energy), f"{name}.json")
        out = tmp_path / f"{name}.out.json"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        reports[name] = out.read_text()
    with_samples, without = (json.loads(reports[name]) for name in ("with", "without"))
    assert with_samples["config"] == BASE_CONFIG
    assert without["config"]["energy"] == {"mu": 1.0, "window": [0.5, 1.5]}
    without["config"]["energy"]["samples"] = 16
    assert dumps(without) == reports["with"]
    bad = write_config(tmp_path, dict(BASE_CONFIG, energy=dict(BASE_CONFIG["energy"], samples=12)))
    assert main(["analyze", "--config", bad, "--out", str(tmp_path / "bad.json")]) == 1


def test_analyze_deterministic(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["analyze", "--config", cfg, "--out", str(a)]) == 0
    assert main(["analyze", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


#: One configuration per built-in model; flux-loop is BASE_CONFIG's.
MODEL_PARAMS = {
    "flux-loop": {"k_ell": 1.0},
    "perturbed-flux-loop": {"k_ell": 0.7, "delta": 0.3},
    "diagonal-times-constant": {"n": 3, "s0_seed": 11, "w1": 1, "w2": -2, "a1_1": 0.15},
    "random-smooth-path": {"n": 3, "seed": 17, "degree": 2, "amplitude": 0.6},
}


@pytest.mark.parametrize("beta", [True, False], ids=["beta", "nobeta"])
@pytest.mark.parametrize("model", list(MODEL_PARAMS))
def test_analyze_report_reserializes_identically(tmp_path, model, beta):
    # parse(serialize(r)) == r, byte for byte: the parsed report holds plain
    # lists, written value by value, against the array blocks of the original
    doc = dict(BASE_CONFIG, model=model, params=MODEL_PARAMS[model])
    if not beta:
        del doc["beta"]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert dumps(json.loads(text)) == text


# ---------------------------------------------------------------- instant


def test_instant_values(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["instant", "--config", cfg, "--t", "0.25"]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["Qdot"], [-1.0, 1.0], atol=1e-10)
    np.testing.assert_allclose(doc["D"], [np.pi, np.pi], atol=1e-10)
    assert doc["Sdot"] == [0.0, 0.0]


def test_instant_nonzero_entropy_for_perturbed(tmp_path, capsys):
    doc = dict(BASE_CONFIG)
    doc["model"] = "perturbed-flux-loop"
    doc["params"] = {"k_ell": 1.0, "delta": 0.1}
    cfg = write_config(tmp_path, doc)
    assert main(["instant", "--config", cfg, "--t", "0.25"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert max(out["Sdot"]) > 0.0


@pytest.mark.parametrize("case", list(REGIME_CASES))
def test_instant_and_analyze_agree_on_the_regime(tmp_path, capsys, case):
    # the window omega < 1/beta < 1/tau is the cycle's: pump instant's flag
    # (true without beta), analyze's cycle.regime_ok (null without beta) and
    # analyze's regime warning say the same
    model, params, omega, beta, expected = REGIME_CASES[case]
    cfg = write_config(tmp_path, regime_config(model, params, omega, beta).raw)
    assert main(["instant", "--config", cfg, "--t", "0.0"]) == 0
    instant = json.loads(capsys.readouterr().out)
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert instant["regime_ok"] is (expected is not False)
    assert report["cycle"]["regime_ok"] is expected
    assert any("regime check failed" in w for w in report["warnings"]) is (expected is False)


# ---------------------------------------------------------------- exit codes


def test_exit_1_bad_samples(tmp_path, capsys):
    # not a power of two; a power of two whose (N, 2, 2) stack would take 16 GiB
    for samples in (100, 2**30):
        doc = dict(BASE_CONFIG)
        doc["cycle"] = {"period": 1.0, "samples": samples}
        cfg = write_config(tmp_path, doc)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
        assert "cycle.samples" in capsys.readouterr().err


def test_exit_1_mu_outside_window(tmp_path, capsys):
    doc = dict(BASE_CONFIG)
    doc["energy"] = {"mu": 2.0, "window": [0.5, 1.5], "samples": 16}
    cfg = write_config(tmp_path, doc)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
    assert "energy.mu" in capsys.readouterr().err


@pytest.mark.parametrize("params, line", [
    ({}, "params.k_ell: model 'flux-loop' requires parameter 'k_ell'"),
    ({"k_ell": -0.5}, "params.k_ell: must be >= 0.0, got -0.5"),
    ({"k_ell": True}, "params.k_ell: must be a real number"),
    ({"k_ell": 1.0, "wobble": 2.0},
     "params.wobble: model 'flux-loop' does not understand parameter 'wobble'"),
], ids=["missing", "below-minimum", "bool", "unknown"])
def test_exit_1_params_fault_names_its_key(tmp_path, params, line):
    cfg = write_config(tmp_path, dict(BASE_CONFIG, params=params))
    code, out, err = run_cli(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")])
    assert (code, out, err) == (1, "", f"pump: config error: {line}\n")


def test_exit_2_phase_step_beyond_pi(tmp_path):
    # 40 windings on 64 nodes advance each row 2 pi 40/64 > pi per interval
    doc = dict(BASE_CONFIG, params={"k_ell": 1.0, "w": 40}, cycle={"period": 1.0, "samples": 64})
    cfg = write_config(tmp_path, doc)
    code, out, err = run_cli(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")])
    assert (code, out, err) == (2, "", "pump: numerical failure: row 1 advances 3.927 rad "
                                "across one grid interval (limit pi); refine the grid\n")


def test_exit_1_seed_above_two_to_the_53(tmp_path, capsys):
    # read as a double, the seed would draw the stream of 2**53
    doc = dict(BASE_CONFIG, model="random-smooth-path", params={"seed": 2**53 + 1})
    cfg = write_config(tmp_path, doc)
    assert '"seed": 9007199254740993' in Path(cfg).read_text()
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
    assert "params.seed: must be <= 9007199254740992, got 9007199254740993" in (
        capsys.readouterr().err)
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_exit_1_amplitude_beyond_any_grid(tmp_path, capsys):
    # H overflows (1e308) or no grid within MAX_STACK_ENTRIES resolves it (1e200):
    # a config error naming the parameter, not a numerical failure
    cycle = {"period": 1.0, "samples": 64}
    for amplitude in (1e308, 1e200):
        doc = dict(BASE_CONFIG, model="random-smooth-path", params={"amplitude": amplitude},
                   cycle=cycle)
        cfg = write_config(tmp_path, doc)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 1
        assert (f"params.amplitude: must be <= {float(MAX_STACK_ENTRIES)!r}, got {amplitude!r}"
                in capsys.readouterr().err)
    # at the cap the entries are finite: too coarse a grid is a resolution failure
    doc = dict(BASE_CONFIG, model="random-smooth-path",
               params={"amplitude": float(MAX_STACK_ENTRIES)}, cycle=cycle)
    cfg = write_config(tmp_path, doc)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert "the grid does not resolve the cycle" in capsys.readouterr().err


def test_exit_1_instant_at_period_end(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["instant", "--config", cfg, "--t", "1.0"]) == 1
    assert main(["instant", "--config", cfg, "--t", "0.0"]) == 0


def test_instant_time_is_a_real_number():
    # the package's real-number rule, as for every other value a caller passes
    config = ModelConfig.from_dict(BASE_CONFIG)
    for t in (True, np.bool_(False), "0.25", None):
        with pytest.raises(errors.ConfigError) as err:
            instant_document(config, t)
        assert type(err.value) is errors.ConfigError
        assert str(err.value) == "t: must be a real number"
    for t in (0, np.float64(0.25), np.int64(0)):
        assert type(instant_document(config, t)["t"]) is float
    with pytest.raises(errors.ConfigError, match=r"^t: must lie in \[0, 1.0\), got nan$"):
        instant_document(config, math.nan)


def test_exit_1_bad_flags(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bathtub", "--dispersion", "cubic", "--kmax", "2", "--nk", "128",
              "--mu", "1", "--trials", "1", "--seed", "0"])
    assert err.value.code == 1


def test_exit_2_under_resolved_grid(tmp_path, capsys):
    doc = dict(BASE_CONFIG)
    doc["model"] = "perturbed-flux-loop"
    doc["params"] = {"k_ell": 1.0, "delta": 2.0}
    doc["cycle"] = {"period": 1.0, "samples": 8}
    cfg = write_config(tmp_path, doc)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")]) == 2
    assert "hermiticity" in capsys.readouterr().err


def test_vanishing_shift_is_resolved(tmp_path, capsys):
    # E(t) = -pi cos(4 pi t) vanishes at the node t = 0.125: its Hermiticity
    # defect is rounding against the cycle's largest ||E||_F, not rounding
    # over that node's own norm (which read 1.985 and 1.572 there)
    doc = dict(BASE_CONFIG, model="diagonal-times-constant", params={"n": 1, "b1_2": 0.5},
               cycle={"period": 1.0, "samples": 64})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "r.json"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["optimality"]["is_optimal"] is True
    assert report["cycle"]["winding"] == [0]
    assert main(["instant", "--config", cfg, "--t", "0.125"]) == 0
    assert abs(json.loads(capsys.readouterr().out)["Qdot"][0]) < 1e-14


def test_exit_3_unwritable_output(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    missing = tmp_path / "no-such-dir" / "r.json"
    assert main(["analyze", "--config", cfg, "--out", str(missing)]) == 3


def test_exit_3_missing_config(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "r.json")]) == 3


# ---------------------------------------------------------------- bathtub


def test_bathtub_command(capsys):
    argv = ["bathtub", "--dispersion", "linear", "--kmax", "2", "--nk", "1024",
            "--mu", "1", "--trials", "1000", "--seed", "0"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["violations"] == 0
    assert doc["max_violation"] == 0.0
    assert abs(doc["greedy_Edot"] - doc["analytic_Edot"]) < 5.0 / 1024


def test_bathtub_dispersion_independence(capsys):
    edots = {}
    for kind in ("linear", "quadratic"):
        assert main(["bathtub", "--dispersion", kind, "--kmax", "2", "--nk", "1024",
                     "--mu", "1", "--trials", "10", "--seed", "1"]) == 0
        edots[kind] = json.loads(capsys.readouterr().out)["greedy_Edot"]
    # energy cell width bounds the gap; the quadratic grid has the wider cells
    max_cell = (2.0**2 - (2.0 - 2.0 / 1024) ** 2) / 2.0
    assert abs(edots["linear"] - edots["quadratic"]) < 2.0 * max_cell


def test_bathtub_rejects_nk_zero(capsys):
    assert main(["bathtub", "--dispersion", "linear", "--kmax", "2", "--nk", "0",
                 "--mu", "1", "--trials", "1", "--seed", "0"]) == 1
    assert "nk" in capsys.readouterr().err


def bathtub_argv(**flags):
    args = {"dispersion": "linear", "kmax": "2", "nk": "100", "mu": "1", "trials": "3",
            "seed": "0", **flags}
    # --flag=value, so that argparse reads "-inf" or "-1e-05" as a value, not a flag
    return ["bathtub"] + [f"--{key}={value}" for key, value in args.items()]


# with trials = 3, the streams seed .. seed + 2 must all lie below 2**64; mu = 3
# lies above the linear band's top eps(k_max) = 2
@pytest.mark.parametrize("flag,value", [("kmax", "nan"), ("kmax", "inf"), ("kmax", "-inf"),
                                        ("seed", str(2**64 - 2)), ("seed", str(2**64)),
                                        ("seed", str(2**70)), ("nk", str(10**13)),
                                        ("trials", "0"), ("mu", "0"), ("mu", "3")])
def test_bathtub_rejects_kmax_and_seed_out_of_range(capsys, flag, value):
    assert main(bathtub_argv(**{flag: value})) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"config error: {flag}" in captured.err


@pytest.mark.parametrize("mu", ["nan", "inf", "-inf", "0", "3"])
def test_bathtub_mu_outside_the_band_reads_as_the_band(capsys, mu):
    # a float flag that is not finite is outside the band, worded as one
    assert main(bathtub_argv(mu=mu)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "pump: config error: mu: must lie in (0, eps(k_max)] = (0, 2]\n")


@pytest.mark.parametrize("flags,first", [({"nk": "0", "kmax": "nan"}, "nk"),
                                         ({"trials": "0", "mu": "nan"}, "trials"),
                                         ({"seed": "-1", "mu": "0"}, "seed")])
def test_bathtub_names_the_first_faulty_flag(capsys, flags, first):
    # the flags are checked in the order nk, kmax, trials, seed, mu
    assert main(bathtub_argv(**flags)) == 1
    assert capsys.readouterr().err.startswith(f"pump: config error: {first}: ")


@pytest.mark.parametrize("dispersion,kmax,mu", [("quadratic", "1e200", "1"),
                                                ("linear", "1e308", "1e307"),
                                                ("linear", "1.5e154", "1.5e154")],
                         ids=["eps-overflows", "edot-overflows", "mu-squared-overflows"])
def test_bathtub_rejects_a_band_beyond_a_double(capsys, dispersion, kmax, mu):
    # every flag passes its own rule, but the band's fluxes would overflow the report
    argv = bathtub_argv(dispersion=dispersion, kmax=kmax, nk="64", mu=mu, trials="1")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("pump: config error: kmax: ")


def test_bathtub_runs_a_band_just_inside_a_double(capsys):
    # eps(k_max)^2 = 1.69e308 is still a double: the report is finite
    assert main(bathtub_argv(kmax="1.3e154", nk="64", mu="1.3e154", trials="1")) == 0
    assert strict_json(capsys.readouterr().out)["violations"] == 0


def test_bathtub_seeds_up_to_two_to_the_64_run(capsys):
    outputs = []
    for seed in (2**63, 2**64 - 3):
        assert main(bathtub_argv(seed=str(seed))) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0]["violations"] == outputs[1]["violations"] == 0


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


REALS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.floats(min_value=-4.0, max_value=40.0))


@given(dispersion=st.sampled_from(["linear", "quadratic", "cubic"]),
       kmax=REALS, nk=st.integers(-8, 512), mu=REALS, trials=st.integers(-2, 64),
       seed=st.integers(-10, 2**70))
@settings(max_examples=150, deadline=None)
def test_bathtub_fuzz_keeps_the_exit_code_contract(dispersion, kmax, nk, mu, trials, seed):
    argv = bathtub_argv(dispersion=dispersion, kmax=repr(kmax), nk=str(nk), mu=repr(mu),
                        trials=str(trials), seed=str(seed))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        doc = strict_json(out.getvalue())
        assert doc["violations"] == 0


# ---------------------------------------------------------------- non-finite input


def test_exit_2_non_finite_report_leaves_no_file(tmp_path, capsys):
    # a vanishing period overflows the energy shift: the report would need inf/nan
    doc = dict(BASE_CONFIG)
    doc["cycle"] = {"period": 1e-300, "samples": 64}
    cfg = write_config(tmp_path, doc)
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    assert main(["analyze", "--config", cfg, "--out", str(out), "--csv", str(csv)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "non-finite" in err
    assert "Traceback" not in err
    assert not out.exists() and not csv.exists()
    assert main(["instant", "--config", cfg, "--t", "0.0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err


def test_exit_3_unwritable_output_leaves_no_file(tmp_path, capsys):
    # either file may be the one that cannot be opened; the other is not left behind
    cfg = write_config(tmp_path, BASE_CONFIG)
    good, bad = tmp_path / "r.json", tmp_path / "nodir" / "s.csv"
    for out, csv in ((good, bad), (bad, good)):
        assert main(["analyze", "--config", cfg, "--out", str(out), "--csv", str(csv)]) == 3
        err = capsys.readouterr().err
        assert "i/o failure" in err and "Traceback" not in err
        assert not out.exists() and not csv.exists()


# ---------------------------------------------------------------- output contract


@pytest.mark.parametrize("first,second", [("--out", "--csv"), ("--config", "--out"),
                                          ("--config", "--csv")])
def test_exit_1_two_flags_name_one_file(tmp_path, capsys, first, second):
    cfg = write_config(tmp_path, BASE_CONFIG)
    before = Path(cfg).read_bytes()
    paths = {"--config": cfg, "--out": str(tmp_path / "r.json"), "--csv": str(tmp_path / "r.csv")}
    # the second flag spells the first's path another way
    paths[second] = os.path.join(str(tmp_path), ".", os.path.basename(paths[first]))
    argv = ["analyze"] + [token for flag, path in paths.items() for token in (flag, path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{second}: " in err and f"same file as {first}" in err
    assert Path(cfg).read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["config.json"]
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 0


def test_links_to_the_config(tmp_path, capsys):
    # a symbolic link names the config's file: refused; a hard link is
    # another name, which the report replaces, so the config stays intact
    cfg = write_config(tmp_path, BASE_CONFIG)
    before = Path(cfg).read_bytes()
    soft, hard = tmp_path / "soft.json", tmp_path / "hard.json"
    soft.symlink_to(cfg)
    os.link(cfg, hard)
    assert main(["analyze", "--config", cfg, "--out", str(soft)]) == 1
    assert "--out: " in capsys.readouterr().err
    assert main(["analyze", "--config", cfg, "--out", str(hard)]) == 0
    assert Path(cfg).read_bytes() == before and soft.read_bytes() == before
    assert json.loads(hard.read_text())["versions"]


def test_exit_3_keeps_the_earlier_outputs_and_leaves_no_new_file(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    assert main(["analyze", "--config", cfg, "--out", str(out), "--csv", str(csv)]) == 0
    earlier = {path: path.read_bytes() for path in (out, csv)}
    other = write_config(tmp_path, {**BASE_CONFIG, "beta": 20.0}, name="other.json")
    listing = sorted(os.listdir(tmp_path))
    bad = tmp_path / "nodir" / "s.csv"
    for argv in (["--out", str(out), "--csv", str(bad)], ["--out", str(bad), "--csv", str(csv)]):
        assert main(["analyze", "--config", other] + argv) == 3
        err = capsys.readouterr().err
        assert "i/o failure" in err and repr(str(bad)) in err
        assert {path: path.read_bytes() for path in (out, csv)} == earlier
        assert sorted(os.listdir(tmp_path)) == listing


def test_exit_3_target_that_is_not_a_regular_file(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    (tmp_path / "dir").mkdir()
    csv = tmp_path / "r.csv"
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "dir"),
                 "--csv", str(csv)]) == 3
    assert "not a regular file" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json", "dir"]
    assert os.listdir(tmp_path / "dir") == []


def test_outputs_replace_through_a_link_with_the_umask_mode(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    target = tmp_path / "real.json"
    target.write_text("old")
    os.chmod(target, 0o600)
    link = tmp_path / "r.json"
    link.symlink_to(target)
    mask = os.umask(0o027)
    try:
        assert main(["analyze", "--config", cfg, "--out", str(link)]) == 0
    finally:
        os.umask(mask)
    assert link.is_symlink() and json.loads(target.read_text())["versions"]
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["config.json", "r.json", "real.json"]


def test_exit_2_non_finite_model_samples(tmp_path, capsys):
    # a huge period overflows the flux phase: the model itself returns nan
    doc = dict(BASE_CONFIG)
    doc["cycle"] = {"period": 1e308, "samples": 64}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "r.json"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "model 'flux-loop'" in err and "non-finite" in err and "t=" in err
    assert not out.exists()


def test_format_float_rejects_non_finite():
    from qpump.errors import NumericalFailure

    config = ModelConfig.from_dict(dict(BASE_CONFIG, cycle={"period": 1.0, "samples": 16}))
    document, instant = analyze(config).document, instant_document(config, 0.25)
    for value in (float("nan"), float("inf"), -float("inf")):
        message = f"non-finite value {format(value, '.17g')} in the report"
        with pytest.raises(NumericalFailure, match=f"^{message}$"):
            format_float(value)
        with pytest.raises(NumericalFailure, match=f"^{message}$"):
            dumps({"x": np.array([1.0, value])})
        block = np.ones((4, 3))
        block[2, 1] = value
        with pytest.raises(NumericalFailure, match="non-finite"):
            dumps({"x": block})
        xs = document["instants"]["Xs"].copy()
        xs[5, 1] = value
        with pytest.raises(NumericalFailure, match="non-finite"):
            dumps(dict(document, instants=dict(document["instants"], Xs=xs)))
        sdot = instant["Sdot"].copy()
        sdot[1] = value
        with pytest.raises(NumericalFailure, match="non-finite"):
            dumps(dict(instant, Sdot=sdot))


def listed(doc):
    """A document with every array replaced by its list form."""
    if isinstance(doc, dict):
        return {key: listed(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [listed(value) for value in doc]
    return doc.tolist() if isinstance(doc, np.ndarray) else doc


def test_dumps_float_array_matches_list_form():
    values = np.array([0.1, -2.5e-17, 3.0, np.pi, 1e300])
    # %.17g writes the integral ones below 1e17 without "." or "e"
    edges = np.array([-0.0, 1.0, -3.0, 1e16, 99999999999999984.0, 1e17, 5e-324,
                      1.7976931348623157e308])
    for v in [*values.tolist(), *edges.tolist()]:
        assert format_float(v) == reference_float(v)
    phases = np.random.default_rng(3).normal(size=(16, 3))
    phases[::4, 1] = 0.0
    doc = {"a": values, "b": {"c": values[:2]}, "e": np.array([]), "m": np.eye(2)}
    as_lists = {"a": values.tolist(), "b": {"c": values[:2].tolist()}, "e": [],
                "m": np.eye(2).tolist()}
    assert dumps(doc) == dumps(as_lists)
    arrays = {"edges": edges, "phases": phases, "s": np.arange(9.0).reshape(3, 3) - 4.5,
              "empty_rows": np.zeros((2, 0))}
    assert dumps(arrays) == dumps({key: value.tolist() for key, value in arrays.items()})
    # arrays of rank 0 and 1 are written in place, rank 2 or more as tables: the same text
    long = np.random.default_rng(4).normal(size=_ARRAY_MIN + 5)
    long[::7] = 0.0
    shapes = {"long": long, "one": np.array([2.5]), "rows": [values, values[:1], np.array([])],
              "cube": np.arange(24.0).reshape(2, 3, 4) / 7.0, "scalar": np.array(-1.25)}
    assert dumps(shapes) == dumps(listed(shapes))
    assert dumps([long]) == dumps([long.tolist()])

    for model, params in [("flux-loop", {"k_ell": 1.0}),
                          ("perturbed-flux-loop", {"k_ell": 0.7, "delta": 0.3})]:
        for beta in (50.0, None):
            doc = dict(BASE_CONFIG, model=model, params=params,
                       cycle={"period": 1.0, "samples": 16})
            if beta is None:
                del doc["beta"]
            config = ModelConfig.from_dict(doc)
            result = analyze(config)
            assert dumps({"x": result.document}) == dumps({"x": listed(result.document)})
            one = instant_document(config, 0.25)
            assert dumps(one) == dumps(listed(one))
            assert dumps([one]) == dumps([listed(one)])
            # a report is columns, written only inside a document
            for instants in (result.instants, instant_report(np.diag([1.0, -1.0]), 0.25)):
                with pytest.raises(TypeError, match="cannot serialize InstantReport"):
                    dumps(instants)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(1e17 - 16.0)
@settings(max_examples=300, deadline=None)
def test_format_float_matches_scalar_rule(value):
    assert format_float(value) == reference_float(value)
    assert float(format_float(value)) == value


#: Few values, so that drawn blocks repeat them: both zeros, subnormals, the
#: integral values around 1e17 where ".0" stops, and the largest double.
BLOCK_POOL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -3.0, 0.1,
              1e16, 1e16 + 2.0, 1e17 - 16.0, 1e17, -1e17, 1e17 + 16.0,
              1.7976931348623157e308, -1.7976931348623157e308)


def block_texts(block):
    """Each entry of ``block`` as :func:`_format_block` writes it: its row of
    the distinct texts, NUL padding dropped."""
    rows, index = _format_block(block)
    lines = np.column_stack([rows[index], np.full(index.size, ord("\n"), np.uint8)])
    return lines.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def float_texts(text):
    """Every float of a JSON text as written, in document order."""
    texts = []
    json.loads(text, parse_float=lambda t: texts.append(t) or float(t))
    return texts


@st.composite
def pooled_blocks(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    values = draw(st.lists(st.sampled_from(BLOCK_POOL), min_size=rows * cols,
                           max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


@given(pooled_blocks())
@example(np.array([[0.0, -0.0, 0.0], [-0.0, 5e-324, 0.0]]))
@example(np.array([[1e17 - 16.0, 1e17], [1e17, 1e17 - 16.0], [1e16, 1.7976931348623157e308]]))
@example(np.array([[-0.0]]))
@example(np.zeros((2, 0)))
@settings(max_examples=200, deadline=None)
def test_format_block_matches_the_per_value_rule(block):
    # repeated entries are formatted once; every one must still read as its own value
    assert block_texts(block) == [reference_float(v) for v in block.ravel().tolist()]
    text = dumps({"x": block, "y": [*block.ravel().tolist(), 2.5]})
    assert float_texts(text) == [*map(reference_float, block.ravel().tolist() * 2), "2.5"]
    assert dumps({"x": block}) == dumps({"x": block.tolist()})


def large_block(values, rng, cols=8):
    """``values`` drawn into a block of at least ``_ARRAY_MIN`` entries, so that
    it is formatted by the array route; every value appears at least once."""
    values = np.asarray(values, dtype=float)
    rows = -(-max(_ARRAY_MIN, values.size) // cols)
    block = rng.choice(values, size=rows * cols)
    block[rng.permutation(block.size)[:values.size]] = values
    return block.reshape(rows, cols)


@given(st.lists(st.sampled_from(BLOCK_POOL) | st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=24),
       st.integers(0, 2**32 - 1))
@example(list(BLOCK_POOL), 0)
@example([-0.0], 1)
@settings(max_examples=60, deadline=None)
def test_format_block_matches_the_per_value_rule_in_a_large_block(values, seed):
    block = large_block(values, np.random.default_rng(seed))
    assert block_texts(block) == [reference_float(v) for v in block.ravel().tolist()]
    text = dumps({"x": block, "y": [*block.ravel().tolist(), 2.5]})
    assert float_texts(text) == [*map(reference_float, block.ravel().tolist() * 2), "2.5"]
    assert dumps({"x": block}) == dumps({"x": block.tolist()})


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example([-0.0, 1e17 - 16.0])
@settings(max_examples=100, deadline=None)
def test_format_float_matches_scalar_rule_in_a_large_block(values):
    # the values of format_float's property, written by the array route
    block = np.resize(np.array(values), _ARRAY_MIN)
    texts = block_texts(block)
    assert texts == list(map(reference_float, block.tolist()))
    assert [float(t) for t in texts[:len(values)]] == values


def built_ties(rng, per_exponent=64):
    """Doubles whose 17-digit rounding is an exact tie: ``m 2**(k - 17)`` for
    odd m, whose decimal exponent is k, scales by ``10**(16 - k)`` to
    ``m 5**(16 - k) / 2``.  Such m exist for k from -7 to 15; at k = 15
    they are the quarter-integers between 1e15 and 2**51."""
    ties, exponents = [], []
    for k in range(-7, 16):
        scale = Fraction(2) ** (17 - k)
        lo = math.ceil(Fraction(10) ** k * scale)
        hi = min(math.ceil(Fraction(10) ** (k + 1) * scale), 2**53)  # m < hi
        m = 2 * rng.integers(lo // 2, (hi - 1) // 2, size=per_exponent) + 1
        ties.append(np.ldexp(m.astype(float), k - 17))
        exponents.append(np.full(per_exponent, k))
    return np.concatenate(ties), np.concatenate(exponents)


def test_array_route_matches_the_per_value_rule_on_a_corpus():
    rng = np.random.default_rng(2010)
    # random bit patterns: any, then with the exponents the array route takes
    raw = rng.integers(0, 2**64, size=2**16, dtype=np.uint64)
    bits = rng.integers(0, 2**64, size=2**20, dtype=np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF)
    bits |= rng.integers(1023 - 930, 1023 + 931, size=bits.size).astype(np.uint64) << np.uint64(52)
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024),
                             [float(f"1e{e}") for e in range(-323, 309)]])
    neighbours = (powers.view(np.int64)[:, None] + np.arange(-3, 4)).ravel()
    subnormals = rng.integers(1, 2**52, size=4096, dtype=np.uint64)
    integers = np.array([1e16, 1e17]).view(np.int64)[:, None] + np.arange(-300, 301)
    ties, exponents = built_ties(rng)
    _, frac = _scaled(ties, exponents)
    assert (frac == 0.5).all()  # exact ties, which the array route hands on
    signed = np.concatenate([neighbours.view(float), subnormals.view(float),
                             integers.ravel().view(float), ties, [0.0]])
    corpus = np.concatenate([raw.view(float), bits.view(float), signed, -signed])
    corpus = corpus[np.isfinite(corpus)]
    assert corpus.size > 10**6
    assert block_texts(corpus) == list(map(reference_float, corpus.tolist()))


def test_power_table_is_accurate_to_2_pow_minus_104():
    hi, lo, high, low = _pow10_table()
    for p, pair in zip(range(_P0, _P0 + hi.size), zip(hi.tolist(), lo.tolist())):
        exact = Fraction(10) ** p
        assert abs(sum(map(Fraction, pair)) - exact) <= exact / 2**104, p
    assert (high + low == hi).all()


def test_non_finite_error_names_the_first_entry_in_a_large_block():
    inf, nan = float("inf"), float("nan")
    for first, second, name in ((inf, nan, "inf"), (nan, -inf, "nan"), (-inf, inf, "-inf")):
        block = np.linspace(0.0, 1.0, 2 * _ARRAY_MIN).reshape(-1, 4)
        block[100, 3], block[7, 2] = second, first
        with pytest.raises(NumericalFailure, match=f"^non-finite value {name} in the report$"):
            _format_block(block)


def test_non_finite_error_names_the_first_entry_in_c_order():
    inf, nan = float("inf"), float("nan")
    cases = [([[1.0, inf, nan], [inf, 1.0, 1.0]], "inf"),
             ([[nan, 1.0, inf], [nan, -inf, 1.0]], "nan"),
             ([[1.0, 1.0], [-inf, inf]], "-inf")]
    # C order, not memory order: the transpose's first bad entry is inf
    transposed = np.array([[1.0, nan], [inf, 1.0]]).T
    for block, name in [*((np.array(rows), name) for rows, name in cases), (transposed, "inf")]:
        with pytest.raises(NumericalFailure, match=f"^non-finite value {name} in the report$"):
            _format_block(block)
    # a document's floats are one block: the first bad one in document order is named
    doc = {"a": 1.0, "b": np.array([[2.0, inf], [nan, 3.0]]), "c": nan, "d": [-inf]}
    with pytest.raises(NumericalFailure, match="^non-finite value inf in the report$"):
        dumps(doc)


def test_dumps_keeps_percent_signs():
    # floats fill NUL-padded fields of the document's text, and the padding
    # is stripped from the whole text at once; its strings must come out
    # unchanged, NUL included
    doc = {"100%": "a %s b %% c %(x)s", "x": [1.5, "%d", {"%": -0.0}], "y": np.array([0.5])}
    text = dumps(doc)
    assert json.loads(text) == {**doc, "y": [0.5]}
    assert text == json.dumps({**doc, "y": [0.5]}, indent=2) + "\n"
    # next to float blocks of the array route (quarter-integers read the same
    # as json.dumps writes them)
    strings = ["\x00", "%s", "%%", "%(x)s", 'say "%s"', "\u00e9\u20ac\U0001f600", "a\x00%s\x00b"]
    block = np.arange(-_ARRAY_MIN // 2, _ARRAY_MIN // 2).reshape(-1, 8) / 4
    doc = {key: [key, block, {key + "\x00%": 0.5}, -0.0] for key in strings}
    plain = {key: [key, block.tolist(), {key + "\x00%": 0.5}, -0.0] for key in strings}
    assert dumps(doc) == json.dumps(plain, indent=2) + "\n"


def check_report(result):
    """A benchmark-sized analysis written as the per-value rule writes it:
    the report as its list form, every float as ``reference_float`` and
    every CSV row entry by entry."""
    report = result.instants
    text = dumps(result.document)
    assert text == dumps(listed(result.document))
    assert all(t == reference_float(float(t)) for t in float_texts(text))
    table = np.column_stack([report.t, report.qdot, report.total_dissipation, report.sdot,
                             report.ndot, result.verdict.ratios])
    rows = result.csv_text.splitlines()[1:]
    assert rows == [",".join(map(reference_float, row)) for row in table.tolist()]


def test_benchmark_sized_optimal_report_matches_the_per_value_rule():
    # an optimal pump at N = 1024: Xs is at rounding level and two thirds
    # +0.0, so the per-time columns hold many repeats
    doc = dict(BASE_CONFIG, model="diagonal-times-constant",
               params=MODEL_PARAMS["diagonal-times-constant"],
               cycle={"period": 1.0, "samples": 1024})
    result = analyze(ModelConfig.from_dict(doc))
    report = result.instants
    assert result.verdict.is_optimal and report.sdot is not None
    block = np.column_stack(list(result.document["instants"].values()))
    assert block.shape == (1024, 10)
    assert np.unique(block.view(np.uint64)).size < 0.6 * block.size
    check_report(result)


def test_benchmark_sized_generic_report_matches_the_per_value_rule():
    # a generic pump at N = 1024: nearly every per-time double is distinct,
    # so the array route writes most of the report
    doc = dict(BASE_CONFIG, model="random-smooth-path",
               params={"n": 3, "seed": 7, "degree": 3, "amplitude": 1.0},
               cycle={"period": 1.0, "samples": 1024})
    result = analyze(ModelConfig.from_dict(doc))
    report = result.instants
    assert not result.verdict.is_optimal and report.sdot is not None
    block = np.column_stack(list(result.document["instants"].values()))
    assert block.shape == (1024, 10)
    assert np.unique(block.view(np.uint64)).size >= 0.9 * block.size
    check_report(result)


def test_import_leaves_the_tables_unbuilt():
    # a process that writes no large block never builds the digit and power
    # tables, so importing the CLI stays cheap
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import qpump.cli, qpump.report as r; print(r._tables.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0\n")


@pytest.mark.parametrize("tol_opt", [5e-324, 1e300])
def test_extreme_tol_opt_keeps_the_contract(tmp_path, capsys, tol_opt):
    # the verdict's floor nu / tol_opt overflows at a subnormal tol_opt and the
    # saturation limit (tol_opt scale)**2 at a huge one: neither may judge a
    # generic pump optimal by an infinite scale, nor end in a traceback
    doc = dict(BASE_CONFIG, model="random-smooth-path", params={"n": 2, "seed": 3},
               tolerances={"tol_opt": tol_opt})
    out = tmp_path / "r.json"
    assert main(["analyze", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(out.read_text())["optimality"]["is_optimal"] is (tol_opt > 1.0)


def test_exit_2_charge_winding_gap(tmp_path, capsys, monkeypatch):
    # the flux loop's charge misses its winding integers by a few ulp, within
    # the gate's rounding floor at any tol_charge, however far below rounding;
    # a winding count one off is a numerical failure
    for w, samples, tol in ((1, 256, 1e-300), (2, 64, 1e-300), (2, 64, 5e-324)):
        doc = dict(BASE_CONFIG, params={"k_ell": 1.0, "w": w},
                   cycle={"period": 1.0, "samples": samples}, tolerances={"tol_charge": tol})
        cfg = write_config(tmp_path, doc)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "ok.json")]) == 0
    one_off = report.winding_charge
    monkeypatch.setattr(report, "winding_charge", lambda *args: one_off(*args) + 1)
    out = tmp_path / "r.json"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "winding" in err and "tol_charge" in err
    assert not out.exists()


@pytest.mark.parametrize("mu", [0.4999, 0.5, 0.5001, 1.4999, 1.5, 1.5001, float("nan")])
def test_exit_1_mu_at_window_edge(tmp_path, capsys, mu):
    # the exit 1 of a mu at the window's edge: mu must lie inside [lo, hi],
    # edges included, so a mu on or inside the edge runs and any other is
    # rejected by config validation, which names the field
    doc = dict(BASE_CONFIG, energy={"mu": mu, "window": [0.5, 1.5], "samples": 16})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "r.json"
    if 0.5 <= mu <= 1.5:
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        assert main(["instant", "--config", cfg, "--t", "0.25"]) == 0
        return
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 1
    assert "energy.mu" in capsys.readouterr().err
    assert not out.exists()
    assert main(["instant", "--config", cfg, "--t", "0.25"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "energy.mu" in captured.err


# ---------------------------------------------------------------- config fuzz

# every key a model reads, plus one none understands
MODEL_KEYS = {
    "flux-loop": ["k_ell", "w"],
    "perturbed-flux-loop": ["k_ell", "delta", "w"],
    "diagonal-times-constant": ["n", "s0_seed", "w1", "w2", "w3", "a1_1", "b2_2", "a3_1"],
    "random-smooth-path": ["n", "seed", "degree", "amplitude"],
}
HOSTILE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -1.0, 0.5, 64.0, 65.0, 1e-300, 5e-324, 1e6, 1e300, 1e308, 2.0**63]),
    st.integers(-8, 300),
    st.integers(0, 2**70),
)
PARAM_VALUE = st.one_of(HOSTILE, st.booleans(), st.none(), st.text(max_size=2))
# hostile grid sizes stay at most 256 nodes
SAMPLES_VALUE = st.one_of(st.integers(-8, 256), st.floats(allow_nan=True, allow_infinity=True),
                          st.booleans(), st.none(), st.text(max_size=2))


def pick(draw, benign, hostile=PARAM_VALUE, odds=10):
    """A draw from ``benign``, or about one time in ``odds`` from ``hostile``."""
    return draw(hostile if draw(st.integers(1, odds)) == odds else benign)


@st.composite
def config_docs(draw):
    """ModelConfig dicts with hostile params, period, beta, mu, window and
    tolerances mixed into well-formed ones; cycle.samples at most 256."""
    model = pick(draw, st.sampled_from(sorted(MODEL_KEYS)))
    keys = MODEL_KEYS.get(model, ["k_ell"]) + ["zz"]
    params = {k: v for k, v in {"k_ell": 1.0, "delta": 0.2}.items() if k in keys}
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        params[key] = pick(draw, st.integers(0, 4) | st.floats(-2.0, 2.0), odds=3)
    doc = {
        "model": model,
        "params": params,
        "cycle": {"period": pick(draw, st.floats(0.5, 2.0)),
                  "samples": pick(draw, st.sampled_from([8, 16, 64, 256]), SAMPLES_VALUE)},
        "energy": {"mu": pick(draw, st.floats(0.8, 1.2)),
                   "window": pick(draw, st.just([0.5, 1.5]), st.lists(HOSTILE, max_size=3)),
                   "samples": 16},
    }
    if draw(st.booleans()):
        doc["beta"] = pick(draw, st.floats(1.0, 50.0))
    if draw(st.booleans()):
        names = ["tol_unitary", "tol_herm", "tol_opt", "tol_charge", "tol_x"]
        doc["tolerances"] = {name: pick(draw, st.floats(1e-12, 1e-2))
                             for name in draw(st.lists(st.sampled_from(names), max_size=2))}
    return doc


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", ["analyze", "instant"])
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200000 + b"]" * 200000],
                         ids=["not-utf8", "nested-200000"])
def test_exit_1_hostile_config_file(tmp_path, command, content):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(content)
    extra = ["--out", str(tmp_path / "r.json")] if command == "analyze" else ["--t", "0.0"]
    code, out, err = run_cli([command, "--config", str(cfg), *extra])
    assert code == 1 and out == "" and "config" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["analyze", "instant"])
@pytest.mark.parametrize("doc, field", [
    ([], "config"),
    ({k: v for k, v in BASE_CONFIG.items() if k != "cycle"}, "cycle"),
    (dict(BASE_CONFIG, params=[]), "params"),
    (dict(BASE_CONFIG, cycle=[]), "cycle"),
    (dict(BASE_CONFIG, cycle={"period": 1.0, "samples": 256, "x": 1}), "cycle.x"),
    (dict(BASE_CONFIG, energy={"mu": 1.0, "window": [1.5, 0.5], "samples": 16}), "energy.window"),
    (dict(BASE_CONFIG, tolerances=[]), "tolerances"),
    (dict(BASE_CONFIG, model=5), "model"),
], ids=["top-level-array", "no-cycle", "params-array", "cycle-array", "cycle-extra-key",
        "window-reversed", "tolerances-array", "model-not-a-string"])
def test_exit_1_config_shape_names_the_field(tmp_path, command, doc, field):
    cfg = write_config(tmp_path, doc)
    report = tmp_path / "r.json"
    extra = ["--out", str(report)] if command == "analyze" else ["--t", "0.0"]
    code, out, err = run_cli([command, "--config", cfg, *extra])
    assert code == 1 and out == "" and "Traceback" not in err
    assert f"config error: {field}: " in err
    assert not report.exists()


@given(doc=config_docs(), t=st.one_of(st.floats(0.0, 0.5), HOSTILE))
@example(doc=dict(BASE_CONFIG, model="random-smooth-path", params={"n": 2**70}), t=0.2)
@example(doc=dict(BASE_CONFIG, model="diagonal-times-constant", params={"n": 1e308}), t=0.2)
@example(doc=dict(BASE_CONFIG, cycle={"period": 5e-324, "samples": 8}), t=0.0)
@example(doc=dict(BASE_CONFIG, cycle={"period": 10**400, "samples": 8}), t=0.0)
@settings(max_examples=200, deadline=None)
def test_config_fuzz_keeps_the_exit_code_contract(doc, t):
    with tempfile.TemporaryDirectory() as work:
        cfg = os.path.join(work, "config.json")
        with open(cfg, "w") as handle:
            json.dump(doc, handle)  # NaN and inf as the JSON extensions json.loads reads
        out, csv = os.path.join(work, "r.json"), os.path.join(work, "r.csv")
        code, _, err = run_cli(["analyze", "--config", cfg, "--out", out, "--csv", csv])
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if code == 0:
            with open(out) as handle:
                strict_json(handle.read())
        else:
            assert not os.path.exists(out) and not os.path.exists(csv)
        code, text, err = run_cli(["instant", "--config", cfg, f"--t={t!r}"])
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if code == 0:
            strict_json(text)
        else:
            assert text == ""


# ---------------------------------------------------------------- parser reuse


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_main_repeats_byte_identically_around_other_commands(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    instant = ["instant", "--config", cfg, "--t", "0.25"]
    first = run_cli(instant)
    assert first[0] == 0 and first[2] == ""
    assert run_cli(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")])[0] == 0
    code, out, err = run_cli(["instant", "--config", cfg])
    assert code == 1 and out == ""
    assert err.startswith("usage: pump instant") and "--t" in err
    assert run_cli(instant) == first


def test_help_repeats_identically():
    first = run_cli(["--help"])
    assert first[0] == 0 and first[1].startswith("usage: pump")
    assert run_cli(["--help"]) == first


def test_rebound_names_are_called_after_the_parser_exists(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, BASE_CONFIG)
    instant = ["instant", "--config", cfg, "--t", "0.25"]
    assert run_cli(instant)[0] == 0  # the parser exists from here on
    seen = []

    def fake_document(config, t):
        seen.append(t)
        return {"t": t}

    monkeypatch.setattr(cli, "instant_document", fake_document)
    assert run_cli(instant) == (0, dumps({"t": 0.25}), "")
    monkeypatch.setattr(cli, "dumps", lambda doc: "dumped\n")
    assert run_cli(instant) == (0, "dumped\n", "")
    assert seen == [0.25, 0.25]


def test_module_entry_point_matches_in_process_main(tmp_path):
    """``python -m qpump.cli``, one process per call as the installed ``pump``
    script runs, writes the bytes and exit code of in-process ``main``."""
    cfg = write_config(tmp_path, BASE_CONFIG)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["instant", "--config", cfg, "--t", "0.25"], ["instant", "--config", cfg]):
        code, out, err = run_cli(argv)
        proc = subprocess.run([sys.executable, "-m", "qpump.cli", *argv],
                              capture_output=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out.encode(), err.encode())


#: The exit code and stderr prefix of each error class of qpump.errors, and of OSError.
EXIT_CODES = {
    "ConfigError": (1, "config error"), "NumericalFailure": (2, "numerical failure"),
    "PumpError": (2, "error"), "OSError": (3, "i/o failure"),
}


def exit_of(error):
    """What ``pump models`` returns and writes when its handler raises ``error``."""
    def fail(args):
        raise error

    # the parser binds each handler when it is built: build it afresh around the fake
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_cmd_models", fail)
        cli._build_parser.cache_clear()
        try:
            return run_cli(["models"])
        finally:
            cli._build_parser.cache_clear()


@pytest.mark.parametrize("name", EXIT_CODES)
def test_exit_code_of_each_error_class(name):
    classes = {n: c for n, c in vars(errors).items()
               if isinstance(c, type) and issubclass(c, errors.PumpError)}
    assert set(classes) | {"OSError"} == set(EXIT_CODES)  # a new class needs its exit code
    cls = classes.get(name, OSError)
    error = cls("field", "why") if issubclass(cls, errors.ConfigError) else cls("why")
    exit_code, prefix = EXIT_CODES[name]
    assert exit_of(error) == (exit_code, "", f"pump: {prefix}: {error}\n")


FLUX = {"k_ell": 1.0}
GRID8 = CycleGrid(1.0, 8)
#: A model whose rows swap between grid nodes, so their overlap vanishes.
SWAP = PumpModel("swap", 2, 1.0, (0.5, 1.5), {}, lambda theta, energy: np.broadcast_to(
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), (theta.shape[0], 2, 2)), 0.0)


def winding_on_grid8(model, is_optimal, samples=None):
    """``winding_charge`` of ``model`` at mu = 1 on 8 nodes, given a verdict."""
    verdict = SimpleNamespace(is_optimal=is_optimal, max_offdiag_ratio=0.5)
    samples = model.sample(model.grid(8).times, 1.0) if samples is None else samples
    return winding_charge(model, 1.0, samples, verdict)


#: Each guard of the package's raise sites a call reaches, the class it raises and
#: its message: a site raises the class of its exit code, not a subclass.
RAISE_SITES = {
    "mu-outside-window": (lambda: build("flux-loop", FLUX, mu=2.0), errors.ConfigError,
                          "energy.mu: mu=2.0 must lie inside window [0.5, 1.5]"),
    "unknown-model": (lambda: build("no-such-pump"), errors.ConfigError,
                      "model: unknown model 'no-such-pump'; built-ins: diagonal-times-constant, "
                      "flux-loop, perturbed-flux-loop, random-smooth-path"),
    "missing-param": (lambda: build("flux-loop"), errors.ConfigError,
                      "params.k_ell: model 'flux-loop' requires parameter 'k_ell'"),
    "param-not-real": (lambda: build("flux-loop", {"k_ell": True}), errors.ConfigError,
                       "params.k_ell: must be a real number"),
    "param-not-finite": (lambda: build("flux-loop", {"k_ell": math.inf}), errors.ConfigError,
                         "params.k_ell: must be finite"),
    "param-not-integer": (lambda: build("flux-loop", {"k_ell": 1.0, "w": 0.5}),
                          errors.ConfigError, "params.w: must be an integer, got 0.5"),
    "param-below-minimum": (lambda: build("flux-loop", {"k_ell": -0.5}), errors.ConfigError,
                            "params.k_ell: must be >= 0.0, got -0.5"),
    "param-above-maximum": (lambda: build("random-smooth-path", {"n": 65}),
                            errors.ConfigError, "params.n: must be <= 64, got 65"),
    "unknown-param": (lambda: build("flux-loop", {"k_ell": 1.0, "wobble": 2.0}),
                      errors.ConfigError,
                      "params.wobble: model 'flux-loop' does not understand parameter 'wobble'"),
    "phase-step-over-pi": (lambda: winding_on_grid8(build("flux-loop", {"k_ell": 0.0, "w": 5}),
                                                    True),
                           NumericalFailure, "row 1 advances 3.927 rad across one grid interval "
                           "(limit pi); refine the grid"),
    "row-overlap-vanishes": (lambda: winding_on_grid8(SWAP, True, np.tile(np.eye(2), (8, 1, 1))),
                             NumericalFailure,
                             "row 1 overlap vanishes across one grid interval; refine the grid"),
    "derivative-of-too-few-samples": (lambda: spectral_derivative(np.zeros(4), GRID8),
                                      errors.PumpError, "got 4 samples for a grid of 8 nodes"),
    "integral-of-too-few-samples": (lambda: cycle_integral(np.zeros(4), GRID8),
                                    errors.PumpError, "got 4 samples for a grid of 8 nodes"),
    "singular-matrix": (lambda: unitarize(np.diag([1.0, 0.0])), errors.PumpError,
                        "smallest singular value 0.000e+00 <= 1e-12; no unitary polar factor"),
    "winding-of-non-optimal-verdict": (lambda: winding_on_grid8(build("flux-loop", FLUX), False),
                                       errors.PumpError,
                                       "max off-diagonal ratio 5.000e-01 fails the optimality "
                                       "verdict; winding numbers are defined for optimal pumps "
                                       "only"),
    "infeasible-target": (lambda: greedy_minimize(linear_dispersion(2.0, 64), -1.0),
                          errors.PumpError,
                          "target Qdot -1.0 outside feasible range [0, 0.3183098861837907]"),
}


@pytest.mark.parametrize("site", RAISE_SITES)
def test_each_raise_site_raises_its_exit_codes_class(site):
    call, cls, message = RAISE_SITES[site]
    with pytest.raises(errors.PumpError) as err:
        call()
    assert type(err.value) is cls and str(err.value) == message
    exit_code, prefix = EXIT_CODES[cls.__name__]
    assert exit_of(err.value) == (exit_code, "", f"pump: {prefix}: {message}\n")
