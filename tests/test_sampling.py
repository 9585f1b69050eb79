"""Sampling budget: how often an analysis evaluates the model, and where.

Each call of a model's batched ``matrix_fn(theta, E)`` is recorded, so the
tests count grid nodes, not Python calls.  ``analyze`` samples S(t, mu)
once on the cycle grid and shares it, and the winding count of an
optimal pump adds the half-step midpoints.  Every model declares its
time delay (``k_ell/mu`` or 0 on the built-ins), so none samples an
energy other than mu.  The optimality verdict judges the
cycle once, and the winding count follows from it.
"""

import dataclasses
import json
import sys
from collections import Counter

import numpy as np
import pytest

import qpump.models
import qpump.optimal
import qpump.report as report
import qpump.transport as transport
from qpump.cli import main
from qpump.errors import NotOptimal
from qpump.matcore import CycleGrid
from qpump.models import ModelConfig
from qpump.optimal import optimality_verdict
from qpump.shift import energy_shift_cycle, sample_cycle
from qpump.transport import instant_report, winding_charge

SAMPLES = 64
MU = 1.0
WINDOW = (0.5, 1.5)

# (model, params, evaluations per node of analyze, optimal?)
PUMPS = [
    ("flux-loop", {"k_ell": 1.0, "w": 2}, 2, True),
    ("diagonal-times-constant", {"n": 3, "w1": 1, "w2": -1, "a1_1": 0.2, "s0_seed": 4}, 2, True),
    ("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.2}, 1, False),
    ("random-smooth-path", {"n": 3, "seed": 5, "degree": 2}, 1, False),
]


def document(name, params):
    return {
        "model": name,
        "params": params,
        "cycle": {"period": 1.0, "samples": SAMPLES},
        "energy": {"mu": MU, "window": list(WINDOW), "samples": 16},
        "beta": 20.0,
    }


def config(name, params):
    return ModelConfig.from_dict(document(name, params))


class Recorder(list):
    """Calls of a config's model ``matrix_fn`` as (cycle angles, energy) pairs:
    ``recorded(cfg)`` is ``cfg`` with its pump's ``matrix_fn`` wrapped to record them."""

    def __call__(self, cfg):
        model = cfg.pump

        def matrix_fn(theta, energy):
            self.append((np.array(theta), energy))
            return model.matrix_fn(theta, energy)

        return dataclasses.replace(cfg, pump=dataclasses.replace(model, matrix_fn=matrix_fn))


@pytest.fixture
def recorded():
    return Recorder()


@pytest.mark.parametrize("name,params,per_node,optimal", PUMPS, ids=[p[0] for p in PUMPS])
def test_analyze_eval_budget(recorded, name, params, per_node, optimal):
    # ``per_node`` evaluations per grid node in all: the cycle grid once at mu
    # (the declared delay samples nothing), and the winding's midpoints the
    # only nodes off it, exactly when the pump is ``optimal``
    result = report.analyze(recorded(config(name, params)))
    assert result.verdict.is_optimal == optimal
    assert sum(len(theta) for theta, _ in recorded) == per_node * SAMPLES

    grid = CycleGrid(1.0, SAMPLES)  # period 1: the angles are 2 pi times the grid's times
    on_grid = Counter(energy for theta, energy in recorded
                      if np.array_equal(theta, 2 * np.pi * grid.times))
    assert on_grid == Counter([MU])
    off_grid = [(theta, energy) for theta, energy in recorded
                if not np.array_equal(theta, 2 * np.pi * grid.times)]
    if optimal:
        [(theta, energy)] = off_grid  # the winding count's half-step midpoints
        assert energy == MU
        np.testing.assert_array_equal(theta, 2 * np.pi * (grid.times + 0.5 * grid.dt))
    else:
        assert off_grid == []


@pytest.mark.parametrize("name,params", [p[:2] for p in PUMPS], ids=[p[0] for p in PUMPS])
def test_each_command_builds_the_model_once(monkeypatch, capsys, tmp_path, name, params):
    # the config is parsed once and carries the model it describes
    builds = []
    build = qpump.models.build

    def counting_build(*args, **kwargs):
        builds.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(qpump.models, "build", counting_build)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document(name, params)))
    for argv in (["analyze", "--config", str(path), "--out", str(tmp_path / "r.json")],
                 ["instant", "--config", str(path), "--t", "0.3"]):
        builds.clear()
        assert main(argv) == 0, capsys.readouterr().err
        assert builds == [name], argv


@pytest.mark.parametrize("name,params", [p[:2] for p in PUMPS], ids=[p[0] for p in PUMPS])
def test_instant_eval_budget(recorded, name, params):
    # the offset grid for the energy shift, and nothing for the declared delay
    report.instant_document(recorded(config(name, params)), 0.3)
    assert sum(len(theta) for theta, _ in recorded) == SAMPLES
    assert len(recorded) == 1  # one batched call


@pytest.mark.parametrize("name,params", [p[:2] for p in PUMPS], ids=[p[0] for p in PUMPS])
def test_analyze_derives_the_per_channel_table_once(monkeypatch, name, params):
    # instant_report derives every column in one pass and the verdict reads it
    calls = Counter()
    for attr in ("_square_diagonal", "instantaneous_current"):
        original = getattr(transport, attr)

        def counting(e, attr=attr, original=original):
            calls[attr] += 1
            return original(e)

        monkeypatch.setattr(transport, attr, counting)
    cfg = config(name, params)
    assert cfg.beta is not None
    report.analyze(cfg)
    assert calls == {"_square_diagonal": 1, "instantaneous_current": 1}


@pytest.fixture
def ratio_calls(monkeypatch):
    """Calls of ``offdiag_ratio``, through every qpump module that binds it."""
    calls = []
    original = qpump.optimal.offdiag_ratio

    def counting(e, scale):
        calls.append(len(e))
        return original(e, scale)

    for module in [m for name, m in sys.modules.items() if name.startswith("qpump")]:
        if vars(module).get("offdiag_ratio") is original:
            monkeypatch.setattr(module, "offdiag_ratio", counting)
    return calls


@pytest.mark.parametrize("name,params", [p[:2] for p in PUMPS], ids=[p[0] for p in PUMPS])
def test_analyze_judges_optimality_once(ratio_calls, name, params):
    result = report.analyze(config(name, params))
    assert ratio_calls == [SAMPLES]  # one pass over the whole stack
    ratios = result.verdict.ratios
    assert ratios.shape == (SAMPLES,)
    assert float(np.max(ratios)) == result.verdict.max_offdiag_ratio


def test_winding_of_a_non_optimal_verdict_samples_nothing(recorded):
    model = recorded(config("perturbed-flux-loop", {"k_ell": 1.0, "delta": 0.2})).pump
    grid = CycleGrid(1.0, SAMPLES)
    samples = sample_cycle(model, MU, grid)
    shifts, _ = energy_shift_cycle(samples, grid)
    verdict = optimality_verdict(shifts, samples, instant_report(shifts, grid.times), grid)
    assert not verdict.is_optimal
    recorded.clear()
    with pytest.raises(NotOptimal):
        winding_charge(model, MU, grid, samples, verdict)
    assert recorded == []
