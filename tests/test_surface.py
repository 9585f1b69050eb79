"""The package front: README's library example runs against it, and the
benchmark's span tracer still reaches the functions it counts."""

import re
import sys
from pathlib import Path

import qpump
import qpump.cli  # noqa: F401  (the tracer walks every layer, cli included)
from qpump import models, report, shift

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_use_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "import qpump as qp" in block
    exec(compile(block, "README.md", "exec"), {})


def test_tracer_wraps_and_restores_the_counted_functions():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    originals = {
        "eval": models.PumpModel.__dict__["eval"],
        "energy_shift_at": shift.energy_shift_at,
        "sample_cycle": shift.sample_cycle,
        "report.sample_cycle": report.sample_cycle,
    }
    tracer = Tracer()
    tracer.install(qpump)
    try:
        assert models.PumpModel.__dict__["eval"] is not originals["eval"]
        assert shift.energy_shift_at is not originals["energy_shift_at"]
        assert shift.sample_cycle is not originals["sample_cycle"]
        assert report.sample_cycle is shift.sample_cycle
        model = qpump.build("flux-loop", {"k_ell": 1.0})
        grid = qpump.CycleGrid(1.0, 8)
        model.eval(0.0, 1.0)
        shift.energy_shift_at(model, 0.0, 1.0, grid)
        shift.sample_cycle(model, 1.0, grid)
        for name in ("models.eval", "shift.energy_shift_at", "shift.sample_cycle"):
            assert tracer.stat(name).calls == 1, name
    finally:
        tracer.uninstall()
    assert models.PumpModel.__dict__["eval"] is originals["eval"]
    assert shift.energy_shift_at is originals["energy_shift_at"]
    assert shift.sample_cycle is originals["sample_cycle"]
    assert report.sample_cycle is originals["report.sample_cycle"]
