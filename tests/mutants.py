"""Replayable mutants: faults planted in a copy of ``src/`` that named tests must catch.

Each entry of ``MUTANTS`` gives the file under ``src/``, the exact text the
plant replaces (it occurs once under ``src/``), the text put in its place, the
tests expected to fail on it, and the change that planted it.

    python tests/mutants.py [name ...]

copies ``src/`` to a temporary directory, applies one mutant (each in turn,
or only the named ones), runs its tests against the copy with
``-x -q -p no:cacheprovider`` and prints whether it was killed or survived,
then the kill rate; the exit code is 0 when every mutant was killed.  pytest
does not collect this file; ``tests/test_mutants.py`` checks that every old
text still occurs exactly once, so a plant cannot go stale unnoticed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]
    origin: str  # the change that planted it


_POLICY = "one tolerance policy (spec 1.2)"
_LAWS = "tests/test_laws.py::"

MUTANTS = [
    Mutant("per-node-ratio-scale", "qpump/optimal.py",
           "    ratios = offdiag_ratio(shifts, scale)\n",
           "    ratios = offdiag_ratio(shifts, frobenius_norm(shifts))\n",
           (_LAWS + "test_optimal_pumps_meet_every_criterion",
            "tests/test_acceptance.py::test_criterion_09_optimality_criteria_equivalence"),
           _POLICY),
    Mutant("hermiticity-scale-without-floor", "qpump/shift.py",
           "    defect /= cycle_scale(ds, grid, HARD_HERM_LIMIT)\n",
           "    defect /= frobenius_norm(ds).max()\n",
           (_LAWS + "test_optimal_pumps_meet_every_criterion",),
           _POLICY),
    Mutant("absolute-bathtub-margin", "qpump/bathtub.py",
           "        violated = gap[gap > margin]\n",
           "        violated = gap[gap > 1e-12]\n",
           ("tests/test_bathtub.py::test_verify_bound_margin_is_relative_to_the_grid",),
           _POLICY),
    Mutant("no-charge-gate-slack", "qpump/report.py",
           "        slack = grid.period * verdict.scale * verdict.max_offdiag_ratio**2\n",
           "        slack = 0.0\n",
           (_LAWS + "test_optimality_criteria_agree_at_every_tol_opt",),
           _POLICY),
    Mutant("fixed-decomposition-limit", "qpump/optimal.py",
           "diagonal_decomposition(samples, tol_opt) if is_optimal",
           "diagonal_decomposition(samples, 1e-8) if is_optimal",
           (_LAWS + "test_optimality_criteria_agree_at_every_tol_opt",),
           _POLICY),
    Mutant("saturation-without-verdict-scale", "qpump/optimal.py",
           "tol_opt * scale * (tol_opt * scale) / (4.0 * np.pi))",
           "tol_opt**2 * instants.total_dissipation.max(axis=0))",
           (_LAWS + "test_optimal_pumps_meet_every_criterion",),
           _POLICY),
]


def killed(mutant: Mutant) -> bool:
    """Whether the tests of ``mutant`` fail on a copy of ``src/`` that carries it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: its old text does not occur once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        # the copy comes first on the path, ahead of the ini's "src"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", *mutant.tests],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    if proc.returncode not in (0, 1, 2):  # 2: a collection error, which kills too
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}")
    return proc.returncode != 0


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    dead = 0
    for mutant in chosen:
        is_killed = killed(mutant)
        dead += is_killed
        print(f"{'killed' if is_killed else 'SURVIVED':9} {mutant.name}", flush=True)
    print(f"kill rate: {dead}/{len(chosen)}")
    return 0 if dead == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
