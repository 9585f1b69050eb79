"""CLI differential: every call of a corpus gives the same bytes in two checkouts.

    python tests/differential.py BASE HEAD

runs each argv of the corpus as its own ``python -m qpump.cli`` process with
``PYTHONPATH=<checkout>/src``, first in BASE and then in HEAD, in one shared
work directory, so the paths a message names agree.  It compares the exit code,
stdout, stderr and the bytes of every file named after ``--out`` or ``--csv``
(a file that was not written counts as a value), prints each call that
differs and the count, and exits 1 when any does.

The corpus is the calls of ``perfbench/workloads.make_ops`` for all four
workloads at seeds 1-4, then a fault corpus: configuration faults, numerical
edges and one configuration that runs, each under ``analyze --csv`` and under
``instant --t 0.25``, every ``pump bathtub`` flag fault, and ``pump models``.  pytest does not collect
this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4)


def _config(model="flux-loop", params=None, period=1.0, samples=64, mu=1.0):
    return {"model": model, "params": {"k_ell": 1.0} if params is None else params,
            "cycle": {"period": period, "samples": samples},
            "energy": {"mu": mu, "window": [0.5, 1.5]}}


#: Configurations that fail or sit at a numerical edge, and one that runs, by name.
CONFIGS = {
    "flux-loop": _config(),
    "unknown-model": _config(model="no-such-model"),
    "missing-param": _config(params={}),
    "n-65": _config(model="diagonal-times-constant", params={"n": 65}),
    "bool-param": _config(params={"k_ell": True}),
    "unknown-param": _config(params={"k_ell": 1.0, "zz": 1.0}),
    "mu-outside-window": _config(mu=1.6),
    "k_ell-1.7e308-mu-1.5": _config(params={"k_ell": 1.7e308}, mu=1.5),  # non-finite S
    "k_ell-1e308": _config(params={"k_ell": 1e308}),  # a non-finite report
    "period-1e-300-N-8": _config(period=1e-300, samples=8),
    "flux-w-40-N-64": _config(params={"k_ell": 1.0, "w": 40}),
    "model-not-a-string": _config(model=5),
    "rsp-N-32-under-resolved": _config(model="random-smooth-path", samples=32,
                                       params={"n": 2, "seed": 3, "degree": 3, "amplitude": 2.0}),
}

_BATHTUB = {"dispersion": "linear", "kmax": "2", "nk": "100", "mu": "1", "trials": "3",
            "seed": "0"}

#: ``pump bathtub`` flag faults, each as the flags it changes (None drops the flag).
BATHTUB_FAULTS = [
    {"dispersion": "cubic"}, {"seed": None},
    {"nk": "0"}, {"nk": "64.7"}, {"nk": str(10**13)},
    {"kmax": "nan"}, {"kmax": "inf"}, {"kmax": "-inf"}, {"kmax": "0"}, {"kmax": "x"},
    {"dispersion": "quadratic", "kmax": "1e200", "nk": "64", "trials": "1"},
    {"kmax": "1e308", "nk": "64", "mu": "1e307", "trials": "1"},
    {"kmax": "1.5e154", "nk": "64", "mu": "1.5e154", "trials": "1"},
    {"trials": "0"}, {"trials": "2.0"},
    {"seed": "-1"}, {"seed": str(2**64 - 2)}, {"seed": str(2**64)}, {"seed": str(2**70)},
    {"mu": "nan"}, {"mu": "inf"}, {"mu": "-inf"}, {"mu": "0"}, {"mu": "3"},
    {"nk": "0", "kmax": "nan"}, {"trials": "0", "mu": "nan"}, {"seed": "-1", "mu": "0"},
]


def corpus(workdir: str) -> list[tuple[str, ...]]:
    """Every argv to compare; the configurations it names are written to ``workdir``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, make_ops

    calls = [op.argv for name in WORKLOADS for seed in SEEDS
             for op in make_ops(name, seed, os.path.join(workdir, f"{name}-{seed}"))]
    for name, doc in CONFIGS.items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out = os.path.join(workdir, name)
        calls.append(("analyze", "--config", path, "--out", f"{out}.out.json",
                      "--csv", f"{out}.csv"))
        calls.append(("instant", "--config", path, "--t", "0.25"))
    for fault in BATHTUB_FAULTS:
        flags = {**_BATHTUB, **fault}
        calls.append(("bathtub",) + tuple(f"--{key}={value}" for key, value in flags.items()
                                          if value is not None))
    calls.append(("models",))
    return calls


def outputs(argv: tuple[str, ...]) -> list[str]:
    return [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in ("--out", "--csv")]


def run(checkout: Path, argv: tuple[str, ...]) -> tuple:
    """Exit code, stdout, stderr and each output file's bytes (None: not written),
    which are then removed, of one call in ``checkout``."""
    proc = subprocess.run([sys.executable, "-m", "qpump.cli", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(checkout / "src")))
    files = []
    for path in map(Path, outputs(argv)):
        files.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return proc.returncode, proc.stdout, proc.stderr, *files


def main(base: str, head: str) -> int:
    checkouts = Path(base).resolve(), Path(head).resolve()
    differences = 0
    with tempfile.TemporaryDirectory() as workdir:
        calls = corpus(workdir)
        for argv in calls:
            got = [run(checkout, argv) for checkout in checkouts]
            if got[0] != got[1]:
                differences += 1
                fields = ["exit code", "stdout", "stderr", *outputs(argv)]
                changed = [f for f, a, b in zip(fields, *got) if a != b]
                print(f"DIFFERS ({', '.join(changed)}): pump {' '.join(argv)}", flush=True)
    print(f"{differences} of {len(calls)} calls differ")
    return 1 if differences else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__.split("\n\n")[1])
    sys.exit(main(*sys.argv[1:]))
