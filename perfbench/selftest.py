"""Self-test of the benchmark; a short pass over every workload.

    python3 perfbench/selftest.py

Asserts that
* every end-to-end and per-layer metric named in BENCHMARK.json is
  printed with its unit, and every call of a short run passes its checks;
* ``models.eval.calls`` and ``shift.sample_cycle.calls`` repeat exactly
  across two traced runs of one seed;
* another seed changes the generated inputs but not ``models.eval.per_node``;
* reports written under the benchmark, traced or not, are byte-identical
  to those of the ``pump`` command run in a separate process.
Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import run
from workloads import WORKLOADS, make_ops

BENCHMARK = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
SHORT_TRACE_CALLS = 2


def check_metrics(printed, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: entry["unit"] for name, entry in printed.items()}
    assert got == want, f"printed metrics {got} differ from BENCHMARK.json {want}"


def short_run(workload, spec, trace):
    argv = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, f"{argv} exited {proc.returncode}: {proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    check_metrics(result["metrics"], spec["per_layer" if trace else "end_to_end"])
    return proc.stdout


def inputs(workload, seed):
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        texts = []
        for op in make_ops(workload, seed, workdir):
            texts.append([a for a in op.argv if not a.startswith(workdir)])
            for path in (a for a in op.argv if a.endswith(".json") and a != op.out):
                with open(path, encoding="utf-8") as handle:
                    texts.append(handle.read())
        return texts


def traced_counts(workload, seed):
    checker, metrics, _, _ = run.trace(workload, seed, SHORT_TRACE_CALLS)
    assert checker.failed == 0, checker.errors
    return {name: metrics[name]["value"] for name in
            ("models.eval.calls", "shift.sample_cycle.calls", "models.eval.per_node")}


def outside_output(op):
    """Output of the same call made by ``python -m qpump.cli`` in a new process."""
    argv = list(op.argv)
    if op.out is not None:
        argv[argv.index(op.out)] = op.out + ".outside"
    env = dict(os.environ, PYTHONPATH=run.SRC)
    proc = subprocess.run([sys.executable, "-m", "qpump.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    if op.out is None:
        return proc.stdout
    with open(op.out + ".outside", encoding="utf-8") as handle:
        return handle.read()


def main() -> int:
    with open(BENCHMARK, encoding="utf-8") as handle:
        spec = json.load(handle)
    os.makedirs(run.WORK, exist_ok=True)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        text = short_run(workload, spec, trace=0)
        assert "fail_ratio" in text and "op_tail_ms" in text
        if workload == "bathtub-oracle":
            assert "modes_per_s" in text
        short_run(workload, spec, trace=1)

        first, again = traced_counts(workload, 1), traced_counts(workload, 1)
        assert first == again, f"{workload}: counts differ across runs of one seed"
        other = traced_counts(workload, 2)
        assert inputs(workload, 1) != inputs(workload, 2), f"{workload}: seed ignored"
        assert other["models.eval.per_node"] == first["models.eval.per_node"], workload

        qpump = run.import_qpump()
        op = make_ops(workload, 1, os.path.join(run.WORK, workload))[0]
        _, inside, error = run.call(qpump, op)
        assert error is None, error
        assert inside == outside_output(op), f"{workload}: report differs outside the benchmark"
        print(f"ok {workload}: {first}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
