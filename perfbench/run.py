"""Benchmark of the ``pump`` command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client calls ``qpump.cli.main([...])`` in a closed loop on a single
thread: each call starts when the previous one has returned.  BLAS and
OpenMP are pinned to one thread.  The inputs of a run come from
``--seed`` alone (see ``workloads.py``); every output is checked, and
repeated identical calls must return identical bytes.

``--trace 0`` times the calls for ``--seconds`` seconds of busy wall time
and reports the end-to-end metrics, converted to reference time by the
machine-speed kernel of ``pace.py``.  ``--trace 1`` runs a fixed number of
calls (``TRACE_CALLS``, sized to take about as long as a timed run),
each first untraced and then under the span tracer of ``tracer.py``,
and reports the per-layer metrics; the spans are written to
``perfbench/.work/spans-<workload>.tsv``.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout that holds this
file, never from anywhere else; without it the run fails with a non-zero
exit code.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is first imported

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from time import perf_counter

from pace import NOMINAL_S, STRETCH_S, Pace
from tracer import Tracer
from workloads import WORKLOADS, make_ops, strict_loads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORK = os.path.join(HERE, ".work")

#: Set-ups per timed run: at least this many, and at least SETUP_MIN_S of
#: them in wall time (cheap set-ups are repeated more); setup_s is their median.
SETUP_REPEATS = 7
SETUP_MIN_S = 2.0

#: Calls per traced run (whole rounds of each workload).  The count is
#: fixed rather than timed, so call counts repeat exactly for a seed.
TRACE_CALLS = {
    "optimal-cycle": 14,
    "generic-cycle": 14,
    "instant-queries": 60,
    "bathtub-oracle": 30,
}

#: Failure messages kept for standard error.
MAX_ERRORS = 20


def import_qpump():
    """Import ``qpump`` afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "qpump" or n.startswith("qpump.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qpump
    import qpump.cli  # noqa: F401  (bound as an attribute of the package)

    if not os.path.abspath(qpump.__file__).startswith(SRC + os.sep):
        raise ImportError(f"qpump imported from {qpump.__file__}, not from {SRC}")
    return qpump


def call(qpump, op):
    """Run one CLI call.  Returns (seconds, output text, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qpump.cli.main(list(op.argv))
    except (Exception, SystemExit) as exc:  # a traceback breaks the CLI contract
        return perf_counter() - start, None, f"raised {exc!r}"
    seconds = perf_counter() - start
    if code != 0:
        return seconds, None, f"exit code {code}: {err.getvalue().strip()}"
    if op.out is None:
        return seconds, out.getvalue(), None
    with open(op.out, encoding="utf-8") as handle:
        return seconds, handle.read(), None


class Checker:
    """Counts attempted and failed calls; remembers the first output of
    each distinct call so repeats can be compared byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first: dict[str, str] = {}

    def __call__(self, op, text, error) -> None:
        self.attempted += 1
        if error is None:
            try:
                error = op.check(strict_loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                error = f"malformed output: {exc}"
        if error is None and self._first.setdefault(op.key, text) != text:
            error = "output differs from an earlier identical call"
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{op.label} {' '.join(op.argv)}: {error}")


def set_up(workload, seed, checker):
    """Import, generate the inputs, run one warm-up call.  Timed by callers."""
    qpump = import_qpump()
    ops = make_ops(workload, seed, os.path.join(WORK, workload))
    _, text, error = call(qpump, ops[0])
    checker(ops[0], text, error)
    return qpump, ops


def tail(times):
    """Highest order statistic with at least ten samples above it, and its
    percentile.  Below 21 samples that statistic lies under the median, so
    the median itself is returned (as the 50th percentile)."""
    ranked = sorted(times)
    if len(ranked) < 21:
        return statistics.median(ranked), 50.0
    return ranked[-11], 100.0 * (len(ranked) - 10) / len(ranked)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics, in reference time (see ``pace.py``)."""
    checker = Checker()
    pace = Pace()
    setups, setups_wall = [], []
    before = pace.kernel()
    while len(setups) < SETUP_REPEATS or sum(setups_wall) < SETUP_MIN_S:
        start = perf_counter()
        qpump, ops = set_up(workload, seed, checker)
        wall = perf_counter() - start
        after = pace.kernel()
        setups.append(wall * pace.scale(before, after))
        setups_wall.append(wall)
        before = after

    times, walls, labels, nodes = [], [], [], 0
    stretch = []
    while sum(walls) < seconds:
        op = ops[len(walls) % len(ops)]
        elapsed, text, error = call(qpump, op)
        checker(op, text, error)
        walls.append(elapsed)
        labels.append(op.label)
        nodes += op.nodes
        stretch.append(elapsed)
        if sum(stretch) >= STRETCH_S or sum(walls) >= seconds:
            after = pace.kernel()
            factor = pace.scale(before, after)
            times.extend(t * factor for t in stretch)
            stretch, before = [], after

    busy = sum(times)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_p50_ms": metric(1e3 * statistics.median(times), "ms"),
        "op_tail_ms": metric(1e3 * tail_s, "ms"),
        "ops_per_s": metric(len(times) / busy, "op/s"),
        "nodes_per_s": metric(nodes / busy, "node/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "op_tail_ms": f"p{tail_pct:.1f} of {len(times)} calls",
        "op_p50_ms": f"median of {len(times)} calls",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    extra = {
        "fail_ratio": metric(checker.failed / checker.attempted, "1"),
        "wall.setup_s": metric(statistics.median(setups_wall), "s"),
        "wall.op_p50_ms": metric(1e3 * statistics.median(walls), "ms"),
        "wall.ops_per_s": metric(len(walls) / sum(walls), "op/s"),
        "pace.kernel_ms": metric(1e3 * statistics.median(pace.kernel_s), "ms"),
    }
    notes["wall.op_p50_ms"] = "wall clock, not reference time"
    notes["pace.kernel_ms"] = (f"median of {len(pace.kernel_s)} kernel runs; "
                               f"nominal {1e3 * NOMINAL_S:g} ms")
    if workload == "bathtub-oracle":
        extra["modes_per_s"] = metric(nodes / busy, "mode/s")
        notes["nodes_per_s"] = "dispersion-grid nodes x trials, i.e. modes_per_s"
    for label in sorted(set(labels)):
        own = [t for t, lab in zip(times, labels) if lab == label]
        extra[f"p50_ms[{label}]"] = metric(1e3 * statistics.median(own), "ms")
        notes[f"p50_ms[{label}]"] = f"{len(own)} calls"
    return checker, metrics, extra, notes


#: Modules whose line counts are reported (0 once a module is deleted);
#: ``src.loc`` counts every module of the package, new ones included.
LOC_MODULES = ("__init__", "bathtub", "cli", "errors", "matcore", "models",
               "optimal", "report", "shift", "transport")


def src_loc():
    """Source line counts of the ``src/qpump`` modules and their total."""
    package = os.path.join(SRC, "qpump")
    lines = {}
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                lines[name[:-3]] = sum(1 for _ in handle)
    counts = {f"{m.strip('_')}.loc": lines.get(m, 0) for m in LOC_MODULES}
    counts["src.loc"] = sum(lines.values())
    return counts


#: Per-layer metrics: (metric name, traced function, statistic, unit).
LAYER_METRICS = (
    ("models.eval.calls", "models.eval", "calls", "count"),
    ("models.eval.self_s", "models.eval", "self_time", "s"),
    ("models.from_file.s", "models.from_file", "total", "s"),
    ("models.uniform_stream.s", "models.uniform_stream", "total", "s"),
    ("matcore.spectral_derivative.calls", "matcore.spectral_derivative", "calls", "count"),
    ("matcore.spectral_derivative.s", "matcore.spectral_derivative", "total", "s"),
    ("shift.sample_cycle.calls", "shift.sample_cycle", "calls", "count"),
    ("shift.energy_shift_cycle.calls", "shift.energy_shift_cycle", "calls", "count"),
    ("shift.energy_shift_cycle.self_s", "shift.energy_shift_cycle", "self_time", "s"),
    ("shift.delay_scale.s", "shift.delay_scale", "total", "s"),
    ("shift.time_delay.calls", "shift.time_delay", "calls", "count"),
    ("shift.energy_shift_at.s", "shift.energy_shift_at", "total", "s"),
    ("transport.instant_report.s", "transport.instant_report", "total", "s"),
    ("transport.dissipation.s", "transport.dissipation", "total", "s"),
    ("transport.cycle_charge.s", "transport.cycle_charge", "total", "s"),
    ("transport.winding_charge.self_s", "transport.winding_charge", "self_time", "s"),
    ("optimal.optimality_verdict.self_s", "optimal.optimality_verdict", "self_time", "s"),
    ("optimal.diagonal_decomposition.s", "optimal.diagonal_decomposition", "total", "s"),
    ("optimal.offdiag_ratio.calls", "optimal.offdiag_ratio", "calls", "count"),
    ("optimal.offdiag_ratio.s", "optimal.offdiag_ratio", "total", "s"),
    ("report.analyze.self_s", "report.analyze", "self_time", "s"),
    ("report.instant_document.self_s", "report.instant_document", "self_time", "s"),
    ("report.dumps.s", "report.dumps", "total", "s"),
    ("report.dumps.bytes", "report.dumps", "out_bytes", "byte"),
    ("bathtub.verify_bound.self_s", "bathtub.verify_bound", "self_time", "s"),
    ("bathtub.greedy_minimize.s", "bathtub.greedy_minimize", "total", "s"),
    ("bathtub.from_occupation.calls", "bathtub.from_occupation", "calls", "count"),
    ("cli.main.self_s", "cli.main", "self_time", "s"),
)


def trace(workload, seed, calls):
    """Each of ``calls`` calls untraced, then at once traced: per-layer metrics.

    Alternating the two keeps a drift in machine speed out of the
    overhead ratio."""
    checker = Checker()
    qpump, ops = set_up(workload, seed, checker)
    plan = [ops[i % len(ops)] for i in range(calls)]
    tracer = Tracer()
    plain = traced = 0.0
    for i, op in enumerate(plan):
        elapsed, text, error = call(qpump, op)
        checker(op, text, error)
        plain += elapsed
        tracer.op_id = i
        tracer.install(qpump)
        try:
            elapsed, text, error = call(qpump, op)
        finally:
            tracer.uninstall()
        checker(op, text, error)  # traced bytes must equal untraced ones
        traced += elapsed
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"spans-{workload}.tsv"))

    nodes = sum(op.nodes for op in plan)
    metrics = {
        name: metric(getattr(tracer.stat(fn), field), unit)
        for name, fn, field, unit in LAYER_METRICS
    }
    metrics["models.eval.per_node"] = metric(tracer.stat("models.eval").calls / nodes,
                                             "eval/node")
    metrics["trace.calls"] = metric(calls, "count")
    metrics["trace.nodes"] = metric(nodes, "count")
    metrics["trace.overhead_ratio"] = metric(traced / plain - 1.0, "1")
    metrics.update({name: metric(n, "line") for name, n in src_loc().items()})
    notes = {"trace.calls": f"{calls} calls, each run untraced and then traced"}
    return checker, metrics, {}, notes


def report(checker, metrics, extra, notes, per_call=None):
    for name, entry in {**metrics, **extra}.items():
        line = f"{name:40s} {entry['value']:>16.6g} {entry['unit']:8s}"
        if per_call and entry["unit"] in ("count", "s"):
            line += f" {entry['value'] / per_call:>14.6g} per call"
        print((line + "  " + notes.get(name, "")).rstrip())
    for error in checker.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "qpump", "__init__.py")):
        print(f"run.py: no qpump package under {SRC}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    if args.trace:
        calls = TRACE_CALLS[args.workload]
        report(*trace(args.workload, args.seed, calls), per_call=calls)
    else:
        report(*measure(args.workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
