"""Seeded inputs and output checks for the four benchmark workloads.

Every workload is a fixed cycle of CLI operations (``pump analyze``,
``pump instant`` or ``pump bathtub``).  The seed draws every continuous
parameter; the *structure* of a cycle (which model family, channel count,
grid size or trial count sits in which slot) is fixed, so the cost mix --
and with it the median operation time -- is the same for every seed.
Each round puts a block of equal-cost slots in the middle of the cost
order, so the median is that block's cost rather than a point on the gap
between two cost classes, which per-call timing noise would move from
run to run.

Each operation carries its own output check.  A check returns ``None``
when the output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

#: Cycle grid of the two analysis workloads.  N = 4096 is left out: the
#: per-node cost is flat from N = 256 upwards, so it would only lengthen runs.
CYCLE_SAMPLES = 1024
WINDOW = [0.5, 1.5]
WINDOW_SAMPLES = 16

@dataclass(frozen=True)
class Op:
    """One CLI call with what is needed to time, count and check it."""

    argv: tuple[str, ...]
    out: str | None           # report file of ``analyze``; None: stdout
    key: str                  # identical keys must give identical bytes
    nodes: int                # grid nodes the call sweeps
    label: str                # cost class, for breakdowns
    check: Callable[[dict], str | None]


class StrictJSONError(ValueError):
    pass


def _reject_constant(name):
    raise StrictJSONError(f"non-finite JSON token {name}")


def strict_loads(text: str):
    """``json.loads`` that rejects NaN and +/-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _config(model, params, period, samples, mu, beta):
    return {
        "model": model,
        "params": params,
        "cycle": {"period": period, "samples": samples},
        "energy": {"mu": mu, "window": WINDOW, "samples": WINDOW_SAMPLES},
        "beta": beta,
    }


def _write_config(workdir, name, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


# ---------------------------------------------------------------- model draws


def _flux_loop(rng):
    w = rng.randint(1, 3)
    return "flux-loop", {"k_ell": rng.uniform(0.5, 2.0), "w": w}


def _perturbed(rng, delta):
    return "perturbed-flux-loop", {
        "k_ell": rng.uniform(0.5, 2.0), "w": rng.randint(1, 3), "delta": delta,
    }


def _dtc(rng, n):
    params = {"n": n, "s0_seed": rng.randint(1, 10**6)}
    for j in range(1, n + 1):
        params[f"w{j}"] = rng.randint(-2, 2)
        for m in (1, 2):
            params[f"a{j}_{m}"] = rng.uniform(-0.2, 0.2)
            params[f"b{j}_{m}"] = rng.uniform(-0.2, 0.2)
    return "diagonal-times-constant", params


def _random_path(rng, n, degree):
    # The degree sets the cost of an eval, so callers fix it per slot.
    return "random-smooth-path", {
        "n": n, "seed": rng.randint(0, 10**6),
        "amplitude": rng.uniform(0.3, 1.0), "degree": degree,
    }


def _windings(model, params):
    """Integer charges per cycle of an optimal pump (None otherwise)."""
    if model == "flux-loop":
        return [-params["w"], params["w"]]
    if model == "diagonal-times-constant":
        return [-params[f"w{j}"] for j in range(1, params["n"] + 1)]
    return None


def _currents(model, params, period, t):
    """Exact instantaneous currents of an optimal pump at time t.

    For ``S = diag(exp(i phi_j(t))) S0`` the energy shift is
    ``diag(-phi_j')`` and the current is ``Qdot_j = -phi_j'(t) / 2pi``.
    """
    if model == "flux-loop":
        w = params["w"]
        return [-w / period, w / period]
    if model == "diagonal-times-constant":
        arg = 2.0 * math.pi * t / period
        out = []
        for j in range(1, params["n"] + 1):
            rate = params[f"w{j}"]
            for m in (1, 2):
                rate += m * (params[f"b{j}_{m}"] * math.cos(m * arg)
                             - params[f"a{j}_{m}"] * math.sin(m * arg))
            out.append(-rate / period)
        return out
    return None


# ---------------------------------------------------------------- checks


def _check_optimal(expected, tol_charge):
    def check(doc):
        if not doc["optimality"]["is_optimal"]:
            return "verdict is not optimal"
        if doc["cycle"]["winding"] != expected:
            return f"winding {doc['cycle']['winding']} != {expected}"
        charge = doc["cycle"]["charge"]
        if len(charge) != len(expected) or any(
            abs(q - w) >= tol_charge for q, w in zip(charge, expected)
        ):
            return f"charge {charge} != {expected} within {tol_charge:g}"
        if doc["optimality"]["decomposition"] is None:
            return "optimal verdict without decomposition"
        return None
    return check


def _check_generic(doc):
    if doc["optimality"]["is_optimal"]:
        return "verdict is optimal"
    if doc["cycle"]["winding"] is not None:
        return "winding present on a non-optimal pump"
    return None


def _check_instant(expected):
    def check(doc):
        for key in ("Qdot", "D", "Xs", "r", "Sdot", "Ndot", "regime_ok"):
            if key not in doc:
                return f"missing {key}"
        if expected is not None and not (
            len(doc["Qdot"]) == len(expected)
            and all(_close(q, e, 1e-9) for q, e in zip(doc["Qdot"], expected))
        ):
            return f"Qdot {doc['Qdot']} != {expected}"
        return None
    return check


def _check_bathtub(nk, linear):
    def check(doc):
        if doc["violations"] != 0:
            return f"{doc['violations']} bound violations"
        gap = doc["greedy_Edot"] - doc["analytic_Edot"]
        if gap < 0.0:
            return f"greedy_Edot below the analytic minimum by {-gap:.3e}"
        if linear and gap >= 5.0 / nk:
            return f"greedy gap {gap:.3e} outside the 5/nk envelope"
        return None
    return check


# ---------------------------------------------------------------- workloads

TOL_CHARGE = 1e-8


def _analyze_op(workdir, index, model, params, rng, check, label):
    period = rng.uniform(0.5, 2.0)
    doc = _config(model, params, period, CYCLE_SAMPLES,
                  rng.uniform(0.8, 1.2), rng.uniform(5.0, 50.0))
    path = _write_config(workdir, f"cfg-{index:02d}.json", doc)
    out = os.path.join(workdir, f"out-{index:02d}.json")
    return Op(("analyze", "--config", path, "--out", out), out, path,
              CYCLE_SAMPLES, label, check)


def optimal_cycle(rng, workdir):
    """One round of [flux, dtc n=2, dtc n=3 x 3, dtc n=4 x 2].

    At N = 1024 the cost grows with n (flux about 10% below dtc n=2, each
    further channel about 6% more), so the median is the middle of the
    three n=3 slots."""
    draws = [_flux_loop(rng)] + [_dtc(rng, n) for n in (2, 3, 3, 3, 4, 4)]
    ops = []
    for model, params in draws:
        label = model if model == "flux-loop" else f"{model}/n={params['n']}"
        check = _check_optimal(_windings(model, params), TOL_CHARGE)
        ops.append(_analyze_op(workdir, len(ops), model, params, rng, check, label))
    return ops


def generic_cycle(rng, workdir):
    """One round of [perturbed, rsp n=2, rsp n=3 x 3, rsp n=4 x 2].

    The perturbed flux loop costs about 15% less than random-smooth-path
    n=2, and each further channel adds about 10%, so the median is the
    middle of the three n=3 slots.  The degree of a random-smooth-path
    slot is fixed (it changes the cost of an eval); the mixing amplitude
    is drawn from [0.05, 0.5]."""
    draws = [_perturbed(rng, rng.uniform(0.05, 0.5))]
    draws += [_random_path(rng, n, d) for n, d in
              ((2, 3), (3, 2), (3, 2), (3, 2), (4, 1), (4, 3))]
    ops = []
    for model, params in draws:
        label = model if "n" not in params else f"{model}/n={params['n']}"
        ops.append(_analyze_op(workdir, len(ops), model, params, rng,
                               _check_generic, label))
    return ops


def instant_queries(rng, workdir):
    """15 queries: at N = 64, 3 each of flux, dtc and perturbed and 2 of
    random-smooth-path; at N = 256, one of each family.

    In order of cost: flux64, perturbed64, dtc64, rsp64, then the four
    N = 256 families; the median sits in the middle of the dtc64 slots
    and the tail among the N = 256 random-smooth-path calls."""
    plan = [(64, "flux"), (64, "flux"), (64, "flux"),
            (64, "dtc", 2), (64, "dtc", 3), (64, "dtc", 4),
            (64, "perturbed"), (64, "perturbed"), (64, "perturbed"),
            (64, "rsp", 2), (64, "rsp", 4),
            (256, "flux"), (256, "dtc", 3), (256, "perturbed"), (256, "rsp", 3)]
    ops = []
    for index, (samples, family, *n) in enumerate(plan):
        if family == "flux":
            model, params = _flux_loop(rng)
        elif family == "dtc":
            model, params = _dtc(rng, n[0])
        elif family == "perturbed":
            model, params = _perturbed(rng, rng.uniform(0.05, 0.5))
        else:
            model, params = _random_path(rng, n[0], 2)
        period = rng.uniform(0.5, 2.0)
        t = rng.uniform(0.0, period)
        doc = _config(model, params, period, samples,
                      rng.uniform(0.8, 1.2), rng.uniform(5.0, 50.0))
        path = _write_config(workdir, f"cfg-{index:02d}.json", doc)
        check = _check_instant(_currents(model, params, period, t))
        ops.append(Op(("instant", "--config", path, "--t", repr(t)), None,
                      f"{path}@{t!r}", samples, f"{family}/N={samples}", check))
    return ops


def bathtub_oracle(rng, workdir):
    """15 oracle calls: five cheap ones (trials 500..900), five identical
    in cost (quadratic, nk = 4096, 1200 trials) and five dear ones, again
    identical in cost (linear, nk = 4096, 2000 trials).

    A trial costs 0.06 to 0.10 ms depending on (dispersion, nk), so every
    cheap call is cheaper and every dear call dearer than the middle five.
    The median is the cost of the middle block and the tail (ten calls
    above it out of ~160) lies inside the dear block, never on the step
    between two cost classes.  The cheap block cycles through all four
    (dispersion, nk) pairs; the seed draws k_max, mu and the oracle's own
    seed."""
    pairs = [(d, nk) for d in ("linear", "quadratic") for nk in (1024, 4096)]
    plan = [(pairs[i % 4], 500 + 100 * i) for i in range(5)]
    plan += [(("quadratic", 4096), 1200)] * 5
    plan += [(("linear", 4096), 2000)] * 5
    ops = []
    for (dispersion, nk), trials in plan:
        kmax = rng.uniform(1.5, 3.0)
        band_top = kmax if dispersion == "linear" else 0.5 * kmax * kmax
        mu = rng.uniform(0.2, 0.9) * band_top
        argv = ("bathtub", "--dispersion", dispersion, "--kmax", repr(kmax),
                "--nk", str(nk), "--mu", repr(mu), "--trials", str(trials),
                "--seed", str(rng.randint(0, 2**31 - 1)))
        ops.append(Op(argv, None, " ".join(argv), trials * nk,
                      f"{dispersion}/nk={nk}", _check_bathtub(nk, dispersion == "linear")))
    return ops


WORKLOADS = {
    "optimal-cycle": optimal_cycle,
    "generic-cycle": generic_cycle,
    "instant-queries": instant_queries,
    "bathtub-oracle": bathtub_oracle,
}


def make_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """Generate (and write) the inputs of one workload from its seed."""
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
