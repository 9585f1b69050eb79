"""Replayable mutants: faults planted in a copy of ``src/`` that named tests must catch.

Each entry of ``MUTANTS`` gives the file under ``src/``, the exact text the
plant replaces (it occurs once under ``src/``), the text put in its place, the
tests expected to fail on it, and the change that planted it.  An equivalent
mutant computes the same values as the original on every input the package
accepts, so no test can kill it; its entry says why.

    python tests/mutants.py [name ...]

copies ``src/`` to a temporary directory, applies one mutant (each in turn,
or only the named ones), runs its tests against the copy with
``-x -q -p no:cacheprovider`` once for each hypothesis seed of ``SEEDS`` and
prints whether it was killed (its tests failed at every seed) or survived,
then the kill rate.  Equivalent mutants are listed apart, outside the kill
rate, and flagged if a test kills them at any seed: their reason is then
wrong.  The exit code is 0 when every mutant was killed and no equivalent one
was.  pytest does not collect this file; ``tests/test_mutants.py`` checks that
every old text still occurs exactly once, so a plant cannot go stale unnoticed.
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
    equivalent: str = ""  # why no test can kill it, for an equivalent mutant


#: A hypothesis-based kill must not hang on one lucky draw.
SEEDS = (1, 2, 3)

_POLICY = "one tolerance policy (spec 1.2)"
_BLOCKS = "block-batched bathtub oracle"
_LEAN = "lean bathtub trial blocks"
_LIMIT = "the decomposition limit from the verdict"
_RULES = "one statement per input rule"
_HOMES = "each input rule in the value that holds it"
_BATHTUB_HOMES = "each bathtub rule in the value that holds it"
_PERIOD = "the model owns its period"
_BAND = "bathtub grids a double can hold"
_LAWS = "tests/test_laws.py::"
_BATHTUB = "tests/test_bathtub.py::"
_MODELS = "tests/test_models.py::"
_CERTIFY = "cheaper certification passes"
_ONE_CLASS = "one exception class per exit code"
_DRAWS = "model draws from one stream pass"
_FLOOR = "the residual floor relative to the cycle's dissipation"
_FAIL_CLOSED = "one fail-closed comparison per certificate"
_OCCUPATION = "one home for the occupation rule"
_DRAW_TEST = (_MODELS + "test_model_draws_match_scalar_generator",)

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
           "diagonal_decomposition(samples, limit) if is_optimal",
           "diagonal_decomposition(samples, 1e-8) if is_optimal",
           (_LAWS + "test_optimality_criteria_agree_at_every_tol_opt",),
           _POLICY),
    Mutant("decomposition-limit-without-period-scale", "qpump/optimal.py",
           "    limit = max(tol_opt, tol_opt * scale * grid.period)\n",
           "    limit = tol_opt\n",
           (_LAWS + "test_optimality_criteria_agree_at_every_tol_opt",),
           _LIMIT),
    Mutant("saturation-without-verdict-scale", "qpump/optimal.py",
           "tol_opt * scale * (tol_opt * scale) / (4.0 * np.pi))",
           "tol_opt**2 * instants.total_dissipation.max(axis=0))",
           (_LAWS + "test_optimal_pumps_meet_every_criterion",),
           _POLICY),
    Mutant("gemv-block-fluxes", "qpump/bathtub.py",
           "    qdot = (n[:, None, :] @ w)[:, 0, 0] / _TWO_PI\n",
           "    qdot = (n @ grid.weights) / _TWO_PI\n",
           (_BATHTUB + "test_block_fluxes_equal_scalar_reference",),
           _LEAN),
    Mutant("filling-product-in-place", "qpump/bathtub.py",
           "_fluxes(grid, n[None], None)",
           "_fluxes(grid, n[None], n[None])",
           (_BATHTUB + "test_filling_clips_a_copy",),
           _LEAN),
    Mutant("clip-dropped", "qpump/bathtub.py",
           "        np.clip(n, 0.0, 1.0, out=n)\n",
           "        pass\n",
           (_BATHTUB + "test_filling_clips_a_copy",),
           _LEAN),
    Mutant("occupation-range-unchecked", "qpump/bathtub.py",
           "        if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):\n"
           "            raise ValueError(\"occupations must lie in [0, 1]\")\n",
           "",
           (_BATHTUB + "test_filling_fluxes", _BATHTUB + "test_nan_inputs_are_rejected"),
           _OCCUPATION),
    Mutant("greedy-zero-weight-marginal", "qpump/bathtub.py",
           "np.where(w[m] > 0.0,",
           "np.where(w[m] >= 0.0,",
           (_BATHTUB + "test_greedy_edot_matches_scalar_formula",
            _BATHTUB + "test_verify_bound_equals_per_trial_reference"),
           _BLOCKS,
           equivalent="searchsorted picks the first cumulative weight at or above the "
                      "budget, so w[m] = 0 only at m = 0 with a zero budget, where the "
                      "marginal term is 0 * eps = 0, or at m clamped past the band top, "
                      "where the full band's Edot is taken; no budget is negative, as no "
                      "weight is"),
    Mutant("greedy-full-band-strict", "qpump/bathtub.py",
           "budgets >= cum_w[-1]",
           "budgets > cum_w[-1]",
           (_BATHTUB + "test_greedy_edot_matches_scalar_formula",),
           _BLOCKS),
    Mutant("power-of-two-unchecked", "qpump/matcore.py",
           "    if value < minimum or value & (value - 1):\n",
           "    if value < minimum:\n",
           ("tests/test_matcore.py::test_cycle_grid_validation",
            _MODELS + "test_config_rejects_bad_samples"),
           _RULES),
    Mutant("tolerances-unchecked", "qpump/matcore.py",
           "        for f in fields(self):\n",
           "        return\n        for f in fields(self):\n",
           (_MODELS + "test_config_rejects_bad_tolerance_and_beta",),
           _RULES),
    Mutant("walker-skips-required", "qpump/models.py",
           "    for key in required:\n        if key not in value:\n"
           "            raise ConfigError(f\"{prefix}{key}\", \"missing required field\")\n",
           "",
           (_MODELS + "test_config_rejects_missing_section_field",),
           _RULES),
    Mutant("pump-model-unitary-tol-unchecked", "qpump/models.py",
           "        object.__setattr__(self, \"unitary_tol\",\n"
           "                           _real(self.unitary_tol, \"tolerances.tol_unitary\", "
           "positive=True))\n",
           "",
           (_MODELS + "test_pump_model_checks_every_field_it_certifies_with",),
           _HOMES),
    Mutant("window-upper-edge-dropped", "qpump/models.py",
           "    if not lo <= energy <= hi:\n",
           "    if not lo <= energy:\n",
           (_MODELS + "test_energy_window_enforced",
            _MODELS + "test_config_rejects_mu_outside_window"),
           _HOMES),
    Mutant("seed-upper-edge-dropped", "qpump/bathtub.py",
           "    seed = _integer(seed, \"seed\", 0, 2**64 - trials)\n",
           "    seed = _integer(seed, \"seed\", 0)\n",
           ("tests/test_cli.py::test_bathtub_rejects_kmax_and_seed_out_of_range",
            _BATHTUB + "test_verify_bound_seeds_up_to_two_to_the_64"),
           _BATHTUB_HOMES),
    Mutant("integer-rule-dropped", "qpump/matcore.py",
           "    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):\n"
           "        raise ConfigError(fieldname, \"must be an integer\")\n",
           "",
           (_BATHTUB + "test_each_rule_is_a_config_error_on_its_flag",),
           _BATHTUB_HOMES),
    Mutant("angle-map-fixed-period", "qpump/models.py",
           "self.matrix_fn(_TWO_PI * times / self.period, energy)",
           "self.matrix_fn(_TWO_PI * times / 1.0, energy)",
           (_MODELS + "test_replacing_the_period_rescales_time",
            _LAWS + "test_period_scaling_law"),
           _PERIOD),
    Mutant("model-grid-unit-period", "qpump/models.py",
           "CycleGrid(self.period, ",
           "CycleGrid(1.0, ",
           ("tests/test_shift.py::test_the_model_makes_its_grid",
            _LAWS + "test_reparameterization_law"),
           "the model makes its grid"),
    Mutant("grid-shape-unchecked", "qpump/bathtub.py",
           "        if shapes != [(n_k,)] * 3:\n",
           "        if len(shapes) != 3:\n",
           (_BATHTUB + "test_grid_arrays_have_shape_n_k",),
           _BAND),
    Mutant("band-overflow-nan-only", "qpump/bathtub.py",
           "        if not np.isfinite(fluxes).all():\n",
           "        if np.isnan(fluxes).any():\n",
           ("tests/test_cli.py::test_bathtub_rejects_a_band_beyond_a_double",
            _BATHTUB + "test_each_rule_is_a_config_error_on_its_flag"),
           _BAND),
    Mutant("regime-ok-always-true", "qpump/report.py",
           "None if beta is None else bool(omega * beta < 1.0 and tau < beta)",
           "None if beta is None else True",
           ("tests/test_cli.py::test_instant_and_analyze_agree_on_the_regime",),
           "the regime verdict of the whole cycle"),
    Mutant("delay-k_ell-times-mu", "qpump/models.py",
           "    return 2, matrix, k_ell / mu  # d(loop)/dE",
           "    return 2, matrix, k_ell * mu  # d(loop)/dE",
           (_MODELS + "test_registry_declares_exactly_the_energy_independent_families",),
           "the declared time delay"),
    Mutant("shift-sdag-ds", "qpump/shift.py",
           "1j * (ds[:k] @ s[:k].conj().swapaxes(1, 2))",
           "1j * (s[:k].conj().swapaxes(1, 2) @ ds[:k])",
           ("tests/test_shift.py::test_right_gauge_and_relabelling_laws",),
           "the metamorphic laws"),
    Mutant("cycle-integral-strided-sum", "qpump/transport.py",
           "grid.dt * np.ascontiguousarray(rates.T).sum(axis=-1)",
           "grid.dt * rates.sum(axis=0)",
           ("tests/test_matcore.py::test_cycle_integral_sums_each_column_alone",),
           "one cycle quadrature"),
    Mutant("unitarity-defect-diagonal-only", "qpump/matcore.py",
           "        gram.reshape(n * n, -1)[:: n + 1] -= 1.0  # the diagonal, every node\n",
           "        gram.reshape(n * n, -1)[:: n + 1] -= 1.0  # the diagonal, every node\n"
           "        gram *= np.eye(n).reshape((n, n) + (1,) * (stack.ndim - 2))\n",
           ("tests/test_matcore.py::test_certificate_sees_columns_that_are_not_orthogonal",
            "tests/test_matcore.py::test_unitarity_defect_matches_the_matrix_norm"),
           _CERTIFY),
    Mutant("decomposition-without-radial-term", "qpump/optimal.py",
           "(size * size).sum(axis=(1, 2)) + (radial * radial).sum(axis=1)",
           "(size * size).sum(axis=(1, 2))",
           ("tests/test_optimal.py::test_decomposition_needs_a_unitary_anchor",),
           _CERTIFY),
    Mutant("config-fault-exits-2", "qpump/models.py",
           "            raise ConfigError(f\"params.{key}\",\n"
           "                              f\"model '{info.name}' does not understand",
           "            raise NumericalFailure(f\"params.{key}: \"\n"
           "                              f\"model '{info.name}' does not understand",
           ("tests/test_cli.py::test_exit_1_params_fault_names_its_key",),
           _ONE_CLASS),
    Mutant("bathtub-mu-accepts-bool", "qpump/bathtub.py",
           "    mu, top = _number(mu, \"mu\"), float(grid.eps[-1])\n",
           "    top = float(grid.eps[-1])\n",
           (_BATHTUB + "test_each_rule_is_a_config_error_on_its_flag",),
           _ONE_CLASS),
    Mutant("stack-certificate-passes-nan", "qpump/models.py",
           "        bad = ~(defect <= limit)\n",
           "        bad = defect > limit\n",
           (_MODELS + "test_a_nan_defect_fails_the_certificate",
            _MODELS + "test_sample_names_the_first_failing_node_and_its_fault"),
           _FAIL_CLOSED),
    Mutant("decomposition-passes-nan", "qpump/optimal.py",
           "    if not (float(np.max(size)) < limit and float(np.max(recon_error)) < limit):\n",
           "    if float(np.max(size)) >= limit or float(np.max(recon_error)) >= limit:\n",
           ("tests/test_optimal.py::test_decomposition_of_nan_samples_is_absent",),
           _FAIL_CLOSED),
    Mutant("winding-passes-nan", "qpump/transport.py",
           "    vanish = ~(overlap >= VANISHING_OVERLAP)\n",
           "    vanish = overlap < VANISHING_OVERLAP\n",
           ("tests/test_transport.py::test_winding_of_a_nan_node_raises",),
           _FAIL_CLOSED),
    Mutant("sample-times-shape-unchecked", "qpump/models.py",
           "        if times.ndim != 1:\n"
           "            raise ValueError(f\"times must be a 1-D array, got shape {times.shape}\")\n",
           "",
           (_MODELS + "test_sample_takes_a_1d_array_of_times",),
           "a 1-D array of times per sample"),
    Mutant("residual-floor-absolute", "qpump/transport.py",
           "        if np.any(self.residual < -ROUNDING_FLOOR * scale):\n",
           "        if np.any(self.residual < -1e-12):\n",
           ("tests/test_transport.py::test_residual_floor_is_relative_to_the_dissipation",
            _LAWS + "test_period_scaling_law"),
           _FLOOR),
    Mutant("hermitian-draw-re-im-swapped", "qpump/models.py",
           "        h[:, j, j + 1:] = row[:, 1::2] + 1j * row[:, 2::2]\n"
           "        h[:, j + 1:, j] = row[:, 1::2] - 1j * row[:, 2::2]\n",
           "        h[:, j, j + 1:] = row[:, 2::2] + 1j * row[:, 1::2]\n"
           "        h[:, j + 1:, j] = row[:, 2::2] - 1j * row[:, 1::2]\n",
           _DRAW_TEST, _DRAWS),
    Mutant("hermitian-draw-transposed", "qpump/models.py",
           "        h[:, j, j + 1:] = row[:, 1::2] + 1j * row[:, 2::2]\n"
           "        h[:, j + 1:, j] = row[:, 1::2] - 1j * row[:, 2::2]\n",
           "        h[:, j, j + 1:] = row[:, 1::2] - 1j * row[:, 2::2]\n"
           "        h[:, j + 1:, j] = row[:, 1::2] + 1j * row[:, 2::2]\n",
           _DRAW_TEST, _DRAWS),
    Mutant("hermitian-diagonal-drawn-last", "qpump/models.py",
           "        h[:, j, j] = row[:, 0]\n"
           "        h[:, j, j + 1:] = row[:, 1::2] + 1j * row[:, 2::2]\n"
           "        h[:, j + 1:, j] = row[:, 1::2] - 1j * row[:, 2::2]\n",
           "        h[:, j, j] = row[:, -1]\n"
           "        h[:, j, j + 1:] = row[:, 0:-1:2] + 1j * row[:, 1:-1:2]\n"
           "        h[:, j + 1:, j] = row[:, 0:-1:2] - 1j * row[:, 1:-1:2]\n",
           _DRAW_TEST, _DRAWS),
    Mutant("s0-draw-re-im-swapped", "qpump/models.py",
           "unitarize(pairs[..., 0] + 1j * pairs[..., 1])",
           "unitarize(pairs[..., 1] + 1j * pairs[..., 0])",
           _DRAW_TEST, _DRAWS),
    Mutant("s0-drawn-first", "qpump/models.py",
           "    draws = _uniform(seed, np.repeat(np.append(scale, [1.0, 1.0]), n * n))\n"
           "    terms = _hermitian_stack(draws[:-2 * n * n], n)\n"
           "    const, cos_terms, sin_terms = terms[0], terms[1::2], terms[2::2]\n"
           "    s0 = _unitary(draws[-2 * n * n:], n)\n",
           "    draws = _uniform(seed, np.repeat(np.append([1.0, 1.0], scale), n * n))\n"
           "    terms = _hermitian_stack(draws[2 * n * n:], n)\n"
           "    const, cos_terms, sin_terms = terms[0], terms[1::2], terms[2::2]\n"
           "    s0 = _unitary(draws[:2 * n * n], n)\n",
           _DRAW_TEST, _DRAWS),
    Mutant("s0-draw-column-major", "qpump/models.py",
           "    pairs = draws.reshape(n, n, 2)\n",
           "    pairs = draws.reshape(n, n, 2).swapaxes(0, 1)\n",
           _DRAW_TEST, _DRAWS),
    Mutant("cos-sin-terms-swapped", "qpump/models.py",
           "terms[0], terms[1::2], terms[2::2]",
           "terms[0], terms[2::2], terms[1::2]",
           _DRAW_TEST, _DRAWS),
]


def killed(mutant: Mutant) -> list[bool]:
    """For each hypothesis seed of ``SEEDS``, whether the tests of ``mutant``
    fail on a copy of ``src/`` that carries it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: its old text does not occur once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        kills = []
        for seed in SEEDS:
            # the copy comes first on the path, ahead of the ini's "src"
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 f"--hypothesis-seed={seed}", "-o", f"pythonpath={src}", *mutant.tests],
                cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
            if proc.returncode not in (0, 1, 2):  # 2: a collection error, which kills too
                raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}")
            kills.append(proc.returncode != 0)
    return kills


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    plants = [m for m in chosen if not m.equivalent]
    dead = 0
    for mutant in plants:
        kills = killed(mutant)
        dead += all(kills)
        survived = [str(seed) for seed, kill in zip(SEEDS, kills) if not kill]
        verdict = f"SURVIVED (seed {', '.join(survived)})" if survived else "killed"
        print(f"{verdict:9} {mutant.name}", flush=True)
    print(f"kill rate: {dead}/{len(plants)} (hypothesis seeds {', '.join(map(str, SEEDS))})")
    refuted = 0
    for mutant in chosen:
        if mutant.equivalent:
            kills = killed(mutant)
            refuted += any(kills)  # a kill at any seed refutes the reason
            label = "KILLED" if any(kills) else "equivalent"
            print(f"{label:10} {mutant.name}: {mutant.equivalent}", flush=True)
    return 0 if dead == len(plants) and not refuted else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
