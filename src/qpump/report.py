"""Analysis pipeline and deterministic report serialization.

Reports are plain JSON documents.  Serialization is deterministic: keys
keep their insertion order, floats are written with 17 significant digits
(enough to round-trip IEEE doubles exactly), and nothing time- or
machine-dependent enters the document, so identical configurations yield
byte-identical reports.  Float arrays and the per-time report are formatted
in one pass per block, in the same bytes as their list form.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps does to a str

import numpy as np

from .errors import ConfigError, NumericalFailure
from .matcore import CycleGrid
from .models import ModelConfig, build_model
from .optimal import OptimalityVerdict, offdiag_ratio, optimality_verdict
from .shift import delay_scale, energy_shift_at, energy_shift_cycle, sample_cycle
from .transport import InstantReport, cycle_integral, instant_report, winding_charge

__all__ = [
    "SPEC_VERSION",
    "ADIABATICITY_WARN",
    "format_float",
    "dumps",
    "AnalysisResult",
    "analyze",
    "instant_document",
]

SPEC_VERSION = "1.0"

#: Above this adiabaticity parameter a warning is attached to the report.
ADIABATICITY_WARN = 0.1


def format_float(value: float) -> str:
    """17-significant-digit decimal form that parses back to the same double.

    Raises :class:`NumericalFailure` on NaN and +/-inf, which strict JSON
    cannot carry.
    """
    out = format(float(value), ".17g")
    if "." not in out and "e" not in out:
        if out in ("nan", "inf", "-inf"):
            raise NumericalFailure(f"non-finite value {out} in the report")
        out += ".0"
    return out


def _format_block(x: np.ndarray) -> tuple[str, ...]:
    """:func:`format_float` of every entry of a float array, in C order,
    from one finiteness check and one formatting pass."""
    flat = x.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        bad = format(float(flat[~finite][0]), ".17g")
        raise NumericalFailure(f"non-finite value {bad} in the report")
    out = ("%.17g\n" * flat.size % tuple(flat.tolist())).split("\n")[:-1]
    # exactly the values %.17g writes without "." or "e" (-0.0 among them)
    for i in np.flatnonzero((flat == np.trunc(flat)) & (np.abs(flat) < 1e17)).tolist():
        out[i] += ".0"
    return tuple(out)


def _layout(shape: tuple, pad: str, leaf: str = "%s") -> str:
    """Template of the nested JSON arrays of ``shape`` at indent ``pad``, one
    ``leaf`` per innermost entry, laid out as :func:`_emit` lays out lists."""
    if not shape:
        return leaf
    if not shape[0]:
        return "[]"
    inner = pad + "  "
    item = _layout(shape[1:], inner, leaf)
    return "[\n" + inner + (",\n" + inner).join([item] * shape[0]) + "\n" + pad + "]"


def _instants(report: InstantReport, pad: str) -> str:
    """A stacked report as the JSON array of its per-time records, a
    one-time report as one record: all its floats form one block."""
    columns = {"Qdot": report.qdot, "D": report.total_dissipation,
               "Xs": report.excess, "r": report.residual}
    if report.sdot is not None:
        columns.update(Sdot=report.sdot, Ndot=report.ndot)
    stacked = np.ndim(report.t) == 1
    record_pad = pad + "  " if stacked else pad
    item = record_pad + "  "
    leaves = _layout(report.qdot.shape[-1:], item)
    fields = [item + '"t": %s', *(f"{item}{_quote(key)}: {leaves}" for key in columns),
              f'{item}"regime_ok": {"true" if report.regime_ok else "false"}']
    record = "{\n" + ",\n".join(fields) + "\n" + record_pad + "}"
    block = np.column_stack([np.atleast_1d(report.t), *map(np.atleast_2d, columns.values())])
    template = _layout(block.shape[:1], pad, record) if stacked else record
    return template % _format_block(block)


def _emit(obj, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        brackets = "{}" if is_dict else "[]"
        if not obj:
            out.append(brackets)
            return
        out.append(brackets[0] + "\n")
        for i, (key, value) in enumerate(obj.items() if is_dict else enumerate(obj)):
            out.append(f"{pad}  {_quote(str(key))}: " if is_dict else pad + "  ")
            _emit(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + brackets[1])
    elif isinstance(obj, InstantReport):
        out.append(_instants(obj, pad))
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        out.append(_layout(obj.shape, pad) % _format_block(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (insertion-ordered keys, 17-digit floats); float
    arrays and :class:`InstantReport` records are written as their list form."""
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)


def _verdict_entry(verdict: OptimalityVerdict) -> dict:
    decomposition = None
    if verdict.decomposition is not None:
        s0 = verdict.decomposition.constant
        decomposition = {
            "phases": verdict.decomposition.phases,
            "constant_real": s0.real,
            "constant_imag": s0.imag,
        }
    return {
        "is_optimal": verdict.is_optimal,
        "max_offdiag_ratio": verdict.max_offdiag_ratio,
        "worst_time": verdict.worst_time,
        "per_channel_saturation": [bool(b) for b in verdict.per_channel_saturation],
        "decomposition": decomposition,
    }


@dataclass(frozen=True, eq=False)
class AnalysisResult:
    """Analysis outputs: the document :func:`dumps` writes (it holds the stacked
    per-time report under "instants"), that report and the off-diagonal ratios
    behind its time series, and the optimality verdict."""

    document: dict
    instants: InstantReport
    ratios: np.ndarray
    verdict: OptimalityVerdict

    @property
    def csv_text(self) -> str:
        """The time series as CSV: ``t, Qdot_1..n, D_1..n[, Sdot_1..n,
        Ndot_1..n], rho``; formatted on demand."""
        report = self.instants
        blocks = [report.qdot, report.total_dissipation]
        names = ["Qdot", "D"]
        if report.sdot is not None:
            blocks += [report.sdot, report.ndot]
            names += ["Sdot", "Ndot"]
        n = report.qdot.shape[1]
        header = ["t"] + [f"{name}_{j + 1}" for name in names for j in range(n)] + ["rho"]
        table = np.column_stack([report.t, *blocks, self.ratios])
        row = ",".join(["%s"] * table.shape[1]) + "\n"
        return ",".join(header) + "\n" + (row * len(table)) % _format_block(table)


def analyze(config: ModelConfig) -> AnalysisResult:
    """Run the full cycle analysis a configuration describes."""
    model = build_model(config)
    grid = CycleGrid(config.period, config.samples)
    tol = config.tolerances
    mu = config.mu

    # S(t, mu) is sampled once; every stage below reuses it.
    samples = sample_cycle(model, mu, grid)
    shifts = energy_shift_cycle(model, mu, grid, samples=samples)
    tau = delay_scale(model, mu, grid, samples=samples)
    omega = 2.0 * np.pi / model.period
    epsilon = omega * tau

    instants = instant_report(shifts, beta=config.beta, omega=omega, tau=tau)
    ratios = offdiag_ratio(shifts)
    verdict = optimality_verdict(model, mu, grid, tol, shifts=shifts, samples=samples)

    charge = cycle_integral(instants.qdot, grid)
    winding = None
    if verdict.is_optimal:
        winding = winding_charge(model, mu, grid, tol, samples=samples, shifts=shifts)
        gap = float(np.max(np.abs(charge - winding)))
        if gap >= tol.tol_charge:
            raise NumericalFailure(
                f"cycle charge differs from winding integers by {gap:.3e} "
                f"(tol_charge {tol.tol_charge:g})"
            )

    dissipated = cycle_integral(instants.total_dissipation, grid)

    warnings: list[str] = []
    flagged = np.flatnonzero(shifts.herm_defect >= tol.tol_herm)
    if flagged.size:
        first = flagged[0]
        warnings.append(
            f"elevated hermiticity defect on {flagged.size} of {len(shifts)} samples; "
            f"worst: hermiticity defect {shifts.herm_defect[first]:.3e} at "
            f"t={shifts.t[first]:.6g} exceeds {tol.tol_herm:g}"
        )
    if epsilon >= ADIABATICITY_WARN:
        warnings.append(
            f"adiabaticity parameter {epsilon:.6g} >= {ADIABATICITY_WARN}; "
            "the instantaneous description is questionable for this cycle"
        )
    if config.beta is not None and not instants.regime_ok:
        warnings.append(
            "entropy/noise regime check failed: need omega < 1/beta < 1/tau"
        )

    document = {
        "config": config.raw,
        "adiabaticity": epsilon,
        "instants": instants,
        "cycle": {
            "charge": charge,
            "winding": None if winding is None else [int(w) for w in winding],
            "dissipated_per_cycle": dissipated,
            "adiabaticity": epsilon,
            "period": grid.period,
            "samples": grid.samples,
        },
        "optimality": _verdict_entry(verdict),
        "warnings": warnings,
        "versions": {
            "spec_version": SPEC_VERSION,
            "tolerances": {
                "tol_unitary": tol.tol_unitary,
                "tol_herm": tol.tol_herm,
                "tol_opt": tol.tol_opt,
                "tol_charge": tol.tol_charge,
            },
        },
    }
    return AnalysisResult(document=document, instants=instants, ratios=ratios, verdict=verdict)


def instant_document(config: ModelConfig, t: float) -> InstantReport:
    """Single-time report for ``pump instant`` (t in [0, period)); :func:`dumps`
    writes it as one JSON object."""
    if not (0.0 <= t < config.period):
        raise ConfigError("t", f"must lie in [0, {config.period!r}), got {t!r}")
    model = build_model(config)
    grid = CycleGrid(config.period, config.samples)
    e = energy_shift_at(model, t, config.mu, grid)
    tau = delay_scale(model, config.mu, grid)
    omega = 2.0 * np.pi / model.period
    return instant_report(e, beta=config.beta, omega=omega, tau=tau)
