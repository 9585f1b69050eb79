"""Analysis pipeline and deterministic report serialization.

Reports are plain JSON documents.  Serialization is deterministic: keys
keep their insertion order, floats are written with 17 significant digits
(enough to round-trip IEEE doubles exactly), and nothing time- or
machine-dependent enters the document, so identical configurations yield
byte-identical reports.  The floats of a document (arrays, the per-time
report and scalars alike) are formatted as one block, each distinct bit
pattern once: the same bytes as :func:`format_float` per value, and as their
list form.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps does to a str

import numpy as np

from .errors import ConfigError, NumericalFailure
from .matcore import CycleGrid
from .models import ModelConfig, build_model
from .optimal import OptimalityVerdict, optimality_verdict
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
    return _format_block(np.array([float(value)]))[0]


def _format_block(x: np.ndarray) -> tuple[str, ...]:
    """Every entry of a float array in C order as ``%.17g``, plus ".0" where
    that reads as an integer.  The first non-finite entry in C order is
    named before anything is formatted; then each distinct bit pattern is
    formatted once (bits, not values: 0.0 and -0.0 differ in text) and the
    strings are gathered back in C order."""
    flat = np.asarray(x, dtype=np.float64).ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        bad = format(float(flat[~finite][0]), ".17g")
        raise NumericalFailure(f"non-finite value {bad} in the report")
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    values = bits.view(np.float64)
    text = ("%.17g\n" * values.size % tuple(values.tolist())).split("\n")[:-1]
    # exactly the values %.17g writes without "." or "e" (-0.0 among them)
    for i in np.flatnonzero((values == np.trunc(values)) & (np.abs(values) < 1e17)).tolist():
        text[i] += ".0"
    return tuple(np.fromiter(text, dtype=object, count=len(text))[inverse].tolist())


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


def _literal(text: str) -> str:
    """A JSON string as :func:`dumps` writes it into its template."""
    return _quote(text).replace("%", "%%")


def _instants(report: InstantReport, pad: str, floats: list) -> str:
    """A stacked report as the JSON array of its per-time records, a
    one-time report as one record: its floats, in the order of the
    template's leaves, go to ``floats`` as one block."""
    columns = {"Qdot": report.qdot, "D": report.total_dissipation,
               "Xs": report.excess, "r": report.residual}
    if report.sdot is not None:
        columns.update(Sdot=report.sdot, Ndot=report.ndot)
    stacked = np.ndim(report.t) == 1
    record_pad = pad + "  " if stacked else pad
    item = record_pad + "  "
    leaves = _layout(report.qdot.shape[-1:], item)
    fields = [item + '"t": %s', *(f"{item}{_literal(key)}: {leaves}" for key in columns),
              f'{item}"regime_ok": {"true" if report.regime_ok else "false"}']
    record = "{\n" + ",\n".join(fields) + "\n" + record_pad + "}"
    block = np.column_stack([np.atleast_1d(report.t), *map(np.atleast_2d, columns.values())])
    floats.append(block.ravel())
    return _layout(block.shape[:1], pad, record) if stacked else record


def _emit(obj, indent: int, out: list, floats: list) -> None:
    """Append the text of ``obj`` to ``out`` with a "%s" leaf per float (and
    "%" doubled elsewhere); its floats go to ``floats`` in leaf order."""
    pad = "  " * indent
    if isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        brackets = "{}" if is_dict else "[]"
        if not obj:
            out.append(brackets)
            return
        out.append(brackets[0] + "\n")
        for i, (key, value) in enumerate(obj.items() if is_dict else enumerate(obj)):
            out.append(f"{pad}  {_literal(str(key))}: " if is_dict else pad + "  ")
            _emit(value, indent + 1, out, floats)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + brackets[1])
    elif isinstance(obj, InstantReport):
        out.append(_instants(obj, pad, floats))
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        out.append(_layout(obj.shape, pad))
        floats.append(obj.ravel())
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append("%s")
        floats.append([float(obj)])
    elif isinstance(obj, str):
        out.append(_literal(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (insertion-ordered keys, 17-digit floats); float
    arrays and :class:`InstantReport` records are written as their list form.
    All floats of the document are formatted as one block."""
    out: list[str] = []
    floats: list = []
    _emit(obj, 0, out, floats)
    out.append("\n")
    # np.empty(0) keeps the concatenation defined for a document without floats
    return "".join(out) % _format_block(np.concatenate([np.empty(0), *floats]))


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
    per-time report under "instants"), that report, and the optimality verdict
    (whose off-diagonal ratios complete the time series)."""

    document: dict
    instants: InstantReport
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
        table = np.column_stack([report.t, *blocks, self.verdict.ratios])
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
    shifts, herm_defect = energy_shift_cycle(samples, grid)
    tau = delay_scale(model, mu, grid, samples=samples)
    omega = 2.0 * np.pi / model.period
    epsilon = omega * tau

    instants = instant_report(shifts, grid.times, beta=config.beta, omega=omega, tau=tau)
    verdict = optimality_verdict(shifts, samples, instants, tol)

    charge = cycle_integral(instants.qdot, grid)
    winding = None
    if verdict.is_optimal:
        winding = winding_charge(model, mu, grid, samples, verdict)
        gap = float(np.max(np.abs(charge - winding)))
        if gap >= tol.tol_charge:
            raise NumericalFailure(
                f"cycle charge differs from winding integers by {gap:.3e} "
                f"(tol_charge {tol.tol_charge:g})"
            )

    dissipated = cycle_integral(instants.total_dissipation, grid)

    warnings: list[str] = []
    flagged = np.flatnonzero(herm_defect >= tol.tol_herm)
    if flagged.size:
        first = flagged[0]
        warnings.append(
            f"elevated hermiticity defect on {flagged.size} of {grid.samples} samples; "
            f"worst: hermiticity defect {herm_defect[first]:.3e} at "
            f"t={grid.times[first]:.6g} exceeds {tol.tol_herm:g}"
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
            "tolerances": asdict(tol),
        },
    }
    return AnalysisResult(document=document, instants=instants, verdict=verdict)


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
    return instant_report(e, float(t), beta=config.beta, omega=omega, tau=tau)
