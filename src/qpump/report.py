"""Analysis pipeline and deterministic report serialization.

Reports are plain JSON documents.  Serialization is deterministic: keys
keep their insertion order, floats are written with 17 significant digits
(enough to round-trip IEEE doubles exactly), and nothing time- or
machine-dependent enters the document, so identical configurations yield
byte-identical reports.  The floats of a document (arrays, the per-time
report and scalars alike) are formatted as one block: the same bytes as
:func:`format_float` per value, and as their list form.  A large block is
written with array arithmetic, which gives the same bytes as ``%.17g``;
zeros, values outside 1e-280..1e280 and 17-digit near-ties go value by value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache
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


#: Smaller blocks go value by value: the array route's fixed cost outweighs its gain.
_ARRAY_MIN = 1024
#: The array route covers |v| in [1e-280, 1e280]; its table of 10**(16 - k)
#: starts at k = 281.
_EXP10_MAX = 280
_P0 = 15 - _EXP10_MAX
#: Scaled values this close to a rounding tie go value by value (error < 1e-13).
_TIE_MARGIN = 1e-6
#: Most values the array route writes at a time: about 150 bytes of temporaries each.
_SLICE = 12288


def format_float(value: float) -> str:
    """17-significant-digit decimal form that parses back to the same double.

    Raises :class:`NumericalFailure` on NaN and +/-inf, which strict JSON
    cannot carry.
    """
    return _format_block(np.array([float(value)]))[0]


def _format_values(values: list) -> list[str]:
    """Each value as ``%.17g``, plus ".0" where that reads as an integer."""
    text = ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]
    return [t if "." in t or "e" in t else t + ".0" for t in text]


def _format_block(x: np.ndarray) -> tuple[str, ...]:
    """Every entry of a float array in C order as :func:`_format_values` writes
    it, after naming the first non-finite entry in C order.  A block of at
    least ``_ARRAY_MIN`` entries has each distinct bit pattern (0.0 and -0.0
    differ) written once by :func:`_format_array`, which gives the same bytes
    and hands zeros, |v| outside 1e-280..1e280 and near-ties back to
    :func:`_format_values`, and gathered back."""
    flat = np.asarray(x, dtype=np.float64).ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        bad = format(float(flat[~finite][0]), ".17g")
        raise NumericalFailure(f"non-finite value {bad} in the report")
    if flat.size < _ARRAY_MIN:
        return tuple(_format_values(flat.tolist()))
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    text = _format_array(bits.view(np.float64))
    return tuple(np.fromiter(text, dtype=object, count=len(text))[inverse].tolist())


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split into two 26-bit halves, whose products are exact."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _pow10_table() -> tuple[np.ndarray, ...]:
    """``(hi, lo, hi's halves)`` of 10**p for p from ``_P0`` to ``17 + _EXP10_MAX``
    (``hi + lo`` within 2**-104): products of correctly rounded pairs
    ``10**(32a)`` and ``10**b``."""
    p = np.arange(_P0, 18 + _EXP10_MAX)
    pairs = []
    for q in [*range(32 * (_P0 // 32), p[-1] + 1, 32), *range(32)]:
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        hi = num / den  # int true division rounds correctly
        hn, hd = hi.as_integer_ratio()
        pairs.append((hi, (num * hd - hn * den) / (den * hd)))
    pairs = np.array(pairs).T
    big, small = pairs[:, p // 32 - _P0 // 32], pairs[:, -32:][:, p % 32]
    hi = big[0] * small[0]
    (ah, al), (bh, bl) = _split(big[0]), _split(small[0])
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl  # a*b - hi exactly (Dekker)
    lo += big[0] * small[1] + big[1] * small[0]
    top = hi + lo
    return (top, lo - (top - hi), *_split(top))


def _text_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 as '<u4' entries, then the same with
    trailing zeros as NUL; and the column maps of :func:`_text`."""
    chunk = np.empty((2, 10000, 4), np.uint8)
    chunk[:] = np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10000).T + np.uint8(48)
    for j in range(4):  # digit j of i is trailing when 10**(4 - j) divides i
        chunk[1, :: 10 ** (4 - j), j] = 0
    # A row of _text's ext: 0 sign; 1-20 the digits, digit j at 4 + j;
    # 21-40 the same with trailing zeros as NUL, digit j at 24 + j; 41 "." or
    # NUL; 42 the exponent's sign; 43-46 its digits; 47-51 "0", ".", "e", NUL, "\n".
    zero, dot, e, nul, newline = 47, 48, 49, 50, 51
    maps = []
    for k in range(-4, 19):  # %g's fixed form; the exponent form below and from 100
        if k < 0:
            cols = [0, zero, dot, *[zero] * (-k - 1), *range(24, 41)]
        elif k < 16:  # the first fraction digit is kept: "1200.0", not "1200."
            cols = [0, *range(4, 5 + k), dot, 5 + k, *range(26 + k, 41)]
        elif k == 16:
            cols = [0, *range(4, 21), dot, zero]
        else:
            cols = [0, 4, 41, *range(25, 41), e, 42, *range(45 if k == 17 else 44, 47)]
        maps.append(cols + [nul] * (24 - len(cols)) + [newline])
    return chunk.view("<u4").ravel(), np.array(maps)


@cache
def _tables() -> tuple:
    """The power and text tables, built when the first large block is written."""
    return (_pow10_table(), *_text_tables())


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor and fraction of ``a * 10**(16 - k)``, to about 1e-14."""
    hi, lo, bh, bl = (column.take(16 - k - _P0) for column in _tables()[0])
    p = a * hi  # an integer once k is right: it is above 2**53
    ah, al = _split(a)
    r = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo
    floor = np.floor(r)
    return p.astype(np.int64) + floor.astype(np.int64), r - floor


def _decimal(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 digits ``round(|v| 10**(16 - k))`` and exponent k of each value
    (Loitsch, PLDI 2010), and where they are exact: not at 0, ties or |v|
    outside 1e-280..1e280."""
    a = np.abs(v)
    fast = (a >= 10.0**-_EXP10_MAX) & (a <= 10.0**_EXP10_MAX)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    digits, frac = _scaled(a, k)
    # log10 may be one off next to a power of ten: scale again
    redo = np.flatnonzero((digits < 10**16) | (digits >= 10**17))
    k[redo] += np.where(digits[redo] < 10**16, -1, 1)
    digits[redo], frac[redo] = _scaled(a[redo], k[redo])
    fast &= np.abs(frac - 0.5) >= _TIE_MARGIN
    digits += frac > 0.5
    carry = digits == 10**17  # rounded up to 10**(k + 1)
    return np.where(carry, 10**16, digits), k + carry, fast


def _text(v: np.ndarray, digits: np.ndarray, k: np.ndarray) -> bytes:
    """The ``%g`` lines of the values, laid out by one column map per fixed-form
    exponent -4..16 and two for the exponent form (below and from e100)."""
    _, digit_table, columns = _tables()
    group = np.where((k >= -4) & (k <= 16), k + 4, 21 + (np.abs(k) >= 100))
    order = np.argsort(group, kind="stable")
    digits, k = digits[order], k[order]
    high = (digits // 10**8).astype(np.uint32)
    low = (digits - high * np.int64(10**8)).astype(np.uint32)
    # the first digit, then four chunks of 4 ("//" is faster than "%" here)
    chunks = np.array([high // 10**8, high // 10**4, high, low // 10**4, low])
    chunks[[1, 2, 4]] -= 10**4 * chunks[[0, 1, 3]]
    later = np.logical_or.accumulate(chunks[:0:-1] != 0)[::-1]  # a later chunk is not 0
    ext = np.empty((v.size, 52), np.uint8)
    ext[:, 0] = np.signbit(v[order]) * np.uint8(45)  # "-"
    ext[:, 1:21] = digit_table.take(chunks.T).view(np.uint8).reshape(-1, 20)
    chunks[:4] += np.uint32(10000) * ~later
    chunks[4] += 10000
    ext[:, 21:41] = digit_table.take(chunks.T).view(np.uint8).reshape(-1, 20)
    ext[:, 41] = later[0] * np.uint8(46)  # "."
    ext[:, 42] = np.where(k < 0, 45, 43)  # "-", "+"
    ext[:, 43:47] = digit_table.take(np.abs(k)).view(np.uint8).reshape(-1, 4)
    ext[:, 47:] = np.frombuffer(b"0.e\0\n", np.uint8)
    out = np.empty((v.size, 25), np.uint8)
    bounds = np.searchsorted(group[order], np.arange(24))
    for g in np.flatnonzero(np.diff(bounds)).tolist():
        rows = slice(bounds[g], bounds[g + 1])
        out[order[rows]] = ext[rows][:, columns[g]]
    del ext
    return out[out != 0].tobytes()


def _format_array(v: np.ndarray) -> list[str]:
    """:func:`_format_values` of a finite array: the digits of :func:`_decimal`
    written by :func:`_text` where they are exact, in slices of at most ``_SLICE``."""
    text = []
    for part in np.array_split(v, -(-v.size // _SLICE)):
        digits, k, fast = _decimal(part)
        lines = _text(part, digits, k).decode("ascii").split("\n")[:-1]
        slow = np.flatnonzero(~fast)
        for i, t in zip(slow.tolist(), _format_values(part[slow].tolist())):
            lines[i] = t
        text += lines
    return text


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
