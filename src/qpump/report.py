"""Analysis pipeline and deterministic report serialization.

Reports are plain JSON documents.  Serialization is deterministic: keys
keep their insertion order, floats are written with 17 significant digits
(enough to round-trip IEEE doubles exactly), and nothing time- or
machine-dependent enters the document, so identical configurations yield
byte-identical reports.  A document is written as byte tables: a record
text with a NUL-padded field per float, repeated per row (a table per
float array of rank 2 or more, and one for the text between).
Its floats are formatted as one block, the same bytes as
:func:`format_float` per value: a large block with array arithmetic, each
distinct value once, except zeros, values outside 1e-280..1e280 and
17-digit near-ties, which go through ``%.17g`` as small blocks do.
The padding is stripped once, from the whole text.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps does to a str

import numpy as np

from .errors import ConfigError, NumericalFailure
from .matcore import ROUNDING_FLOOR, _number
from .models import ModelConfig
from .optimal import OptimalityVerdict, optimality_verdict
from .shift import energy_shift_at, energy_shift_cycle
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

SPEC_VERSION = "1.2"

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
#: A float's field in a byte table: its text, NUL-padded to the longest,
#: "-2.2250738585072014e-308".
_WIDTH = 24
_FIELD = "\0" * _WIDTH


def format_float(value: float) -> str:
    """17-significant-digit decimal form that parses back to the same double;
    :class:`NumericalFailure` on NaN and +/-inf, which strict JSON cannot carry."""
    return dumps(float(value))[:-1]


def _format_values(values: list) -> np.ndarray:
    """Each value as ``%.17g``, plus ".0" where that reads as an integer: a
    row of ``_WIDTH`` bytes each."""
    text = ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]
    text = [t if "." in t or "e" in t else t + ".0" for t in text]
    return np.array(text, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)


def _format_block(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Texts of the entries of a float array as :func:`_format_values` writes
    them, and the row of each entry in C order, after naming the first
    non-finite entry in C order.  A block of at least ``_ARRAY_MIN`` entries
    has a row per distinct bit pattern (0.0 and -0.0 differ): the digits of
    :func:`_decimal` laid out by :func:`_text` where they are exact, in slices
    of at most ``_SLICE`` values."""
    flat = np.asarray(x, dtype=np.float64).ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        bad = format(float(flat[~finite][0]), ".17g")
        raise NumericalFailure(f"non-finite value {bad} in the report")
    if flat.size < _ARRAY_MIN:
        return _format_values(flat.tolist()), np.arange(flat.size)
    bits = flat.view(np.uint64)
    # rotated left, the bits sort by magnitude, then sign: each exponent is one run
    keys, index = np.unique(bits << 1 | bits >> 63, return_inverse=True)
    v = (keys >> 1 | keys << 63).view(np.float64)
    rows = np.zeros((v.size, _WIDTH), np.uint8)
    for start in range(0, v.size, _SLICE):
        part, out = v[start:start + _SLICE], rows[start:start + _SLICE]
        digits, k, fast = _decimal(part)
        _text(out, part, digits, k)
        slow = np.flatnonzero(~fast)
        out[slow] = _format_values(part[slow].tolist())
    return rows, index


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


@cache
def _tables() -> tuple:
    """The power table and the four ASCII digits of 0..9999 as '<u4' entries,
    then the same with trailing zeros as NUL; built on the first large block."""
    chunk = np.empty((2, 10000, 4), np.uint8)
    chunk[:] = np.indices((10,) * 4, dtype=np.uint8).reshape(4, 10000).T + np.uint8(48)
    for j in range(4):  # digit j of i is trailing when 10**(4 - j) divides i
        chunk[1, :: 10 ** (4 - j), j] = 0
    return _pow10_table(), chunk.view("<u4").ravel()


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
    outside 1e-280..1e280 (clipped into it, so that k grows with |v|)."""
    a = np.abs(v)
    fast = (a >= 10.0**-_EXP10_MAX) & (a <= 10.0**_EXP10_MAX)
    np.clip(a, 10.0**-_EXP10_MAX, 10.0**_EXP10_MAX, out=a)
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


def _text(out: np.ndarray, v: np.ndarray, digits: np.ndarray, k: np.ndarray) -> None:
    """Write the ``%g`` text of each value into its zeroed row of ``out``: a
    few slice copies from the digit tables per run of rows of one form (fixed
    for each exponent -4..16, else with two or three exponent digits)."""
    digit_table = _tables()[1]
    high = (digits // 10**8).astype(np.uint32)
    low = (digits - high * np.int64(10**8)).astype(np.uint32)
    # the first digit, then four chunks of 4 ("//" is faster than "%" here)
    chunks = np.array([high // 10**8, high // 10**4, high, low // 10**4, low])
    chunks[[1, 2, 4]] -= 10**4 * chunks[[0, 1, 3]]
    later = chunks[1:] != 0  # then "a later chunk is not 0" (accumulate is 20x slower)
    for j in (2, 1, 0):
        later[j] |= later[j + 1]
    # digit j at column 3 + j, in full and with trailing zeros as NUL
    full = digit_table.take(chunks.T).view(np.uint8).reshape(-1, 20)
    chunks[:4] += np.uint32(10000) * ~later
    chunks[4] += 10000
    stripped = digit_table.take(chunks.T).view(np.uint8).reshape(-1, 20)
    exponent = digit_table.take(np.abs(k)).view(np.uint8).reshape(-1, 4)
    out[:, 0] = np.signbit(v) * np.uint8(45)  # "-"
    form = np.clip(k, -5, 17) + (k >= 100) - (k <= -100)
    bounds = [0, *(np.flatnonzero(np.diff(form)) + 1).tolist(), v.size]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        f, row, d, z = int(form[start]), out[start:stop], full[start:stop], stripped[start:stop]
        if -4 <= f < 0:  # "0.000" and the digits
            row[:, 1:2 - f] = np.frombuffer(b"0.000"[:1 - f], np.uint8)
            row[:, 2 - f:19 - f] = z[:, 3:]
        elif 0 <= f <= 16:
            row[:, 1:f + 2] = d[:, 3:f + 4]
            row[:, f + 2] = 46  # "."
            row[:, f + 3:19] = z[:, f + 4:]
            row[:, f + 3] |= 48  # the first fraction digit is kept: "1200.0", not "1200."
        else:  # "d.ddde-05", "d.ddde+123"
            wide = f in (-6, 18)
            row[:, 1] = d[:, 3]
            row[:, 2] = later[0, start:stop] * np.uint8(46)
            row[:, 3:19] = z[:, 4:]
            row[:, 19:21] = np.frombuffer(b"e-" if f < 0 else b"e+", np.uint8)
            row[:, 21:23 + wide] = exponent[start:stop, 2 - wide:]


def _layout(shape: tuple, pad: str) -> str:
    """The nested JSON arrays of ``shape`` at indent ``pad``, laid out as
    :func:`_emit` lays out lists, with a field per innermost entry."""
    if not shape:
        return _FIELD
    if not shape[0]:
        return "[]"
    inner = pad + "  "
    item = _layout(shape[1:], inner)
    return "[\n" + inner + (",\n" + inner).join([item] * shape[0]) + "\n" + pad + "]"


def _array(values: np.ndarray, pad: str, out: list, tables: list, floats: list) -> None:
    """The nested JSON arrays of ``values`` at indent ``pad``: one of rank 0 or 1,
    or empty, in place, else the text in ``out`` so far becomes a one-record table,
    and the entries along the first axis the next table, a record per entry."""
    floats.append(values.ravel())
    if values.ndim <= 1 or not len(values):
        out.append(_layout(values.shape, pad))
        return
    item = _layout(values.shape[1:], pad + "  ")
    tables += [("".join(out), 1), (",\n" + pad + "  " + item, len(values))]
    out[:] = ["\n" + pad + "]"]


def _emit(obj, indent: int, out: list, tables: list, floats: list) -> None:
    """Append the text of ``obj`` to ``out`` with a field per float, and its
    floats to ``floats``; a float array of rank 2 or more is a table (:func:`_array`)."""
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
            _emit(value, indent + 1, out, tables, floats)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + brackets[1])
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        _array(obj, pad, out, tables, floats)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_FIELD)
        floats.append([float(obj)])
    elif isinstance(obj, str):
        out.append(_quote(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write(tables: list, floats: list) -> str:
    """The text of ``tables``, ``(record, count)`` pairs, whose fields hold the
    texts of ``floats`` in order, formatted as one block; a record that starts
    with "," (an item of a JSON array) starts with "[" the first time."""
    # np.empty(0) keeps the concatenation defined for a document without floats
    rows, index = _format_block(np.concatenate([np.empty(0), *floats]))
    lines = [(record.encode(), count) for record, count in tables if record]
    text = bytearray(sum(len(line) * count for line, count in lines))
    at = start = 0
    for line, count in lines:
        table = np.frombuffer(text, np.uint8, len(line) * count, at).reshape(count, -1)
        table[:] = np.frombuffer(line, np.uint8)
        fields = np.flatnonzero(table[0] == 0)  # every byte of every field
        block = index[start:start + count * fields.size // _WIDTH].reshape(count, -1)
        if count == 1:  # one assignment
            table[0, fields] = rows[block[0]].ravel()
        else:  # a slice per field
            for j, field in enumerate(fields[::_WIDTH].tolist()):
                table[:, field:field + _WIDTH] = rows[block[:, j]]
        if line.startswith(b","):
            table[0, 0] = ord("[")
        at, start = at + table.size, start + block.size
    # no byte of the text is NUL (_quote writes "\u0000"): what is left of it is padding
    text = text.translate(None, b"\0")  # and the padded text is freed
    return text.decode()


def dumps(obj) -> str:
    """Deterministic JSON text (insertion-ordered keys, 17-digit floats) of JSON
    values and float arrays, written as their list form; anything else is a
    :class:`TypeError`.  The text is a few byte tables, each a record with a NUL-padded
    field per float repeated per row; all floats are formatted as one block."""
    out, tables, floats = [], [], []
    _emit(obj, 0, out, tables, floats)
    return _write([*tables, ("".join(out) + "\n", 1)], floats)


def _verdict_entry(verdict: OptimalityVerdict) -> dict:
    decomposition = None
    if verdict.decomposition is not None:
        phases, constant = verdict.decomposition
        decomposition = {"initial_phases": phases[0], "constant_real": constant.real,
                         "constant_imag": constant.imag}
    return {"is_optimal": verdict.is_optimal, "max_offdiag_ratio": verdict.max_offdiag_ratio,
            "worst_time": verdict.worst_time,
            "per_channel_saturation": [bool(b) for b in verdict.per_channel_saturation],
            "decomposition": decomposition}


@dataclass(frozen=True, eq=False)
class AnalysisResult:
    """Analysis outputs: the document :func:`dumps` writes (its "instants" are
    columns of the stacked per-time report), that report, and the optimality
    verdict (whose off-diagonal ratios complete the time series)."""

    document: dict
    instants: InstantReport
    verdict: OptimalityVerdict

    @property
    def csv_text(self) -> str:
        """The time series as CSV: ``t, Qdot_1..n, D_1..n[, Sdot_1..n,
        Ndot_1..n], rho``; formatted on demand."""
        report = self.instants
        rates = {} if report.sdot is None else {"Sdot": report.sdot, "Ndot": report.ndot}
        blocks = {"Qdot": report.qdot, "D": report.total_dissipation, **rates}
        channels = range(1, report.qdot.shape[1] + 1)
        header = ["t", *(f"{name}_{j}" for name in blocks for j in channels), "rho"]
        table = np.column_stack([report.t, *blocks.values(), self.verdict.ratios])
        record = ",".join([_FIELD] * table.shape[1]) + "\n"
        return _write([(",".join(header) + "\n", 1), (record, len(table))], [table.ravel()])


def _regime(config: ModelConfig) -> tuple[float, bool | None]:
    """The cycle's adiabaticity ``omega tau`` (``omega = 2 pi / T``, ``tau = |delay|``) and
    whether its entropy and noise rates hold, ``omega < 1/beta < 1/tau``; None without beta."""
    omega, tau, beta = 2.0 * np.pi / config.pump.period, abs(config.pump.delay), config.beta
    return omega * tau, None if beta is None else bool(omega * beta < 1.0 and tau < beta)


def analyze(config: ModelConfig) -> AnalysisResult:
    """Run the full cycle analysis a configuration describes."""
    model, grid, tol, mu = config.pump, config.grid, config.tolerances, config.mu

    # S(t, mu) is sampled once; every stage below reuses it.
    samples = model.sample(grid.times, mu)
    shifts, herm_defect = energy_shift_cycle(samples, grid)
    epsilon, regime_ok = _regime(config)

    instants = instant_report(shifts, grid.times, beta=config.beta)
    verdict = optimality_verdict(shifts, samples, instants, grid, tol)

    charge = cycle_integral(instants.qdot, grid)
    winding = None
    if verdict.is_optimal:
        winding = winding_charge(model, mu, samples, verdict)
        gap = float(np.max(np.abs(charge - winding)))
        # a ratio below tol_opt still leaves a charge gap second order in it
        slack = grid.period * verdict.scale * verdict.max_offdiag_ratio**2
        # rounding of the charge sum, of size T max_t |Qdot_j|: resolved optimal
        # built-ins reach 4.4 eps of it (N up to 2**18, T in [1e-3, 1e3])
        floor = ROUNDING_FLOOR * grid.period * float(np.abs(instants.qdot).max())
        if gap >= max(tol.tol_charge, floor) + slack:
            raise NumericalFailure(f"cycle charge differs from winding integers by {gap:.3e} "
                                   f"(max(tol_charge {tol.tol_charge:g}, rounding {floor:.3e}) "
                                   f"+ verdict {slack:.3e})")

    warnings: list[str] = []
    flagged = np.flatnonzero(herm_defect >= tol.tol_herm)
    if flagged.size:
        first = flagged[0]
        warnings.append(f"elevated hermiticity defect on {flagged.size} of {grid.samples} "
                        f"samples; worst: hermiticity defect {herm_defect[first]:.3e} at "
                        f"t={grid.times[first]:.6g} exceeds {tol.tol_herm:g}")
    if epsilon >= ADIABATICITY_WARN:
        warnings.append(f"adiabaticity parameter {epsilon:.6g} >= {ADIABATICITY_WARN}; "
                        "the instantaneous description is questionable for this cycle")
    if regime_ok is False:
        warnings.append("entropy/noise regime check failed: need omega < 1/beta < 1/tau")

    document = {
        "config": config.raw,
        "instants": {"t": instants.t, "Qdot": instants.qdot, "D": instants.total_dissipation,
                     "Xs": instants.excess},
        "cycle": {
            "charge": charge,
            "winding": None if winding is None else [int(w) for w in winding],
            "dissipated_per_cycle": cycle_integral(instants.total_dissipation, grid),
            "adiabaticity": epsilon,
            "regime_ok": regime_ok,
            "period": grid.period,
            "samples": grid.samples,
        },
        "optimality": _verdict_entry(verdict),
        "warnings": warnings,
        "versions": {"spec_version": SPEC_VERSION, "tolerances": asdict(tol)},
    }
    return AnalysisResult(document=document, instants=instants, verdict=verdict)


def instant_document(config: ModelConfig, t: float) -> dict:
    """The ``pump instant`` document at t in [0, period): ``t``, the (n,) columns
    ``Qdot``, ``D``, ``Xs``, ``r`` (then ``Sdot``, ``Ndot`` with beta) and
    ``regime_ok``, true without beta.  ``t`` that is not a real number in that range
    is a :class:`ConfigError` on ``t``."""
    model, t = config.pump, _number(t, "t")
    if not (0.0 <= t < model.period):
        raise ConfigError("t", f"must lie in [0, {model.period!r}), got {t!r}")
    report = instant_report(energy_shift_at(model, t, config.mu, config.samples), t,
                            config.beta)
    rates = {} if report.sdot is None else {"Sdot": report.sdot, "Ndot": report.ndot}
    return {"t": t, "Qdot": report.qdot, "D": report.total_dissipation, "Xs": report.excess,
            "r": report.residual, **rates, "regime_ok": _regime(config)[1] is not False}
