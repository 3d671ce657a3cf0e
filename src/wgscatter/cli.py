"""Command-line interface: spectrum, figure, validate, search, dump-config.

Configuration files are JSON documents with explicit unit tags; unknown keys
are rejected.  All tabular output is CSV with '#'-prefixed key=value metadata
lines, every number serialized with 17 significant digits so repeated runs
are byte-identical.  Exit codes: 0 success, 1 check or optimization failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import search as search_mod
from . import sweep as sweep_mod
from . import validate as validate_mod
from .core import PHASE_NAMES, ConfigError, PhaseModel

GAMMA_UNITS = "Gamma_ref"
PHASE_UNITS = "radians"
#: Largest magnitude a configuration number may have.  Far past any physical
#: value, and far enough under the float range that the squares and products
#: of rates, detunings and phases in both engines stay finite.
MAX_MAGNITUDE = 1e100


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _reject_unknown(block, allowed: set[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing key {key!r} in {where}")
    return block[key]


def _finite(value, where: str) -> float:
    # Only JSON numbers: float() would also take true/false and "0.5".
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf  # a JSON integer past the float range
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if abs(number) > MAX_MAGNITUDE:
        raise ConfigError(f"{where} must be at most {MAX_MAGNITUDE:g} in magnitude, got {value!r}")
    return number


def _count(value, where: str) -> int:
    # bool is an int subclass; json true would otherwise count as 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def parse_config(doc: dict) -> tuple[sweep_mod.SweepSpec, search_mod.Objective | None]:
    """Validate a configuration document and build the internal objects."""
    if not isinstance(doc, dict):
        raise ConfigError("the configuration root must be an object")
    _reject_unknown(doc, {"system", "sweep", "objective"}, "config")
    system = _require(doc, "system", "config")
    _reject_unknown(
        system,
        {"family", "gamma_units", "gamma", "phase_units", "phases", "regime", "tau"},
        "system",
    )
    if _require(system, "gamma_units", "system") != GAMMA_UNITS:
        raise ConfigError(f'gamma_units must be "{GAMMA_UNITS}"')
    if _require(system, "phase_units", "system") != PHASE_UNITS:
        raise ConfigError(f'phase_units must be "{PHASE_UNITS}"')
    gamma = _require(system, "gamma", "system")
    if not (isinstance(gamma, list) and len(gamma) == 4):
        raise ConfigError("system.gamma must be a list of four rates")
    phases_doc = system.get("phases", {})
    _reject_unknown(phases_doc, set(PHASE_NAMES), "system.phases")
    regime = system.get("regime", "markovian")
    pm = PhaseModel(
        regime=regime,
        tau=_finite(system.get("tau", 0.0), "system.tau"),
        **{k: _finite(phases_doc.get(k, 0.0), f"system.phases.{k}") for k in PHASE_NAMES},
    )

    sweep_doc = _require(doc, "sweep", "config")
    _reject_unknown(sweep_doc, {"delta", "phase", "engine"}, "sweep")
    delta_doc = _require(sweep_doc, "delta", "sweep")
    _reject_unknown(delta_doc, {"min", "max", "count"}, "sweep.delta")
    delta_axis = sweep_mod.Axis(
        _finite(_require(delta_doc, "min", "sweep.delta"), "sweep.delta.min"),
        _finite(_require(delta_doc, "max", "sweep.delta"), "sweep.delta.max"),
        _count(_require(delta_doc, "count", "sweep.delta"), "sweep.delta.count"),
    )
    phase_axis = None
    phase_doc = sweep_doc.get("phase")
    if phase_doc is not None:
        _reject_unknown(phase_doc, {"min", "max", "count", "linkage"}, "sweep.phase")
        linkage_doc = _require(phase_doc, "linkage", "sweep.phase")
        if not isinstance(linkage_doc, dict):
            raise ConfigError("sweep.phase.linkage must be an object")
        linkage = tuple(
            sorted(
                (str(k), _finite(v, f"sweep.phase.linkage.{k}")) for k, v in linkage_doc.items()
            )
        )
        phase_axis = sweep_mod.PhaseAxis(
            _finite(_require(phase_doc, "min", "sweep.phase"), "sweep.phase.min"),
            _finite(_require(phase_doc, "max", "sweep.phase"), "sweep.phase.max"),
            _count(_require(phase_doc, "count", "sweep.phase"), "sweep.phase.count"),
            linkage=linkage,
        )
    spec = sweep_mod.SweepSpec(
        family=_require(system, "family", "system"),
        gammas=tuple(_finite(x, "system.gamma") for x in gamma),
        phases=pm,
        delta_axis=delta_axis,
        phase_axis=phase_axis,
        engine=sweep_doc.get("engine", "closed"),
    )

    objective = None
    if "objective" in doc:
        objective = _parse_objective(doc["objective"])
    return spec, objective


def _parse_objective(block: dict) -> search_mod.Objective:
    _reject_unknown(
        block,
        {"kind", "parameters", "purity_weight", "rate_weight", "min_reverse"},
        "objective",
    )
    params_doc = _require(block, "parameters", "objective")
    if not isinstance(params_doc, dict):
        raise ConfigError("objective.parameters must be an object")
    params: dict[str, object] = {}
    for name, spec in params_doc.items():
        where = f"objective.{name}"
        _reject_unknown(spec, {"fixed", "bounds", "linked", "factor"}, where)
        forms = [key for key in ("fixed", "bounds", "linked") if key in spec]
        if len(forms) != 1:
            raise ConfigError(f"{where} needs exactly one of fixed, bounds or linked")
        if "factor" in spec and forms != ["linked"]:
            raise ConfigError(f"{where}.factor is allowed only with linked")
        if "fixed" in spec:
            params[name] = search_mod.Fixed(_finite(spec["fixed"], f"{where}.fixed"))
        elif "bounds" in spec:
            if not (isinstance(spec["bounds"], list) and len(spec["bounds"]) == 2):
                raise ConfigError(f"{where}.bounds must be a list [lo, hi]")
            lo, hi = spec["bounds"]
            params[name] = search_mod.Bounds(
                _finite(lo, f"{where}.bounds"), _finite(hi, f"{where}.bounds")
            )
        else:
            params[name] = search_mod.Linked(
                str(spec["linked"]), _finite(spec.get("factor", 1.0), f"{where}.factor")
            )
    return search_mod.Objective(
        kind=_require(block, "kind", "objective"),
        parameters=params,  # type: ignore[arg-type]
        purity_weight=_finite(block.get("purity_weight", 1.0), "objective.purity_weight"),
        rate_weight=_finite(block.get("rate_weight", 1.0), "objective.rate_weight"),
        min_reverse=_finite(block.get("min_reverse", 0.0), "objective.min_reverse"),
    )


def dump_config(spec: sweep_mod.SweepSpec, objective=None) -> dict:
    """Canonical document for a sweep spec; parse_config round-trips it."""
    pm = spec.phases
    doc: dict = {
        "system": {
            "family": spec.family,
            "gamma_units": GAMMA_UNITS,
            "gamma": list(spec.gammas),
            "phase_units": PHASE_UNITS,
            "phases": {k: getattr(pm, k) for k in PHASE_NAMES},
            "regime": pm.regime,
            "tau": pm.tau,
        },
        "sweep": {
            "delta": {
                "min": spec.delta_axis.start,
                "max": spec.delta_axis.stop,
                "count": spec.delta_axis.count,
            },
            "phase": None
            if spec.phase_axis is None
            else {
                "min": spec.phase_axis.start,
                "max": spec.phase_axis.stop,
                "count": spec.phase_axis.count,
                "linkage": {k: v for k, v in spec.phase_axis.linkage},
            },
            "engine": spec.engine,
        },
    }
    if objective is not None:
        params = {}
        for name, p in objective.parameters.items():
            if isinstance(p, search_mod.Fixed):
                params[name] = {"fixed": p.value}
            elif isinstance(p, search_mod.Bounds):
                params[name] = {"bounds": [p.lo, p.hi]}
            else:
                params[name] = {"linked": p.to, "factor": p.factor}
        doc["objective"] = {
            "kind": objective.kind,
            "parameters": params,
            "purity_weight": objective.purity_weight,
            "rate_weight": objective.rate_weight,
            "min_reverse": objective.min_reverse,
        }
    return doc


def _metadata_lines(result: sweep_mod.SweepResult, extra: dict | None = None) -> list[str]:
    spec = result.spec
    pm = spec.phases
    lines = [
        f"# family={spec.family}",
        f"# gamma={','.join(_fmt(g) for g in spec.gammas)}",
        f"# gamma_units={GAMMA_UNITS}",
        f"# regime={pm.regime}",
        f"# tau={_fmt(pm.tau)}",
        f"# phases={','.join(f'{k}={_fmt(getattr(pm, k))}' for k in PHASE_NAMES)}",
        f"# delta_axis={_fmt(spec.delta_axis.start)},{_fmt(spec.delta_axis.stop)},"
        f"{spec.delta_axis.count}",
    ]
    if spec.phase_axis is None:
        lines.append("# phase_axis=none")
    else:
        ax = spec.phase_axis
        linkage = ";".join(f"{k}:{_fmt(v)}" for k, v in ax.linkage)
        lines.append(
            f"# phase_axis={_fmt(ax.start)},{_fmt(ax.stop)},{ax.count} linkage {linkage}"
        )
    lines.append(f"# engine={spec.engine}")
    if result.engine_discrepancy is not None:
        lines.append(f"# max_engine_discrepancy={_fmt(result.engine_discrepancy)}")
    for key, value in (extra or {}).items():
        lines.append(f"# {key}={value}")
    return lines


CSV_HEADER = ",".join(("delta", "phi", *sweep_mod.RATE_FIELDS, "flags"))

#: Data rows per chunk of the writer, which bounds its memory.  On a
#: 16-phase fig9, 256 rows wrote about 20% slower than 512, and 1024 about
#: 10% faster but, in some process layouts, with 3 MB more peak RSS.
CSV_CHUNK_ROWS = 512

#: Exponents of the exact path.  A value x = m * 2**e of decimal exponent
#: E has the 17 digits D = round(|x| * 10**k) with k = 16 - E, which is
#: m * 5**k / 2**t with t = -(e + k).  For E in [-11, 15], 5**k < 2**63,
#: and where t is in [1, 63] (about 1e-11 <= |x| < 2**51) D is computed
#: exactly in uint64.
_E_MIN, _E_MAX = -11, 15
_POW5 = np.array([5**k for k in range(17 - _E_MIN)], dtype=np.uint64)
_LOW32 = np.uint64(2**32 - 1)


def _at_least(n: int) -> float:
    """The least double at or above 10**n."""
    x = float(f"1e{n}")
    p, q = x.as_integer_ratio()
    return math.nextafter(x, math.inf) if p * 10 ** max(-n, 0) < q * 10 ** max(n, 0) else x


#: |x| >= _POW10[E - _E_MIN] exactly where |x| >= 10**E.
_POW10 = np.array([_at_least(n) for n in range(_E_MIN, _E_MAX + 2)])
#: The uint64 words of one value's text in a data row: the sign, "0.000",
#: the first digit and a point slot; four groups of four digits, each
#: followed by a point slot; "e-XX" and the comma.  Unused bytes are 0 and
#: are dropped when the row is written.
_WORDS = 6


def _bytes_table(rows, width: int) -> np.ndarray:
    """Byte strings as zero-padded rows of ``width`` bytes, viewed as words."""
    table = np.array(rows, dtype=f"S{width}").view(np.uint8).reshape(len(rows), width)
    return table.view(np.uint64)


def _text_tables():
    """The exact path's lookup tables.

    By exponent E - _E_MIN: the digit after which the point goes (-1: in
    the "0.000" prefix) and the last word.  The first word by (sign,
    exponent, first digit, point after it).  Each 4-digit group's digits
    and its count of trailing zeros.  The four group words' masks that keep
    digits 1 to K, by K, and their point after digit p, by p + 1 (none for
    p < 1).  The last three hold four words as one item.
    """
    exponents = range(_E_MIN, _E_MAX + 1)
    point = np.array([-1 if -4 <= exp < 0 else max(exp, 0) for exp in exponents])
    last = [(b"e-%02d," % -exp) if exp < -4 else b"," for exp in exponents]
    prefix = [b"0.000"[: 1 - exp] if -4 <= exp < 0 else b"" for exp in exponents]
    first = np.zeros((2, len(exponents), 10, 2, 8), np.uint8)
    first[1, ..., 0] = ord("-")
    first[..., 1:6] = _bytes_table(prefix, 8).view(np.uint8)[:, None, None, :5]
    first[..., 6] = np.arange(ord("0"), ord("9") + 1)[:, None]
    first[..., 1, 7] = ord(".")
    # Group n = abcd sits at [a, b, c, d].
    ascii = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    groups = np.zeros((10, 10, 10, 10, 8), np.uint8)
    trailing = np.zeros((10, 10, 10, 10), np.uint8)
    for j in range(4):
        groups[..., 2 * j] = ascii[(slice(None),) + (None,) * (3 - j)]
        trailing[(...,) + (0,) * (j + 1)] += 1
    keep = [b"\xff\0" * n for n in range(17)]
    dot = [b"", b""] + [b"\0" * (2 * p - 1) + b"." for p in range(1, 17)]
    return (
        point,
        _bytes_table(last, 8).ravel(),
        first.view(np.uint64).ravel(),
        groups.view(np.uint64).ravel(),
        trailing.ravel(),
        _bytes_table(keep, 32).view("V32"),
        _bytes_table(dot, 32).view("V32"),
    )


_POINT, _LAST, _FIRST, _GROUPS, _TRAILING, _KEEP, _DOT = _text_tables()


def _digits(mantissa, exp2, exp10):
    """The digits D = m * 5**k / 2**t of x = m * 2**exp2 at decimal
    exponent exp10, with k = 16 - exp10 and t = -(exp2 + k), rounded half
    to even, and where t is in [1, 63], the shifts they are exact for.
    m * 5**k is formed in two uint64 words of 32-bit limbs."""
    k = 16 - exp10
    t = -(exp2 + k)
    shift = np.minimum(np.maximum(t, 1), 63).astype(np.uint64)
    pow5 = _POW5[k]
    m_hi, m_lo = mantissa >> np.uint64(32), mantissa & _LOW32
    p_hi, p_lo = pow5 >> np.uint64(32), pow5 & _LOW32
    low = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi
    lo = low + (mid << np.uint64(32))
    hi = m_hi * p_hi + (mid >> np.uint64(32)) + (lo < low)
    truncated = (hi << (np.uint64(64) - shift)) | (lo >> shift)
    rest = lo & ((np.uint64(1) << shift) - np.uint64(1))
    half = np.uint64(1) << (shift - np.uint64(1))
    odd = (truncated & np.uint64(1)).astype(bool)
    rounded = truncated + ((rest > half) | ((rest == half) & odd))
    return rounded, (t >= 1) & (t <= 63)


def _decimal(values):
    """The 17 digits D and the decimal exponent E of each value, and where
    they are exact.

    E is floor(log10(2**(e + 52))) for x = m * 2**e, plus one where |x|
    reaches 10**(E + 1), which makes it exact.  D is exact for E in
    [_E_MIN, _E_MAX] where _digits says so, unless it rounds up to 10**17,
    which no double in that range does.  D and E are 0 where not exact.
    """
    bits = values.view(np.uint64)
    mantissa = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    exp2 = (bits >> np.uint64(52)).astype(np.int64) % 2048 - 1075
    exp10 = np.minimum(np.maximum((exp2 + 52) * 78913 >> 18, _E_MIN - 1), _E_MAX)
    exp10 += np.abs(values) >= _POW10[exp10 + 1 - _E_MIN]
    in_range = (exp10 >= _E_MIN) & (exp10 <= _E_MAX)
    np.minimum(np.maximum(exp10, _E_MIN), _E_MAX, out=exp10)
    digits, exact = _digits(mantissa, exp2, exp10)
    exact &= in_range & (digits < 10**17)
    digits[~exact] = 0
    exp10[~exact] = 0
    return digits, exp10, exact


def _fill_words(values, words) -> None:
    """Write the "%.17g" text and a comma of each value into its _WORDS
    words.

    Zeros and the values that _decimal gives exact digits for are laid out
    from the lookup tables; a zero is D = 0 at exponent 0, "0" or "-0".  The
    rest (subnormal, tiny, huge and non-finite values) are formatted with
    "%", once per distinct bit pattern, so -0.0 and NaN payloads keep their
    own text.  The patterns are sorted by Python: any numpy sort costs
    0.2-0.6 MB of resident memory on its first call.
    """
    digits, exp10, exact = _decimal(values)
    row = exp10 - _E_MIN
    point = _POINT[row]
    upper, lower = np.divmod(digits.astype(np.int64), 10**8)
    first, upper = np.divmod(upper, 10**8)
    groups = np.stack(np.divmod(upper, 10**4) + np.divmod(lower, 10**4), -1)
    # The last digit kept is the last nonzero one or the last of the
    # integer part; the point follows the integer part if a digit follows
    # it.
    zeros = _TRAILING[groups[..., 3]]
    for col, run in ((2, 4), (1, 8), (0, 12)):
        zeros += (zeros == run) * _TRAILING[groups[..., col]]
    last = 16 - zeros.astype(np.int64)
    dot = np.where(last > point, point, -1)
    sign = np.signbit(values).astype(np.int64)
    words[..., 0] = _FIRST[((sign * len(_POINT) + row) * 10 + first) * 2 + (dot == 0)]
    body = _GROUPS[groups]
    body &= _KEEP[np.maximum(last, point)].view(np.uint64)
    body |= _DOT[dot + 1].view(np.uint64)
    words[..., 1:5] = body
    words[..., 5] = _LAST[row]
    rest = ~exact & (values != 0)
    if rest.any():
        rest_bits = values.view(np.uint64)[rest]
        distinct = np.array(sorted(set(rest_bits.tolist())), dtype=np.uint64)
        texts = [_fmt(x).encode() + b"," for x in distinct.view(np.float64)]
        words[rest] = _bytes_table(texts, 8 * _WORDS)[np.searchsorted(distinct, rest_bits)]


def _text_words(texts, end: bytes) -> np.ndarray:
    """Each text and ``end`` as one zero-padded row of words."""
    rows = [text.encode() + end for text in texts]
    return _bytes_table(rows, -(-max(map(len, rows)) // 8) * 8)


def write_csv(
    result: sweep_mod.SweepResult, stream, extra: dict | None = None, panels=()
) -> None:
    """Emit the grid in detuning-major row order with metadata up front.

    ``panels`` are further (stream, extra) pairs: each gets its own metadata
    and the same data rows, written in the same pass.  Every number reads
    as "%.17g" prints it.  CSV_CHUNK_ROWS rows at a time are built as one
    zero-padded matrix of uint64 words, a row per CSV row: the delta and
    phi texts (formatted once per sweep), the rates (_fill_words) and the
    flag text.  A chunk's text is the matrix's bytes without the zeros, so
    memory stays bounded whatever the grid size; it goes to every stream.
    """
    outs = ((stream, extra), *panels)
    for out, meta in outs:
        out.write("".join(f"{line}\n" for line in (*_metadata_lines(result, meta), CSV_HEADER)))
    n_phi = result.phi.size
    n_rows = n_phi * result.delta.size
    delta_text = _text_words([_fmt(x) for x in result.delta], b",")
    phi_text = _text_words([_fmt(x) for x in result.phi], b",")
    flag_text = _text_words(sweep_mod.FLAG_TEXT, b"\n")
    n_rates = len(sweep_mod.RATE_FIELDS)
    edges = np.cumsum(
        [0, delta_text.shape[1], phi_text.shape[1], n_rates * _WORDS, flag_text.shape[1]]
    )
    # The matrix lives in a bytearray, whose zero bytes translate() drops
    # without a copy of the matrix; rows past a short last chunk are zeroed.
    text = bytearray(min(n_rows, CSV_CHUNK_ROWS) * edges[-1] * 8)
    matrix = np.frombuffer(text, np.uint64).reshape(-1, edges[-1])
    values = np.empty((matrix.shape[0], n_rates))
    for start in range(0, n_rows, CSV_CHUNK_ROWS):
        stop = min(start + CSV_CHUNK_ROWS, n_rows)
        rows = matrix[: stop - start]
        matrix[stop - start :] = 0
        j, i = np.divmod(np.arange(start, stop), n_phi)
        rows[:, edges[0] : edges[1]] = delta_text[j]
        rows[:, edges[1] : edges[2]] = phi_text[i]
        block = values[: stop - start]
        for col, name in enumerate(sweep_mod.RATE_FIELDS):
            block[:, col] = result.rates[name][i, j]
        _fill_words(block, rows[:, edges[2] : edges[3]].reshape(-1, n_rates, _WORDS))
        rows[:, edges[3] :] = flag_text[result.codes[i, j]]
        chunk = text.translate(None, b"\0").decode()
        for out, _ in outs:
            out.write(chunk)


def result_as_json(result: sweep_mod.SweepResult) -> dict:
    spec = result.spec
    payload = {
        "metadata": {
            "family": spec.family,
            "gammas": spec.gammas,
            "regime": spec.phases.regime,
            "tau": spec.phases.tau,
            "engine": spec.engine,
        },
        "delta": [float(x) for x in result.delta],
        "phi": [float(x) for x in result.phi],
        "rates": {k: result.rates[k].tolist() for k in sweep_mod.RATE_FIELDS},
        "flags": sweep_mod.FLAG_TEXT[result.codes].tolist(),
    }
    if result.engine_discrepancy is not None:
        payload["max_engine_discrepancy"] = result.engine_discrepancy
    return payload


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse failure at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _create(path):
    """open(path, "w") on a new file; a path that cannot be written is a
    config error.

    An existing regular file is unlinked first, so the output is a new file
    (default permissions; other hard links keep the old content): on some
    file systems truncating a just-written file in place stalls for tens to
    hundreds of milliseconds.  A symlink, device or FIFO is opened as it is;
    opening a FIFO waits for its reader, and `figure` opens all of a sweep's
    panels before it writes any.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:
        pass  # missing, or not removable: the open below decides
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return _create(path), True


def _cmd_spectrum(args) -> int:
    spec, _ = parse_config(_load_config(args.config))
    if args.engine:
        spec = replace(spec, engine=args.engine)
    result = sweep_mod.run_sweep(spec)
    stream, close = _open_out(args.out)
    try:
        if args.json:
            json.dump(result_as_json(result), stream, indent=2)
            stream.write("\n")
        else:
            write_csv(result, stream)
    finally:
        if close:
            stream.close()
    return 0


def _recount(preset: sweep_mod.FigurePreset, axis, option: str, count: int):
    """A preset's axis with ``count`` points from the command line."""
    if count == 1 and axis.start != axis.stop:
        raise ConfigError(
            f"{option} 1: the {preset.figure} preset's axis from {_fmt(axis.start)} "
            f"to {_fmt(axis.stop)} needs at least 2 points"
        )
    return replace(axis, count=count)


def _cmd_figure(args) -> int:
    preset = sweep_mod.figure_preset(args.id)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from exc
    # Every spec is built (and so validated) before any sweep runs or any
    # file is written.
    specs = {}
    for key, spec in preset.sweeps.items():
        if args.delta_count is not None:
            axis = _recount(preset, spec.delta_axis, "--delta-count", args.delta_count)
            spec = replace(spec, delta_axis=axis)
        if args.phase_count is not None and spec.phase_axis is not None:
            axis = _recount(preset, spec.phase_axis, "--phase-count", args.phase_count)
            spec = replace(spec, phase_axis=axis)
        specs[key] = spec
    if args.phase_count is not None and all(s.phase_axis is None for s in specs.values()):
        raise ConfigError(f"{args.id} has no phase axis for --phase-count")
    # One pass per sweep: a preset lists each sweep's panels together, and a
    # sweep's grids are dropped before the next sweep runs, so only one is
    # held at a time.  All of a sweep's panels are open at once, and one
    # write_csv call writes each formatted chunk to every one of them.
    for key, panels in itertools.groupby(preset.panels, key=attrgetter("sweep")):
        result = sweep_mod.run_sweep(specs[key])
        panels = list(panels)
        paths = [out_dir / f"{preset.figure}{panel.panel}.csv" for panel in panels]
        with contextlib.ExitStack() as stack:
            outs = [
                (
                    stack.enter_context(_create(path)),
                    {"figure": preset.figure, "panel": panel.panel, "column": panel.column},
                )
                for path, panel in zip(paths, panels)
            ]
            write_csv(result, *outs[0], panels=outs[1:])
        for path in paths:
            print(path)
        del result
    return 0


def _cmd_validate(args) -> int:
    report = validate_mod.run_validation(draws=args.draws, seed=args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_search(args) -> int:
    spec, objective = parse_config(_load_config(args.config))
    if objective is None:
        raise ConfigError("the configuration has no objective block")
    if spec.family != search_mod.FAMILY:
        raise ConfigError(
            f"search optimizes the {search_mod.FAMILY} layout, "
            f"not system.family {spec.family!r}"
        )
    try:
        report = search_mod.grid_refine_search(objective, budget=args.budget)
    except search_mod.NoFeasiblePointError as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 1
    stream, close = _open_out(args.out)
    try:
        if args.json:
            payload = {
                "best_params": report.best_params,
                "objective_value": report.objective_value,
                "rates": dict(zip(sweep_mod.RATE_FIELDS, report.rates.as_row())),
                "evaluations": report.evaluations,
                "degenerate_plateau": report.degenerate_plateau,
                "solver_discrepancy": report.solver_discrepancy,
                "trace": [
                    {"evaluation": e, "value": v, "point": list(pt)}
                    for e, v, pt in report.trace
                ],
            }
            json.dump(payload, stream, indent=2)
            stream.write("\n")
        else:
            stream.write("# search report\n")
            for name in sorted(report.best_params):
                stream.write(f"param {name}={_fmt(report.best_params[name])}\n")
            stream.write(f"objective={_fmt(report.objective_value)}\n")
            for name, value in zip(sweep_mod.RATE_FIELDS, report.rates.as_row()):
                stream.write(f"rate {name}={_fmt(value)}\n")
            stream.write(f"evaluations={report.evaluations}\n")
            stream.write(f"degenerate_plateau={report.degenerate_plateau}\n")
            stream.write(f"solver_discrepancy={_fmt(report.solver_discrepancy)}\n")
            for e, v, pt in report.trace:
                point = ",".join(_fmt(x) for x in pt)
                stream.write(f"trace {e} {_fmt(v)} {point}\n")
    finally:
        if close:
            stream.close()
    return 0


def _cmd_dump_config(args) -> int:
    if args.figure and args.config:
        raise ConfigError("dump-config takes a config path or --figure, not both")
    if args.figure:
        preset = sweep_mod.figure_preset(args.figure)
        key = sorted(preset.sweeps)[0]
        doc = dump_config(preset.sweeps[key])
    else:
        if not args.config:
            raise ConfigError("dump-config needs a config path or --figure")
        spec, objective = parse_config(_load_config(args.config))
        doc = dump_config(spec, objective)
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgscatter",
        description="Single-photon scattering spectra for atom-bridged waveguide pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="run a sweep from a config file, emit CSV")
    p.add_argument("config")
    p.add_argument("--engine", choices=sweep_mod.ENGINES)
    p.add_argument("--out", default="-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("figure", help="emit the CSV set for a named preset")
    p.add_argument("id", choices=sweep_mod.FIGURE_IDS)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--delta-count", type=int)
    p.add_argument("--phase-count", type=int)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("validate", help="random-draw conservation and oracle checks")
    p.add_argument("--draws", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("search", help="optimize parameters for a config's objective")
    p.add_argument("config")
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--out", default="-")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("dump-config", help="print the canonical form of a config")
    p.add_argument("config", nargs="?")
    p.add_argument("--figure", choices=sweep_mod.FIGURE_IDS)
    p.set_defaults(func=_cmd_dump_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader went away (e.g. `| head`).  Point stdout at devnull so
        # the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
