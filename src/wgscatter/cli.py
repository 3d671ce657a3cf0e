"""Command-line interface: spectrum, figure, validate, search, dump-config.

Configuration files are JSON documents with explicit unit tags; unknown keys
are rejected.  All tabular output is CSV with '#'-prefixed key=value metadata
lines, every number serialized with 17 significant digits so repeated runs
are byte-identical.  Exit codes: 0 success, 1 check or optimization failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import stat
import sys
from dataclasses import replace
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

#: Data rows formatted per string operation; bounds the writer's memory.
CSV_CHUNK_ROWS = 1024

#: One data row: "%.17g" gives the same text as f"{x:.17g}" (nan, inf and
#: -0 included).  delta, phi and the flag text arrive as strings.
_ROW_FORMAT = "%s,%s," + "%.17g," * len(sweep_mod.RATE_FIELDS) + "%s\n"


def _csv_head(result: sweep_mod.SweepResult, extra: dict | None) -> str:
    return "".join(line + "\n" for line in _metadata_lines(result, extra)) + CSV_HEADER + "\n"


def write_csv(result: sweep_mod.SweepResult, stream, extra: dict | None = None) -> None:
    """Emit the grid in detuning-major row order with metadata up front.

    Rows are formatted CSV_CHUNK_ROWS at a time with one %-format over a
    chunk's values, so memory stays bounded whatever the grid size.
    """
    stream.write(_csv_head(result, extra))
    n_phi = result.phi.size
    n_rows = n_phi * result.delta.size
    delta_text = np.array([_fmt(x) for x in result.delta], dtype=object)
    phi_text = np.array([_fmt(x) for x in result.phi], dtype=object)
    for start in range(0, n_rows, CSV_CHUNK_ROWS):
        stop = min(start + CSV_CHUNK_ROWS, n_rows)
        j, i = np.divmod(np.arange(start, stop), n_phi)
        block = np.empty((stop - start, len(sweep_mod.RATE_FIELDS) + 3), dtype=object)
        block[:, 0] = delta_text[j]
        block[:, 1] = phi_text[i]
        for col, name in enumerate(sweep_mod.RATE_FIELDS, start=2):
            block[:, col] = result.rates[name][i, j]
        block[:, -1] = sweep_mod.FLAG_TEXT[result.codes[i, j]]
        stream.write(_ROW_FORMAT * (stop - start) % tuple(block.ravel().tolist()))


def _copy_data_rows(source: Path, head_lines: int, head: str, path: Path) -> None:
    """Write ``head`` to ``path``, then the data rows of the CSV at ``source``."""
    with open(source, "rb") as src, _create(path) as dst:
        for _ in range(head_lines):
            src.readline()
        dst.write(head)
        dst.flush()
        shutil.copyfileobj(src, dst.buffer)


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
    hundreds of milliseconds.  A symlink, device or FIFO is opened as it is.
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


def _cmd_figure(args) -> int:
    preset = sweep_mod.figure_preset(args.id)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from exc
    results = {}
    for key, spec in preset.sweeps.items():
        if args.delta_count:
            spec = replace(spec, delta_axis=replace(spec.delta_axis, count=args.delta_count))
        if args.phase_count and spec.phase_axis is not None:
            spec = replace(spec, phase_axis=replace(spec.phase_axis, count=args.phase_count))
        results[key] = sweep_mod.run_sweep(spec)
    # Panels of one sweep share their data rows: the first panel formats
    # them and each later one copies them after its own metadata.
    first_panels: dict[str, tuple[Path, int]] = {}
    for panel in preset.panels:
        path = out_dir / f"{preset.figure}{panel.panel}.csv"
        result = results[panel.sweep]
        extra = {"figure": preset.figure, "panel": panel.panel, "column": panel.column}
        if panel.sweep in first_panels:
            _copy_data_rows(*first_panels[panel.sweep], _csv_head(result, extra), path)
        else:
            with _create(path) as stream:
                write_csv(result, stream, extra=extra)
            first_panels[panel.sweep] = (path, _csv_head(result, extra).count("\n"))
        print(path)
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
    p.add_argument("--delta-count", type=int, default=0)
    p.add_argument("--phase-count", type=int, default=0)
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
