"""Span tracing of wgscatter, installed from the benchmark's side.

`Tracer.install` wraps the public functions of each wgscatter module.  A
wrapper replaces every module attribute that refers to the function, which
includes names bound by ``from .core import rates_from_amplitudes`` inside
``sweep``, ``validate`` and ``search``: callers look those names up in their
own module at call time, so patching ``core`` alone would miss them.

Each span is kept in memory as [name, start, end, parent index, command id];
`write` saves them when the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

KERNELS = (
    "overlap_forward_fields",
    "separated_forward_fields",
    "spectator_reverse_fields",
    "giant_forward_fields",
    "giant_reverse_fields",
    "mirrored_forward_fields",
    "mirrored_reverse_fields",
)
BUILDERS = (
    "small_overlap",
    "small_separated",
    "giant",
    "semi_infinite",
    "reverse_small",
    "reverse_giant",
    "reverse_semi_infinite",
)

ROOT_SPAN = "cli.main"


def _csv_after(tracer: Tracer, args, result) -> None:
    sweep_result, stream = args[0], args[1]
    rows = sweep_result.delta.size * sweep_result.phi.size
    tracer.counts["cli.rows"] += rows
    key = (tracer.cmd, id(sweep_result))
    if key in tracer.written:
        tracer.counts["cli.rows_reformatted"] += rows
    tracer.written.add(key)
    try:
        # cli opens a fresh file per table, so the end position is its size.
        tracer.counts["cli.bytes"] += stream.tell()
    except (OSError, ValueError):
        pass


def _sweep_after(tracer: Tracer, args, result) -> None:
    tracer.counts["sweep.cells"] += result.rates["T_Ng"].size
    for row in result.flags:
        for flags in row:
            if flags:
                tracer.counts["sweep.flagged"] += 1
                if "singular" in flags:
                    tracer.counts["sweep.singular"] += 1


def _kernel_after(tracer: Tracer, args, result) -> None:
    tracer.counts["closed_form.points"] += result.singular.size


def _solve_after(tracer: Tracer, args, result) -> None:
    if "ill_conditioned" in result.flags:
        tracer.counts["solver.ill_conditioned"] += 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.current = -1
        self.cmd = -1
        self.written: set[tuple[int, int]] = set()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, errors: tuple = ()):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            record = [name, 0.0, 0.0, parent, tracer.cmd]
            tracer.current = len(tracer.spans)
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                record[2] = perf_counter()
                tracer.current = parent
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def command(self, main, argv):
        """Call main(argv) as a new command under a root span."""
        self.cmd += 1
        return self._wrap(ROOT_SPAN, main)(argv)

    # -- installation ----------------------------------------------------

    def _targets(self):
        from wgscatter import cli, closed_form, configs, core, search, solver, sweep, validate

        yield "cli.write_csv", cli.write_csv, _csv_after, ()
        yield "cli.parse_config", cli.parse_config, None, ()
        yield "sweep.run_sweep", sweep.run_sweep, _sweep_after, ()
        for name in KERNELS:
            yield "closed_form.kernel", getattr(closed_form, name), _kernel_after, ()
        for name in BUILDERS:
            yield "configs.build", getattr(configs, name), None, ()
        yield "solver.solve", solver.solve, _solve_after, (core.DegenerateConfigError,)
        yield "solver.build_layout", solver.build_layout, None, ()
        yield "solver.assemble", solver.assemble, None, ()
        yield "core.rates", core.rates_from_amplitudes, None, ()
        yield "core.combine", core.combine_directions, None, ()
        yield "validate.run_validation", validate.run_validation, None, ()
        yield "validate.pair_discrepancy", validate.pair_discrepancy, None, ()
        yield "validate.hybrid_residual", validate.hybrid_residual, None, ()
        yield "search.grid_refine_search", search.grid_refine_search, None, ()
        yield "search.rates_at_resonance", search.rates_at_resonance, None, (core.SingularityError,)

    def install(self) -> None:
        if not self._patches:
            modules = [m for n, m in sys.modules.items() if n == "wgscatter" or n.startswith("wgscatter.")]
            for name, fn, after, errors in list(self._targets()):
                wrapper = self._wrap(name, fn, after, errors)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is fn:
                            self._patches.append((module, attr, fn, wrapper))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._patches:
            setattr(module, attr, fn)

    # -- reduction -------------------------------------------------------

    def _totals(self):
        """Per span name: calls, outermost duration and self time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            own[name] += end - start - child[i]
            if parent < 0 or self.spans[parent][0] != name:
                total[name] += end - start
        return calls, total, own

    def self_time_ranking(self, cycles: int) -> list[tuple[str, float]]:
        _, _, own = self._totals()
        return [(name, s / cycles) for name, s in own.most_common()]

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer metrics per input cycle; bench/spec.json defines them."""
        calls, total, own = self._totals()
        counts = self.counts

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        per = {
            "cli.write_csv_s": total["cli.write_csv"],
            "cli.write_csv_calls": calls["cli.write_csv"],
            "cli.rows_formatted": counts["cli.rows"],
            "cli.csv_bytes": counts["cli.bytes"],
            "cli.parse_config_s": total["cli.parse_config"],
            "sweep.run_sweep_s": total["sweep.run_sweep"],
            "sweep.self_s": own["sweep.run_sweep"],
            "sweep.cells": counts["sweep.cells"],
            "sweep.singular_cells": counts["sweep.singular"],
            "sweep.flagged_cells": counts["sweep.flagged"],
            "closed_form.kernel_calls": calls["closed_form.kernel"],
            "closed_form.kernel_points": counts["closed_form.points"],
            "closed_form.kernel_s": total["closed_form.kernel"],
            "configs.build_calls": calls["configs.build"],
            "configs.build_s": total["configs.build"],
            "solver.solve_calls": calls["solver.solve"],
            "solver.solve_s": total["solver.solve"],
            "solver.build_layout_s": total["solver.build_layout"],
            "solver.assemble_s": total["solver.assemble"],
            "solver.solve_self_s": own["solver.solve"],
            "core.rates_calls": calls["core.rates"],
            "core.rates_s": total["core.rates"],
            "core.combine_s": total["core.combine"],
            "validate.run_validation_s": total["validate.run_validation"],
            "validate.self_s": own["validate.run_validation"],
            "validate.pair_discrepancy_s": total["validate.pair_discrepancy"],
            "validate.hybrid_residual_s": total["validate.hybrid_residual"],
            "search.grid_refine_search_s": total["search.grid_refine_search"],
            "search.self_s": own["search.grid_refine_search"],
            "search.rates_at_resonance_calls": calls["search.rates_at_resonance"],
            "search.rates_at_resonance_s": total["search.rates_at_resonance"],
        }
        out = {name: value / cycles for name, value in per.items()}
        out["cli.rows_reformatted_ratio"] = ratio(counts["cli.rows_reformatted"], counts["cli.rows"])
        out["closed_form.points_per_call"] = ratio(counts["closed_form.points"], calls["closed_form.kernel"])
        out["solver.degenerate_ratio"] = ratio(counts["solver.solve.raised"], calls["solver.solve"])
        out["solver.ill_conditioned_ratio"] = ratio(counts["solver.ill_conditioned"], calls["solver.solve"])
        out["search.singular_ratio"] = ratio(
            counts["search.rates_at_resonance.raised"], calls["search.rates_at_resonance"]
        )
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,start,end,parent,command\n")
            for name, start, end, parent, cmd in self.spans:
                f.write(f"{name},{start!r},{end!r},{parent},{cmd}\n")
