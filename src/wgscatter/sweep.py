"""Spectral sweeps over detuning and phase, regime handling, and presets.

A sweep evaluates forward and reverse transfer rates on a (phase x detuning)
grid for one configuration family, with phases resolved per the regime model
(constant in the Markovian regime, shifted by tau*delta otherwise).  Two
engines are available: "closed" evaluates the analytical amplitudes
(vectorized across the detuning axis), "solver" runs the boundary-matching
solver on blocks of whole phase rows (one atom-space solve per block, see
`_solver_blocks`), and "both" runs the two and records their maximum
disagreement.  A solver block holds at most SOLVER_CELLS cells, whatever
its runs: stretches of cells with equal k, q and rates, which share one
photon elimination (a Markovian row is one run, and a non-Markovian row
one run per cell).  `solver.solve_batch` takes a block's runs in pieces
of SOLVER_BLOCK, so its memory does not grow with the runs.
Only the "solver" engine runs the solver's condition screen and writes its
``ill_conditioned`` flags: "both" writes the closed engine's flags, so its
solver pass skips the screen, as do `validate` and `search`'s
re-verification, which read no solver flag either.

FAMILIES is the one table of configuration families: for each incidence
direction it names the closed-form kernel, the solver config builder and
the phase constants they take.  Sweeps, search and validation all dispatch
through it, and `Route.amplitudes` gives one direction's full closed-form
amplitude set at a scalar point, from the kernel's named components
(`closed_form.components`).  Each engine reduces a block through one
`Family` method, `closed_rates` (over `rates_from_fields`) or
`solver_rates` (over `core.rates_from_outgoing`), and both return the same
record: the RATE_FIELDS values, the singular mask and each cell's flag code.

Grid cells whose denominators fall below the singularity floor are not
errors: they carry the value of the nearest previously valid cell along the
detuning axis plus a "singular" flag, which keeps exported tables
plot-friendly while preserving the information.

A cell's flags are one uint8 code: bit 0 an ill-conditioned forward solve,
bit 1 an undefined eta (nothing reaches guide N), bit 2 an ill-conditioned
reverse solve, bit 3 singular.  Its flag names are those of its set bits in
that order, each once, as `combine_directions` would merge them.

Cells are computed independently and merged in a fixed order, so the output
is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Mapping

import numpy as np

from . import closed_form as cf
from . import configs, solver
from .core import (
    MARKOVIAN,
    NON_MARKOVIAN,
    PHASE_NAMES,
    ConfigError,
    PhaseModel,
    ScatterAmplitudes,
    SingularityError,
    SystemConfig,
    TransferRates,
    rates_from_outgoing,
    resolved_phase,
)

ENGINES = ("closed", "solver", "both")

RATE_FIELDS = ("T_Ng", "T_Ns", "T_M_rev", "R_M", "T2", "eta", "residual")

#: Cells per solver block, whatever its runs: it bounds what a block keeps
#: per cell (solutions, components, rates and a run's values taken to its
#: cells), while `solver.SOLVER_BLOCK` bounds the matrices a block holds at
#: once.  Tracemalloc peaks of `Family.solver_rates` on giant blocks, both
#: directions, unscreened: 128 non-Markovian cells (one piece) 1.2 MB, 808
#: (7 pieces) 1.4 MB and 1024 (8 pieces) 1.5 MB, about 0.34 KB per cell
#: past one piece; 1024 Markovian cells, in one run or in 8, 1.5 MB.  The
#: condition screen adds 1.3 to 2.1 MB.
SOLVER_CELLS = 1024
#: Runs per piece of a solver block (see `solver.SOLVER_BLOCK`); `validate`
#: sizes its rounds by it.
SOLVER_BLOCK = solver.SOLVER_BLOCK

#: Largest grid (phase count x detuning count) a sweep accepts: 13x the
#: full preset grid (629 x 2001), and about 1 GB of rate grids per engine.
MAX_CELLS = 1 << 24

#: Flag names of the bits of a cell's code, lowest bit first.
FLAG_BITS = ("ill_conditioned", "eta_undefined", "ill_conditioned", "singular")
ILL_FORWARD, ETA_UNDEFINED, ILL_REVERSE, SINGULAR = 1, 2, 4, 8
#: Flag names and joined CSV/JSON text of every code.
FLAG_NAMES = tuple(
    tuple(dict.fromkeys(name for k, name in enumerate(FLAG_BITS) if code >> k & 1))
    for code in range(1 << len(FLAG_BITS))
)
FLAG_TEXT = np.array([";".join(names) for names in FLAG_NAMES], dtype=object)


# ---------------------------------------------------------------------------
# Configuration families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Route:
    """One incidence direction of a family: port 1 (forward) or 4 (reverse).

    ``kernel`` names a `closed_form` field kernel and ``builder`` a `configs`
    builder.  Both take the rates (all four forward, gamma1 and gamma3 in
    reverse), the detuning and then the phase constants ``phases`` in this
    order.  Functions are looked up by name at each call, so a wrapper set on
    the module attribute sees every call.
    """

    port: int
    kernel: str
    builder: str
    phases: tuple[str, ...] = ()

    def _args(self, gammas, delta, phases: Mapping) -> tuple:
        rates = (gammas,) if self.port == 1 else (gammas[0], gammas[2])
        return (*rates, delta, *(phases[name] for name in self.phases))

    def fields(self, gammas, delta, phases: Mapping):
        """Kernel output; ``phases`` maps phase names to values."""
        return getattr(cf, self.kernel)(*self._args(gammas, delta, phases))

    def config(self, gammas, delta, phases: Mapping) -> SystemConfig:
        return getattr(configs, self.builder)(*self._args(gammas, delta, phases))

    def amplitudes(self, gammas, delta, phases: Mapping) -> ScatterAmplitudes:
        """Full closed-form amplitude set at one scalar point: the kernel's
        `closed_form.components` as a ScatterAmplitudes.

        Raises ConfigError on bad rates and SingularityError where the
        kernel's denominator vanishes.
        """
        _check_gammas(gammas)
        fields = self.fields(gammas, delta, phases)
        if np.any(fields.singular):
            point = (self.kernel, gammas, delta, phases)
            raise SingularityError(f"vanishing denominator at {point!r}")
        return ScatterAmplitudes.from_components(self.port, cf.components(self.port, fields))


@dataclass(frozen=True)
class Family:
    forward: Route
    reverse: Route

    @property
    def phases(self) -> tuple[str, ...]:
        """Phase constants either direction takes."""
        return tuple(dict.fromkeys(self.forward.phases + self.reverse.phases))

    def closed_rates(self, gammas, delta, phases: Mapping):
        """`rates_from_fields` of both kernels as `solver_rates` returns them
        (rates, singular mask, flag codes): the code is ETA_UNDEFINED where
        nothing reaches guide N and the cell is not singular.  Delta and
        phases broadcast."""
        rates, singular, eta_undefined = rates_from_fields(
            self.forward.fields(gammas, delta, phases),
            self.reverse.fields(gammas, delta, phases),
        )
        return rates, singular, (eta_undefined & ~singular) * ETA_UNDEFINED

    def solver_rates(
        self, gammas, delta: np.ndarray, phases: Mapping, *, check_conditioning: bool = True
    ):
        """Forward+reverse solver rates over a 1-D block of detunings.

        Phases broadcast with ``delta``.  Returns the RATE_FIELDS values,
        the singular mask and each cell's flag code; singular cells get 0.
        ``check_conditioning=False`` skips `solve_batch`'s condition screen
        for callers that drop the flags: the codes then carry only
        ETA_UNDEFINED, and the rates and singular mask are unchanged.
        """
        fwd = solver.solve_batch(
            self.forward.config(gammas, delta, phases), check_conditioning=check_conditioning
        )
        rev = solver.solve_batch(
            self.reverse.config(gammas, delta, phases), check_conditioning=check_conditioning
        )
        rows, eta_undefined = rates_from_outgoing(fwd.components(), rev.components())
        singular = fwd.singular | rev.singular
        codes = eta_undefined * ETA_UNDEFINED
        if check_conditioning:
            codes = codes | fwd.ill_conditioned * ILL_FORWARD | rev.ill_conditioned * ILL_REVERSE
        codes = codes * ~singular
        return dict(zip(RATE_FIELDS, rows)), singular, codes


FAMILIES = {
    "small_overlap": Family(
        Route(1, "overlap_forward_fields", "small_overlap"),
        Route(4, "spectator_reverse_fields", "reverse_small"),
    ),
    "small_separated": Family(
        Route(1, "separated_forward_fields", "small_separated", ("phi_a", "phi_b")),
        Route(4, "spectator_reverse_fields", "reverse_small"),
    ),
    "giant": Family(
        Route(1, "giant_forward_fields", "giant", ("phi1_prime", "phi2_prime")),
        Route(4, "giant_reverse_fields", "reverse_giant", ("phi1_prime",)),
    ),
    "semi_infinite": Family(
        Route(1, "mirrored_forward_fields", "semi_infinite", ("phi3",)),
        Route(4, "mirrored_reverse_fields", "reverse_semi_infinite", ("phi3",)),
    ),
}


def _check_gammas(gammas) -> None:
    if len(gammas) != 4 or not all(math.isfinite(g) and g >= 0 for g in gammas):
        raise ConfigError("gammas must be four finite non-negative rates")


def rates_from_fields(fwd, rev):
    """Rates from forward and reverse kernel output of any shape.

    Returns the RATE_FIELDS values, the singular mask, and the mask of cells
    with no output into guide N, where eta is undefined and set to 0.
    Builtin abs and ** act elementwise on arrays and stay cheap on scalars.
    Overflow and inf/inf are silenced as in the kernels: near a vanishing
    denominator the amplitudes blow up, and the singular mask reports it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t_ng = abs(fwd.t3g) ** 2 + abs(fwd.t4g) ** 2
        t_ns = abs(fwd.t3s) ** 2 + abs(fwd.t4s) ** 2
        r_m = abs(fwd.r1) ** 2
        t2 = abs(fwd.t2) ** 2
        t_m_rev = abs(rev.t1) ** 2 + abs(rev.t2) ** 2
        total_n = t_ng + t_ns
        rates = {
            "T_Ng": t_ng,
            "T_Ns": t_ns,
            "T_M_rev": t_m_rev,
            "R_M": r_m,
            "T2": t2,
            "eta": np.divide(
                t_ns, total_n, out=np.zeros_like(total_n), where=total_n > 0.0
            ),
            "residual": np.maximum(
                abs(r_m + t2 + t_ng + t_ns - 1.0),
                abs(t_m_rev + abs(rev.t3g) ** 2 + abs(rev.r4g) ** 2 - 1.0),
            ),
        }
    return rates, fwd.singular | rev.singular, total_n == 0.0


@dataclass(frozen=True)
class Axis:
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("axis bounds must be finite")
        if self.count < 1:
            raise ConfigError("axis count must be at least 1")
        if self.count == 1 and self.start != self.stop:
            raise ConfigError("a single-point axis needs start == stop")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class PhaseAxis(Axis):
    """Swept phase scalar, fanned out to phase constants by linkage factors.

    ``linkage`` maps phase-constant names to multipliers of the swept value,
    e.g. ``{"phi1_prime": 1.0, "phi2_prime": -1.0}``.
    """

    linkage: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.linkage:
            raise ConfigError("a phase axis needs at least one linkage entry")
        for name, factor in self.linkage:
            if name not in PHASE_NAMES:
                raise ConfigError(f"cannot link unknown phase {name!r}")
            if not math.isfinite(factor):
                raise ConfigError(f"the linkage factor of {name!r} must be finite")


@dataclass(frozen=True)
class SweepSpec:
    family: str
    gammas: tuple[float, float, float, float]
    phases: PhaseModel
    delta_axis: Axis
    phase_axis: PhaseAxis | None = None
    engine: str = "closed"

    def __post_init__(self) -> None:
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}")
        _check_gammas(self.gammas)
        if self.delta_axis.count < 2:
            raise ConfigError("the detuning axis needs at least two points")
        n_phase = 1 if self.phase_axis is None else self.phase_axis.count
        if n_phase * self.delta_axis.count > MAX_CELLS:
            raise ConfigError(
                f"a {n_phase} x {self.delta_axis.count} grid exceeds the limit of "
                f"{MAX_CELLS} cells"
            )


@dataclass(frozen=True)
class SweepResult:
    """Rate grids indexed [phase, delta], one 2-D array per rate field, and
    the uint8 flag code of each cell (see FLAG_BITS)."""

    spec: SweepSpec
    delta: np.ndarray
    phi: np.ndarray
    rates: dict[str, np.ndarray]
    codes: np.ndarray
    engine_discrepancy: float | None

    @cached_property
    def flags(self) -> list[list[tuple[str, ...]]]:
        """Flag names per cell, built from ``codes`` on first access."""
        return [[FLAG_NAMES[code] for code in row] for row in self.codes.tolist()]

    def cell(self, phase_index: int, delta_index: int) -> TransferRates:
        return TransferRates(
            *(float(self.rates[name][phase_index, delta_index]) for name in RATE_FIELDS),
            flags=FLAG_NAMES[self.codes[phase_index, delta_index]],
        )


def _phase_constants(pm: PhaseModel, axis: PhaseAxis | None, value: float) -> PhaseModel:
    if axis is None:
        return pm
    updates = {name: factor * value for name, factor in axis.linkage}
    return replace(pm, **updates)


def _resolved(pm: PhaseModel, family: Family, delta) -> dict:
    """The family's phase constants at ``delta``, a scalar or a row."""
    return {name: resolved_phase(pm, name, delta) for name in family.phases}


def _fill_singular(grids, codes, singular_mask) -> None:
    """Replace singular cells with the last valid neighbor along delta and
    set their SINGULAR bit.

    A cell with no valid cell before it takes the next valid one; a row with
    no valid cell at all is filled with 0.0.
    """
    # Only rows with a singular cell are indexed, so the work arrays stay
    # small on large grids with few singular cells.
    affected = np.flatnonzero(singular_mask.any(axis=1))
    if affected.size == 0:
        return
    mask = singular_mask[affected]
    n_delta = mask.shape[1]
    index = np.arange(n_delta)
    # Index of the last valid cell at or before each cell (-1: none), and of
    # the first valid cell at or after it (n_delta: none).
    previous = np.maximum.accumulate(np.where(mask, -1, index), axis=1)
    reverse_previous = np.maximum.accumulate(np.where(mask[:, ::-1], -1, index), axis=1)
    following = (n_delta - 1 - reverse_previous)[:, ::-1]
    k, cols = np.nonzero(mask)
    rows = affected[k]
    src = np.where(previous >= 0, previous, following)[k, cols]
    valid = src < n_delta
    for grid in grids.values():
        grid[rows, cols] = np.where(valid, grid[rows, np.where(valid, src, 0)], 0.0)
    codes[rows, cols] |= SINGULAR


def _solver_blocks(n_phi: int, n_delta: int) -> list[tuple[int, int]]:
    """Flat cell ranges [start, stop) of the row-major (phase x detuning)
    grid, one per solver block.

    Whole phase rows go into a block while it holds at most SOLVER_CELLS
    cells, and a longer row is split into slices of SOLVER_CELLS cells,
    whatever the rows' runs: `solver.solve_batch` takes a block's runs
    SOLVER_BLOCK at a time.
    """
    if n_delta > SOLVER_CELLS:
        return [
            (i * n_delta + j, i * n_delta + min(j + SOLVER_CELLS, n_delta))
            for i in range(n_phi)
            for j in range(0, n_delta, SOLVER_CELLS)
        ]
    rows = SOLVER_CELLS // n_delta
    return [(i * n_delta, min(i + rows, n_phi) * n_delta) for i in range(0, n_phi, rows)]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the full grid; singular cells are flagged, never fatal."""
    delta = spec.delta_axis.values()
    if spec.phase_axis is not None:
        phi = spec.phase_axis.values()
    else:
        phi = np.array([0.0])
    n_phi, n_delta = len(phi), len(delta)
    family = FAMILIES[spec.family]
    models = [_phase_constants(spec.phases, spec.phase_axis, float(value)) for value in phi]

    def block_input(start: int, stop: int):
        """Detunings and resolved phases of the flat cells [start, stop)."""
        pieces = []
        while start < stop:
            i, j = divmod(start, n_delta)
            d = delta[j : j + stop - start]
            pieces.append((d, _resolved(models[i], family, d)))
            start += len(d)
        if len(pieces) == 1:
            return pieces[0]
        return (
            np.concatenate([d for d, _ in pieces]),
            {name: np.concatenate([p[name] for _, p in pieces]) for name in family.phases},
        )

    def run_engine(engine: str):
        grids = {name: np.zeros((n_phi, n_delta)) for name in RATE_FIELDS}
        codes = np.zeros((n_phi, n_delta), dtype=np.uint8)
        singular = np.zeros((n_phi, n_delta), dtype=bool)
        if engine == "closed":
            blocks = [(i * n_delta, (i + 1) * n_delta) for i in range(n_phi)]
            block_rates = family.closed_rates
        else:
            blocks = _solver_blocks(n_phi, n_delta)
            # "both" writes the closed codes, so only "solver" screens.
            block_rates = partial(family.solver_rates, check_conditioning=spec.engine == "solver")
        # Each block is a range of the grids' row-major cells.
        flat = {name: grid.reshape(-1) for name, grid in grids.items()}
        for start, stop in blocks:
            d, phases = block_input(start, stop)
            block = slice(start, stop)
            rates, singular.reshape(-1)[block], codes.reshape(-1)[block] = block_rates(
                spec.gammas, d, phases
            )
            for name in RATE_FIELDS:
                flat[name][block] = rates[name]
        _fill_singular(grids, codes, singular)
        return grids, codes

    discrepancy = None
    if spec.engine == "both":
        grids, codes = run_engine("closed")
        solver_grids, _ = run_engine("solver")
        ok = (codes & SINGULAR) == 0
        discrepancy = 0.0
        for name in RATE_FIELDS:
            diff = np.abs(grids[name] - solver_grids[name])[ok]
            if diff.size:
                discrepancy = max(discrepancy, float(diff.max()))
    else:
        grids, codes = run_engine(spec.engine)
    return SweepResult(
        spec=spec,
        delta=delta,
        phi=phi,
        rates=grids,
        codes=codes,
        engine_discrepancy=discrepancy,
    )


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

#: Default axes: the detuning grid resolves the narrow features near
#: resonance and the phase grid the ultranarrow windows near phi = pi.
DEFAULT_DELTA = Axis(-10.0, 10.0, 2001)
DEFAULT_PHASE_COUNT = 629


@dataclass(frozen=True)
class FigurePanel:
    panel: str
    sweep: str
    column: str


@dataclass(frozen=True)
class FigurePreset:
    figure: str
    sweeps: dict[str, SweepSpec]
    panels: tuple[FigurePanel, ...]


#: Phase models of the presets: Markovian, and non-Markovian with tau = 1.
_MARKOV = PhaseModel(regime=MARKOVIAN)
_TAU_1 = PhaseModel(regime=NON_MARKOVIAN, tau=1.0)
#: Phase linkages: phi_a with phi_b, phi1' alone, phi1' against phi2'.
_PHI_AB = (("phi_a", 1.0), ("phi_b", 1.0))
_PHI1 = (("phi1_prime", 1.0),)
_PHI1_PHI2 = (("phi1_prime", 1.0), ("phi2_prime", -1.0))
#: Panels of the giant isolation (figs 6, 8) and conversion (figs 7, 9) maps.
_ISOLATION_PANELS = (("a", "main", "T_Ng"), ("b", "main", "T_M_rev"))
_CONVERSION_PANELS = (
    ("a", "ab", "T_Ng"), ("b", "ab", "T_Ns"), ("c", "cd", "T_Ng"), ("d", "cd", "T_Ns"),
)

#: The preset catalogue, by figure id: family, rates and phase model, then
#: each sweep's phase linkage (None for a detuning-only spectrum) and the
#: panels as (panel, sweep, column).
_PRESETS = {
    "fig2a": ("small_overlap", (1.0, 0.25, 1.0, 0.0), _MARKOV,
              {"main": None}, (("", "main", "T_M_rev"),)),
    "fig2b": ("small_overlap", (1.0, 1.0, 1.0, 0.0), _MARKOV,
              {"main": None}, (("", "main", "T_M_rev"),)),
    "fig3a": ("small_separated", (1.0, 0.25, 1.0, 0.0), _MARKOV,
              {"main": _PHI_AB}, (("", "main", "T_Ng"),)),
    "fig3b": ("small_separated", (1.0, 1.0, 1.0, 0.0), _MARKOV,
              {"main": _PHI_AB}, (("", "main", "T_Ng"),)),
    "fig4a": ("small_overlap", (0.32, 1.0, 1.0, 1.0), _MARKOV,
              {"main": None}, (("", "main", "T_Ns"),)),
    "fig4b": ("small_overlap", (0.25, 1.0, 1.0, 0.25), _MARKOV,
              {"main": None}, (("", "main", "T_Ns"),)),
    "fig6": ("giant", (1.0, 0.25, 1.0, 0.0), _MARKOV,
             {"main": _PHI1}, _ISOLATION_PANELS),
    "fig7": ("giant", (0.32, 1.0, 1.0, 1.0), _MARKOV,
             {"ab": _PHI1, "cd": _PHI1_PHI2}, _CONVERSION_PANELS),
    "fig8": ("giant", (1.0, 0.25, 1.0, 0.0), _TAU_1,
             {"main": _PHI1}, _ISOLATION_PANELS),
    "fig9": ("giant", (0.32, 1.0, 1.0, 1.0), _TAU_1,
             {"ab": _PHI1, "cd": _PHI1_PHI2}, _CONVERSION_PANELS),
    "fig10": ("semi_infinite", (0.32, 1.0, 1.0, 1.0), _MARKOV,
              {"a": None, "b": (("phi3", 1.0),)}, (("a", "a", "T_Ns"), ("b", "b", "T_Ns"))),
}

FIGURE_IDS = tuple(_PRESETS)


def figure_preset(figure_id: str) -> FigurePreset:
    """Named sweep presets: canonical parameter sets for the bundled spectra.

    Each preset fixes the decay rates, regime, axes and linkages for one
    catalogued figure; multi-panel figures carry one sweep per linkage
    variant and one panel entry per exported table.  Every sweep spans
    DEFAULT_DELTA and, if linked, DEFAULT_PHASE_COUNT phases over [0, 2pi].
    """
    fid = figure_id.lower()
    if fid not in _PRESETS:
        raise ConfigError(f"unknown figure id {figure_id!r}")
    family, gammas, pm, linkages, panels = _PRESETS[fid]
    sweeps = {}
    for name, linkage in linkages.items():
        axis = None
        if linkage is not None:
            axis = PhaseAxis(0.0, 2.0 * math.pi, DEFAULT_PHASE_COUNT, linkage=linkage)
        sweeps[name] = SweepSpec(family, gammas, pm, DEFAULT_DELTA, axis)
    return FigurePreset(fid, sweeps, tuple(FigurePanel(*panel) for panel in panels))
