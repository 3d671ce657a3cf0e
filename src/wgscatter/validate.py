"""Random-draw validation: flux conservation and closed-form/solver agreement.

Draws are split evenly over the five configuration families (separated
forward, point-coupled forward, point-coupled reverse, two-legged
forward+reverse, terminated forward+reverse).  For each draw the closed-form
amplitudes and the solver amplitudes are computed at the same physical
parameters and compared componentwise (ports, interior regions and atomic
amplitudes), and both routes are checked for probability conservation.
Each engine names its output once, `closed_form.components` for kernel
output and `BlockSolution.components` for a solved block, with the keys of
`ScatterAmplitudes.components`; components are matched by those names.

Draws run in rounds of ``len(FAMILY_NAMES) * sweep.BLOCK_CELLS``, so memory
does not grow with the draw count.  In a round each route makes one kernel
call over its family's draws and one `solver.solve_batch` per group of
draws with the same zero rates (a zero rate drops its legs, which changes
the layout), so each call holds at most BLOCK_CELLS draws, the bound of
every sweep block and search chunk; `solve_batch` solves in pieces of its
own.  A route's per-draw values are reduced to their maxima before the
next route runs.  Each reported maximum is the first in draw order, ties
going to the earlier case and then to the earlier check of a case, as one
running maximum updated draw by draw would keep it.  An error is raised
for the earliest draw that has one, and within a draw in the order
draw-by-draw checking would meet it: a closed-form singularity or a
singular solver system, case by case, before non-finite closed amplitudes
or a component-set mismatch.

Rates are drawn from [0, 3], detunings from [-10, 10], and phases from
[0, 2*pi), all in reference-rate units.  The draws come from the standard
library's ``random.Random(seed)``: ``random()`` gives eight unit values per
draw, in draw order, and each maps to ``low + (high - low) * unit``.
``random()`` is the stream Python keeps the same across versions, so a
report is bit-reproducible per seed.  ``numpy.random`` is not imported: it
costs about 5 MB of resident memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import closed_form as cf
from . import solver
from .core import (
    PORTS,
    DegenerateConfigError,
    InvalidAmplitudeError,
    ScatterAmplitudes,
    SingularityError,
    flux_residual,
    port_probabilities,
)
from .sweep import BLOCK_CELLS, FAMILIES

#: Draw families in draw order, each a list of (label, route) cases.
_DRAWS = {
    "small_separated": [("small_separated", FAMILIES["small_separated"].forward)],
    "small_overlap": [("small_overlap", FAMILIES["small_overlap"].forward)],
    "small_reverse": [("small_reverse", FAMILIES["small_overlap"].reverse)],
    "giant": [
        ("giant_forward", FAMILIES["giant"].forward),
        ("giant_reverse", FAMILIES["giant"].reverse),
    ],
    "semi_infinite": [
        ("semi_infinite", FAMILIES["semi_infinite"].forward),
        ("semi_infinite_reverse", FAMILIES["semi_infinite"].reverse),
    ],
}
FAMILY_NAMES = tuple(_DRAWS)

#: Draws per round: BLOCK_CELLS per family, so each route's kernel call and
#: solver block holds at most BLOCK_CELLS draws.  A multiple of the family
#: count, so draw i is always of family i mod 5.
ROUND = len(FAMILY_NAMES) * BLOCK_CELLS

#: Bounds of the eight uniform values of a draw, in the generator's order:
#: four rates, the detuning and three phases.
_LOW = np.array([0.0] * 4 + [-10.0] + [0.0] * 3)
_HIGH = np.array([3.0] * 4 + [10.0] + [2.0 * np.pi] * 3)

#: Which of the three phases drawn per case feeds each phase constant.
_DRAWN_PHASE = {"phi_a": 0, "phi_b": 1, "phi1_prime": 0, "phi2_prime": 1, "phi3": 2}

TOL_CLOSED = 1e-12
TOL_SOLVER = 1e-10
TOL_PAIR = 1e-10

#: Amplitude components whose closed values the source material prints
#: directly; criterion-style conservation checks splice the solver's values
#: into the remaining components.
_PRINTED = {
    "small_separated": ("m_left", "n_left_k", "n_right_k", "n_left_q", "n_right_q"),
    "small_overlap": (
        "m_left",
        "m_right",
        "n_left_k",
        "n_right_k",
        "n_left_q",
        "n_right_q",
    ),
    "small_reverse": ("m_left", "m_right"),
    "giant_forward": ("n_left_k", "n_right_k", "n_left_q", "n_right_q"),
    "giant_reverse": ("m_left", "m_right"),
    "semi_infinite": ("n_left_k", "n_right_k", "n_left_q", "n_right_q"),
    "semi_infinite_reverse": ("m_left", "m_right"),
}


@dataclass
class Worst:
    value: float = 0.0
    where: str = ""

    def update(self, value: float, where: str) -> None:
        if value > self.value:
            self.value = value
            self.where = where


@dataclass
class ValidationReport:
    draws: int
    seed: int
    max_residual_closed: Worst = field(default_factory=Worst)
    max_residual_solver: Worst = field(default_factory=Worst)
    max_discrepancy: Worst = field(default_factory=Worst)

    @property
    def passed(self) -> bool:
        return (
            self.max_residual_closed.value <= TOL_CLOSED
            and self.max_residual_solver.value <= TOL_SOLVER
            and self.max_discrepancy.value <= TOL_PAIR
        )

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [
            f"validation: {status}",
            f"draws={self.draws} seed={self.seed}",
            f"max_closed_residual={self.max_residual_closed.value:.17g} "
            f"(tol {TOL_CLOSED:g}) at {self.max_residual_closed.where}",
            f"max_solver_residual={self.max_residual_solver.value:.17g} "
            f"(tol {TOL_SOLVER:g}) at {self.max_residual_solver.where}",
            f"max_pair_discrepancy={self.max_discrepancy.value:.17g} "
            f"(tol {TOL_PAIR:g}) at {self.max_discrepancy.where}",
        ]
        return out


def pair_discrepancy(closed: ScatterAmplitudes, numeric: ScatterAmplitudes) -> float:
    """Largest componentwise difference between the two amplitude routes."""
    da = closed.components()
    db = numeric.components()
    if set(da) != set(db):
        missing = set(da) ^ set(db)
        raise AssertionError(f"amplitude sets disagree on components: {missing}")
    return max(abs(da[k] - db[k]) for k in da)


def hybrid_residual(
    closed: ScatterAmplitudes, numeric: ScatterAmplitudes, printed: tuple[str, ...]
) -> float:
    """Conservation residual of the closed amplitudes with the solver's values
    spliced into every component the closed route does not print."""
    total = 0.0
    for name in PORTS:
        source = closed if name in printed else numeric
        total += abs(getattr(source, name)) ** 2
    return abs(total - 1.0)


def _check_route(label, route, gammas, delta, phases, draw, case, errors):
    """One route over its family's draws of a round.

    Returns its per-draw values, one row per draw and one column per check
    in update order: the closed residuals (hybrid, then the closed route's
    own), the solver residual and the pair discrepancy.  Appends the
    earliest draw of each error it finds to ``errors``, keyed by (draw,
    stage, case, step) in the order draw-by-draw checking would meet it.
    """
    cells = len(delta)
    fields = route.fields(gammas, delta, phases)
    closed = {
        key: np.broadcast_to(np.asarray(value, dtype=complex), (cells,))
        for key, value in cf.components(route.port, fields).items()
    }
    point = (route.kernel, label)
    _first_error(
        errors, draw, np.broadcast_to(fields.singular, (cells,)), (0, case, 0),
        lambda d: SingularityError(f"vanishing denominator at {point!r}, draw {d}"),
    )
    finite = np.logical_and.reduce([np.isfinite(v) for v in closed.values()])
    _first_error(
        errors, draw, ~finite, (1, case, 0),
        lambda d: InvalidAmplitudeError(f"non-finite closed amplitude at {point!r}, draw {d}"),
    )
    closed_probs = port_probabilities(closed)
    printed = _PRINTED[label]
    hybrid = np.zeros(cells)
    solver_residual = np.zeros(cells)
    discrepancy = np.zeros(cells)
    # Draws with the same zero rates share a layout.  (np.unique would do,
    # but its first call costs about 1 MB of resident memory.)
    pattern = sum((g > 0.0) << k for k, g in enumerate(gammas))
    for zeros in sorted(set(pattern.tolist())):
        group = np.flatnonzero(pattern == zeros)
        cfg = route.config(
            tuple(g[group] for g in gammas),
            delta[group],
            {name: value[group] for name, value in phases.items()},
        )
        sol = solver.solve_batch(cfg, check_conditioning=False)
        _first_error(
            errors, draw[group], sol.singular, (0, case, 1),
            lambda d: DegenerateConfigError(f"singular scattering system at {point!r}, draw {d}"),
        )
        numeric = sol.components()
        if set(closed) != set(numeric):
            missing = set(closed) ^ set(numeric)
            _first_error(
                errors, draw[group], np.ones(len(group), bool), (1, case, 1),
                lambda d: AssertionError(f"amplitude sets disagree on components: {missing}"),
            )
            continue
        numeric_probs = port_probabilities(numeric)
        solver_residual[group] = flux_residual(numeric_probs)
        hybrid[group] = flux_residual(
            [
                c[group] if port in printed else n
                for port, c, n in zip(PORTS, closed_probs, numeric_probs)
            ]
        )
        diff = np.array([closed[key][group] - numeric[key] for key in closed])
        discrepancy[group] = np.hypot(diff.real, diff.imag).max(axis=0)
    closed_residuals = np.stack([hybrid, flux_residual(closed_probs)], axis=-1)
    return closed_residuals, solver_residual[:, None], discrepancy[:, None]


def _first_error(errors, draw, mask, stage, make) -> None:
    """Record the earliest draw under ``mask``, keyed for ordering."""
    hits = np.flatnonzero(mask)
    if hits.size:
        d = int(draw[hits[0]])
        errors.append(((d, *stage), make(d)))


def _run_round(report: ValidationReport, first: int, sample: np.ndarray) -> None:
    """Check draws ``first``, ``first + 1``, ..., one row of ``sample`` each
    (four rates, the detuning, three phases), and update the report."""
    families = len(FAMILY_NAMES)
    candidates: dict[str, list] = {"closed": [], "solver": [], "pair": []}
    errors: list = []
    for f, family in enumerate(FAMILY_NAMES):
        rows = sample[f::families]
        if not len(rows):
            continue
        draw = first + f + families * np.arange(len(rows))
        gammas = tuple(rows[:, :4].T)
        delta = rows[:, 4]
        phases = {name: rows[:, 5 + k] for name, k in _DRAWN_PHASE.items()}
        for case, (label, route) in enumerate(_DRAWS[family]):
            checked = _check_route(label, route, gammas, delta, phases, draw, case, errors)
            for name, values in zip(candidates, checked):
                cell, update = np.unravel_index(np.argmax(values), values.shape)
                d = int(draw[cell])
                candidates[name].append(
                    (d, case, int(update), float(values[cell, update]), f"{label}[draw {d}]")
                )
    if errors:
        raise min(errors, key=lambda item: item[0])[1]
    for name, worst in (
        ("closed", report.max_residual_closed),
        ("solver", report.max_residual_solver),
        ("pair", report.max_discrepancy),
    ):
        for *_, value, where in sorted(candidates[name]):
            worst.update(value, where)


def run_validation(draws: int = 10000, seed: int = 0) -> ValidationReport:
    """Run the random-draw suite."""
    if draws < 1:
        raise ValueError("draws must be at least 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    rng = random.Random(seed)
    report = ValidationReport(draws=draws, seed=seed)
    for first in range(0, draws, ROUND):
        count = min(ROUND, draws - first)
        unit = np.array([rng.random() for _ in range(count * len(_LOW))])
        _run_round(report, first, _LOW + (_HIGH - _LOW) * unit.reshape(count, len(_LOW)))
    return report
