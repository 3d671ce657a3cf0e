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
own.  Each route writes its checks into two round-wide arrays: its
values into one indexed (draw, case, check), the checks being the closed
residuals (hybrid, then the closed route's own), the solver residual and
the pair discrepancy, and its errors into a boolean one indexed (draw,
stage, case, step).  Stage 0 is a closed-form singularity or a singular
solver system, stage 1 non-finite closed amplitudes or a component-set
mismatch.  The C order of both arrays is the order a draw-by-draw loop
meets the checks, so one rule makes the report: the first argmax wins.
Each reported maximum is the first of its checks' maxima, and an equal
maximum in a later round does not replace it; the error raised is the
first True.  The arrays hold 72 bytes per draw until the round is
reduced, at most 1.5 MB in a round of 20,480 draws.

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


#: Error of each (stage, step) of a route's checks.  Stage 0 is a closed-form
#: singularity (step 0) or a singular solver system (step 1); stage 1 is a
#: non-finite closed amplitude (step 0) or a component-set mismatch (step 1).
_ERRORS = {
    (0, 0): (SingularityError, "vanishing denominator at {point!r}, draw {draw}"),
    (0, 1): (DegenerateConfigError, "singular scattering system at {point!r}, draw {draw}"),
    (1, 0): (InvalidAmplitudeError, "non-finite closed amplitude at {point!r}, draw {draw}"),
    (1, 1): (AssertionError, "amplitude sets disagree on components: {missing}"),
}


def _check_route(label, route, gammas, delta, phases):
    """One route over its family's draws of a round.

    Returns its per-draw values, one row per draw and one column per check:
    the closed residuals (hybrid, then the closed route's own), the solver
    residual and the pair discrepancy; its per-draw errors, indexed (draw,
    stage, step) as in `_ERRORS`; and the components the two engines do not
    share, empty unless they disagree.
    """
    cells = len(delta)
    fields = route.fields(gammas, delta, phases)
    closed = {
        key: np.broadcast_to(np.asarray(value, dtype=complex), (cells,))
        for key, value in cf.components(route.port, fields).items()
    }
    values = np.zeros((cells, 4))
    errors = np.zeros((cells, 2, 2), bool)
    errors[:, 0, 0] = fields.singular
    errors[:, 1, 0] = ~np.logical_and.reduce([np.isfinite(v) for v in closed.values()])
    missing: set[str] = set()
    closed_probs = port_probabilities(closed)
    printed = _PRINTED[label]
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
        errors[group, 0, 1] = sol.singular
        numeric = sol.components()
        if set(closed) != set(numeric):
            missing |= set(closed) ^ set(numeric)
            errors[group, 1, 1] = True
            continue
        numeric_probs = port_probabilities(numeric)
        values[group, 0] = flux_residual(
            [
                c[group] if port in printed else n
                for port, c, n in zip(PORTS, closed_probs, numeric_probs)
            ]
        )
        values[group, 2] = flux_residual(numeric_probs)
        diff = np.array([closed[key][group] - numeric[key] for key in closed])
        values[group, 3] = np.hypot(diff.real, diff.imag).max(axis=0)
    values[:, 1] = flux_residual(closed_probs)
    return values, errors, missing


def _run_round(report: ValidationReport, first: int, sample: np.ndarray) -> None:
    """Check draws ``first``, ``first + 1``, ..., one row of ``sample`` each
    (four rates, the detuning, three phases), and update the report with
    the first argmax of each round-wide array (see the module docstring).
    """
    families = len(FAMILY_NAMES)
    values = np.zeros((len(sample), 2, 4))
    errors = np.zeros((len(sample), 2, 2, 2), bool)
    missing = {}
    for f, family in enumerate(FAMILY_NAMES):
        rows = sample[f::families]
        gammas = tuple(rows[:, :4].T)
        phases = {name: rows[:, 5 + k] for name, k in _DRAWN_PHASE.items()}
        for case, (label, route) in enumerate(_DRAWS[family]):
            values[f::families, case], errors[f::families, :, case], missing[label] = (
                _check_route(label, route, gammas, rows[:, 4], phases)
            )
    if errors.any():
        d, stage, case, step = np.unravel_index(np.argmax(errors), errors.shape)
        label, route = _DRAWS[FAMILY_NAMES[d % families]][case]
        error, message = _ERRORS[stage, step]
        point = (route.kernel, label)
        raise error(message.format(point=point, draw=first + d, missing=missing[label]))
    for worst, checks in (
        (report.max_residual_closed, values[..., :2]),
        (report.max_residual_solver, values[..., 2:3]),
        (report.max_discrepancy, values[..., 3:]),
    ):
        d, case, _ = np.unravel_index(np.argmax(checks), checks.shape)
        label = _DRAWS[FAMILY_NAMES[d % families]][case][0]
        worst.update(float(checks.max()), f"{label}[draw {first + d}]")


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
