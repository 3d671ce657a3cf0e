"""Random-draw validation: flux conservation and closed-form/solver agreement.

Draws are split evenly over the five configuration families (separated
forward, point-coupled forward, point-coupled reverse, two-legged
forward+reverse, terminated forward+reverse).  For each draw the closed-form
amplitudes and the solver amplitudes are computed at the same physical
parameters and compared componentwise (ports, interior regions, atomic
amplitudes), and both routes are checked for probability conservation.

Rates are drawn from [0, 3], detunings from [-10, 10], and phases from
[0, 2*pi), all in reference-rate units.  A seeded generator makes reports
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import solver
from .core import ScatterAmplitudes, rates_from_amplitudes
from .sweep import FAMILIES

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


def _amplitude_items(a: ScatterAmplitudes) -> list[tuple[str, complex]]:
    items = [
        ("m_left", a.m_left),
        ("m_right", a.m_right),
        ("n_left_k", a.n_left_k),
        ("n_right_k", a.n_right_k),
        ("n_left_q", a.n_left_q),
        ("n_right_q", a.n_right_q),
    ]
    for label in sorted(a.interior):
        right, left = a.interior[label]
        items.append((f"{label}:R", right))
        items.append((f"{label}:L", left))
    for i, u in enumerate(a.excited):
        items.append((f"u_e{i + 1}", u))
    return items


def pair_discrepancy(closed: ScatterAmplitudes, numeric: ScatterAmplitudes) -> float:
    """Largest componentwise difference between the two amplitude routes."""
    da = dict(_amplitude_items(closed))
    db = dict(_amplitude_items(numeric))
    if set(da) != set(db):
        missing = set(da) ^ set(db)
        raise AssertionError(f"amplitude sets disagree on components: {missing}")
    return max(abs(da[k] - db[k]) for k in da)


def hybrid_residual(
    closed: ScatterAmplitudes, numeric: ScatterAmplitudes, printed: tuple[str, ...]
) -> float:
    """Conservation residual of the closed amplitudes with the solver's values
    spliced into every component the closed route does not print."""
    fields = ("m_left", "m_right", "n_left_k", "n_right_k", "n_left_q", "n_right_q")
    total = 0.0
    for name in fields:
        source = closed if name in printed else numeric
        total += abs(getattr(source, name)) ** 2
    return abs(total - 1.0)


def _draw_case(rng: np.random.Generator, family: str):
    g = tuple(rng.uniform(0.0, 3.0, size=4))
    delta = float(rng.uniform(-10.0, 10.0))
    drawn = rng.uniform(0.0, 2.0 * np.pi, size=3)
    phases = {name: float(drawn[k]) for name, k in _DRAWN_PHASE.items()}
    cases = []
    for label, route in _DRAWS[family]:
        closed = route.amplitudes(g, delta, phases)
        numeric = solver.solve(route.config(g, delta, phases))
        cases.append((label, closed, numeric))
    return cases


def run_validation(
    draws: int = 10000,
    seed: int = 0,
    *,
    corruption: Callable[[ScatterAmplitudes], ScatterAmplitudes] | None = None,
) -> ValidationReport:
    """Run the random-draw suite.

    ``corruption`` is a test hook applied to every closed amplitude set
    before checking; a corrupted formula must trip the tolerances.
    """
    if draws < 1:
        raise ValueError("draws must be at least 1")
    rng = np.random.default_rng(seed)
    report = ValidationReport(draws=draws, seed=seed)
    for i in range(draws):
        family = FAMILY_NAMES[i % len(FAMILY_NAMES)]
        for name, closed, numeric in _draw_case(rng, family):
            if corruption is not None:
                closed = corruption(closed)
            where = f"{name}[draw {i}]"
            closed_rates = rates_from_amplitudes(closed)
            numeric_rates = rates_from_amplitudes(numeric)
            report.max_residual_closed.update(
                hybrid_residual(closed, numeric, _PRINTED[name]), where
            )
            report.max_residual_closed.update(
                closed_rates.conservation_residual, where
            )
            report.max_residual_solver.update(
                numeric_rates.conservation_residual, where
            )
            report.max_discrepancy.update(pair_discrepancy(closed, numeric), where)
    return report
