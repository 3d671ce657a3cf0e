"""Parameter synthesis: derivative-free search for isolation or conversion targets.

Objectives are evaluated from the closed forms at resonance (delta = 0),
where the converted fraction depends only on rate ratios and the leg phases
drop out of it.  The search is a coarse grid pass followed by coordinate-wise
golden-section refinement around the best cell.  One function scores both:
the grid pass hands it BLOCK_CELLS points at a time as arrays (one broadcast
call of each closed-form kernel) and scans the values in grid order with the
record rule the refinement applies to each of its points, so it counts,
traces and breaks ties exactly as evaluating point by point would.  The
refinement hands it one point at a time as 0-d values; a probe at a point
it has already evaluated reuses that value, and is counted, traced and
tie-broken as a fresh one.  The search never makes more evaluations than
its budget.  It is fully deterministic: ties are broken toward the
lexicographically smallest parameter vector.  Every reported optimum is
re-verified against the boundary-matching solver before it is returned;
an optimum the solver's rates disagree with raises VerificationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    DegenerateConfigError,
    NoFeasiblePointError,
    SingularityError,
    TransferRates,
    VerificationError,
)
from .sweep import BLOCK_CELLS, FAMILIES, FLAG_NAMES, MAX_CELLS, RATE_FIELDS, rates_from_fields

#: Search evaluates the giant-atom layout only.
FAMILY = "giant"
GIANT = FAMILIES[FAMILY]

ISOLATION_CONTRAST = "isolation_contrast"
CONVERSION_MERIT = "conversion_merit"

PARAM_NAMES = (
    "gamma1",
    "gamma2",
    "gamma3",
    "gamma4",
    "phi1_prime",
    "phi2_prime",
    "tau",
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Maximum allowed closed-form/solver disagreement at the reported optimum.
VERIFY_TOL = 1e-10


@dataclass(frozen=True)
class Fixed:
    value: float


@dataclass(frozen=True)
class Bounds:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ConfigError("bounds must satisfy lo < hi")


@dataclass(frozen=True)
class Linked:
    to: str
    factor: float = 1.0


def _lowest(spec: Fixed | Bounds | None) -> float:
    """Lowest value an unlinked entry takes; a missing entry is fixed at 0."""
    if isinstance(spec, Bounds):
        return spec.lo
    return spec.value if isinstance(spec, Fixed) else 0.0


@dataclass(frozen=True)
class Objective:
    """Search target over (gamma1..gamma4, phi1_prime, phi2_prime, tau).

    ``kind`` selects the figure of merit at resonance: the isolation
    contrast t_m_rev - (t_ng + t_ns), or the conversion merit
    eta**purity_weight * t_ns**rate_weight.  ``min_reverse`` is a hard
    constraint t_m_rev >= floor.  ``tau`` may only be fixed, at 0 or
    above: it scales the detuning, which is zero at resonance.  No decay
    rate may go below 0: none may be fixed or bounded below 0, or linked by
    a factor below 0 or to an entry that is fixed or bounded below 0.
    """

    kind: str
    parameters: dict[str, Fixed | Bounds | Linked]
    purity_weight: float = 1.0
    rate_weight: float = 1.0
    min_reverse: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (ISOLATION_CONTRAST, CONVERSION_MERIT):
            raise ConfigError(f"unknown objective kind {self.kind!r}")
        if not 0.0 <= self.min_reverse <= 0.5:
            raise ConfigError("min_reverse must lie in [0, 0.5]")
        if self.kind == CONVERSION_MERIT and (
            self.purity_weight <= 0 or self.rate_weight <= 0
        ):
            raise ConfigError("conversion weights must be positive")
        unknown = set(self.parameters) - set(PARAM_NAMES)
        if unknown:
            raise ConfigError(f"unknown parameters: {sorted(unknown)}")
        free = [n for n, s in self.parameters.items() if isinstance(s, Bounds)]
        if not free:
            raise ConfigError("at least one parameter must carry bounds")
        if isinstance(self.parameters.get("tau"), (Bounds, Linked)):
            raise ConfigError("tau is inert at resonance; it may only be fixed")
        for name, spec in self.parameters.items():
            if isinstance(spec, Linked):
                if spec.to not in PARAM_NAMES:
                    raise ConfigError(f"{name!r} is linked to unknown parameter {spec.to!r}")
                target = self.parameters.get(spec.to)
                if spec.to == name or isinstance(target, Linked):
                    raise ConfigError(f"bad link for {name!r}")
        if _lowest(self.parameters.get("tau")) < 0:
            raise ConfigError("tau must be non-negative")
        for name in PARAM_NAMES[:4]:
            spec, factor = self.parameters.get(name), 1.0
            if isinstance(spec, Linked):
                spec, factor = self.parameters.get(spec.to), spec.factor
            if factor < 0 or _lowest(spec) < 0:
                raise ConfigError(f"decay rate {name!r} must be non-negative")

    def free_names(self) -> tuple[str, ...]:
        return tuple(
            n for n in PARAM_NAMES if isinstance(self.parameters.get(n), Bounds)
        )

    def resolve(self, free_values: dict[str, float]) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in PARAM_NAMES:
            spec = self.parameters.get(name, Fixed(0.0))
            if isinstance(spec, Bounds):
                out[name] = free_values[name]
            elif isinstance(spec, Fixed):
                out[name] = spec.value
        for name in PARAM_NAMES:
            spec = self.parameters.get(name)
            if isinstance(spec, Linked):
                out[name] = spec.factor * out[spec.to]
        return out


def rates_at_resonance(params: dict[str, float]) -> TransferRates:
    """Forward+reverse closed-form rates at delta = 0 for one parameter set."""
    gammas = tuple(params[f"gamma{i}"] for i in (1, 2, 3, 4))
    rates, singular, code = GIANT.closed_rates(gammas, 0.0, params)
    if singular:
        raise SingularityError(f"singular resonance point at {params!r}")
    return TransferRates(*(float(rates[name]) for name in RATE_FIELDS), flags=FLAG_NAMES[code])


def _objective_values(obj: Objective, columns: dict[str, np.ndarray]) -> np.ndarray:
    """The objective where ``columns`` maps each free parameter to its
    values, of any shape (0-d for one point); a singular point or one below
    ``min_reverse`` gets -inf."""
    params = obj.resolve(columns)
    gammas = tuple(params[f"gamma{i}"] for i in (1, 2, 3, 4))
    # `Family.closed_rates` less its flag codes, which no objective reads and
    # whose numpy scalar arithmetic is a measurable share of a 0-d probe.
    rates, singular, _ = rates_from_fields(
        GIANT.forward.fields(gammas, 0.0, params), GIANT.reverse.fields(gammas, 0.0, params)
    )
    t_m_rev = rates["T_M_rev"]
    if obj.kind == ISOLATION_CONTRAST:
        values = t_m_rev - (rates["T_Ng"] + rates["T_Ns"])
    else:
        values = (
            np.float_power(rates["eta"], obj.purity_weight)
            * np.float_power(rates["T_Ns"], obj.rate_weight)
        )
    return np.where(singular | (t_m_rev < obj.min_reverse), -math.inf, values)


@dataclass
class SearchReport:
    best_params: dict[str, float]
    objective_value: float
    rates: TransferRates
    evaluations: int
    trace: list[tuple[int, float, tuple[float, ...]]] = field(default_factory=list)
    degenerate_plateau: bool = False
    solver_discrepancy: float = 0.0


class _Tracker:
    def __init__(self, obj: Objective) -> None:
        self.obj = obj
        self.names = obj.free_names()
        self.evaluations = 0
        self.best_value = -math.inf
        self.best_point: tuple[float, ...] | None = None
        self.trace: list[tuple[int, float, tuple[float, ...]]] = []
        self.ties = 0
        #: Objective value of each point `evaluate` has computed (-inf where
        #: singular).  Grid values stay out: array arithmetic may differ
        #: from 0-d arithmetic in the last bits.  0.0 and -0.0 share a
        #: key; the rates are the same at both.
        self.values: dict[tuple[float, ...], float] = {}

    def evaluate(self, point: tuple[float, ...]) -> float:
        """Evaluate one point; a point seen before reuses its value but is
        still recorded, so it counts and ties as a fresh evaluation would."""
        value = self.values.get(point)
        if value is None:
            value = float(_objective_values(self.obj, dict(zip(self.names, point))))
            self.values[point] = value
        return self.record(point, value)

    def scan(self, grids: list[np.ndarray]) -> None:
        """Evaluate every point of the grid ``grids`` spans, in row-major order."""
        shape = tuple(len(g) for g in grids)
        total = math.prod(shape)
        for start in range(0, total, BLOCK_CELLS):
            index = np.unravel_index(np.arange(start, min(start + BLOCK_CELLS, total)), shape)
            columns = [g[i] for g, i in zip(grids, index)]
            values = _objective_values(self.obj, dict(zip(self.names, columns)))
            points = zip(*(c.tolist() for c in columns))
            for point, value in zip(points, values.tolist()):
                self.record(point, value)

    def record(self, point: tuple[float, ...], value: float) -> float:
        """Count one evaluation and keep it if it improves or ties the best."""
        self.evaluations += 1
        if value == -math.inf:
            return value
        if value > self.best_value + 1e-12:
            self.best_value = value
            self.best_point = point
            self.trace.append((self.evaluations, value, point))
        elif value > self.best_value - 1e-12:
            self.ties += 1
            if self.best_point is not None and point < self.best_point:
                self.best_point = point
        return value


def grid_refine_search(obj: Objective, budget: int = 2000) -> SearchReport:
    """Coarse grid pass, then golden-section refinement along each free axis."""
    if budget < 100:
        raise ConfigError("search budget must be at least 100 evaluations")
    if budget // 2 > MAX_CELLS:
        raise ConfigError(
            f"a search budget of {budget} exceeds the grid limit of {MAX_CELLS} points "
            "(half the budget goes to the grid)"
        )
    names = obj.free_names()
    bounds = {n: obj.parameters[n] for n in names}
    ndim = len(names)
    # The fewest evaluations a search makes: three grid points per axis,
    # then two golden-section probes per axis.
    least = 3**ndim + 2 * ndim
    if budget < least:
        raise ConfigError(
            f"a search budget of {budget} is below the {least} evaluations "
            f"that {ndim} free parameters need"
        )
    tracker = _Tracker(obj)

    # The most points per axis whose grid fits half the budget, at least 3.
    half = budget // 2
    per_dim = max(3, round(half ** (1 / ndim)))
    while per_dim > 3 and per_dim**ndim > half:
        per_dim -= 1
    tracker.scan([np.linspace(bounds[n].lo, bounds[n].hi, per_dim) for n in names])

    if tracker.best_point is None:
        raise NoFeasiblePointError(
            "no parameter set satisfies the constraints within the search bounds"
        )

    spacing = {
        n: (bounds[n].hi - bounds[n].lo) / max(per_dim - 1, 1) for n in names
    }
    refine_budget = budget - tracker.evaluations
    per_axis = max(refine_budget // (2 * ndim), 0)
    for axis, name in enumerate(names):
        current = list(tracker.best_point)
        lo = max(bounds[name].lo, current[axis] - spacing[name])
        hi = min(bounds[name].hi, current[axis] + spacing[name])
        a, b = lo, hi
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)

        def at(x: float) -> float:
            probe = list(current)
            probe[axis] = x
            return tracker.evaluate(tuple(probe))

        fc, fd = at(c), at(d)
        for _ in range(max(per_axis - 2, 0)):
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = at(c)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = at(d)

    assert tracker.best_point is not None
    best_params = obj.resolve(dict(zip(names, tracker.best_point)))
    rates = rates_at_resonance(best_params)
    discrepancy = _verify_with_solver(best_params, rates)
    return SearchReport(
        best_params=best_params,
        objective_value=tracker.best_value,
        rates=rates,
        evaluations=tracker.evaluations,
        trace=tracker.trace,
        degenerate_plateau=tracker.ties > 0,
        solver_discrepancy=discrepancy,
    )


def _verify_with_solver(params: dict[str, float], closed: TransferRates) -> float:
    """Re-verification gate: solver rates at the optimum must match the closed ones."""
    gammas = tuple(params[f"gamma{i}"] for i in (1, 2, 3, 4))
    rates, singular, _ = GIANT.solver_rates(gammas, np.zeros(1), params, check_conditioning=False)
    if singular[0]:
        raise DegenerateConfigError(f"singular scattering system at {params!r}")
    discrepancy = max(
        abs(a - float(rates[name][0]))
        for a, name in zip(closed.as_row()[:6], RATE_FIELDS[:6])
    )
    if discrepancy > VERIFY_TOL:
        raise VerificationError(
            f"optimum failed solver re-verification: discrepancy {discrepancy:.3e}"
        )
    return discrepancy
