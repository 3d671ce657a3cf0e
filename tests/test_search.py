"""Derivative-free parameter search: anchors, plateau handling, properties,
and the broadcast grid stage against point-by-point evaluation."""

import math
import random

import numpy as np
import pytest

from wgscatter import search
from wgscatter.core import NoFeasiblePointError, SingularityError
from wgscatter.search import (
    Bounds,
    Fixed,
    Linked,
    Objective,
    _objective_values,
    _Tracker,
    grid_refine_search,
    rates_at_resonance,
)


def conversion_objective(floor: float, **param_overrides) -> Objective:
    params = {
        "gamma1": Bounds(0.01, 3.0),
        "gamma2": Fixed(1.0),
        "gamma3": Fixed(1.0),
        "gamma4": Fixed(1.0),
        "phi1_prime": Fixed(0.0),
        "phi2_prime": Fixed(0.0),
        "tau": Fixed(0.0),
    }
    params.update(param_overrides)
    return Objective(kind="conversion_merit", parameters=params, min_reverse=floor)


class TestAnchors:
    def test_balanced_merit_recovers_strong_conversion_point(self):
        # Reverse-throughput floor set to the point-coupled value at
        # gamma1 = 0.32: 2*0.32/1.32^2.
        floor = 2 * 0.32 / 1.32**2
        report = grid_refine_search(conversion_objective(floor), budget=1200)
        assert report.best_params["gamma1"] == pytest.approx(0.32, abs=0.02)
        assert report.rates.eta == pytest.approx(0.7576, abs=2e-3)
        assert report.rates.t_ns == pytest.approx(0.3716, abs=5e-3)

    def test_purity_weighted_recovers_quarter_rates(self):
        # Floor 0.32 makes the constraint bind exactly at gamma1 = 0.25 when
        # gamma4 is linked to gamma1.
        obj = Objective(
            kind="conversion_merit",
            parameters={
                "gamma1": Bounds(0.01, 3.0),
                "gamma2": Fixed(1.0),
                "gamma3": Fixed(1.0),
                "gamma4": Linked("gamma1"),
                "phi1_prime": Fixed(0.0),
                "phi2_prime": Fixed(0.0),
                "tau": Fixed(0.0),
            },
            purity_weight=8.0,
            rate_weight=1.0,
            min_reverse=0.32,
        )
        report = grid_refine_search(obj, budget=1500)
        assert report.best_params["gamma1"] == pytest.approx(0.25, abs=0.02)
        assert report.best_params["gamma4"] == report.best_params["gamma1"]
        assert report.rates.eta == pytest.approx(0.941, abs=5e-3)

    def test_isolation_plateau_detected(self):
        obj = Objective(
            kind="isolation_contrast",
            parameters={
                "gamma1": Bounds(0.05, 3.0),
                "gamma2": Fixed(0.25),
                "gamma3": Linked("gamma1"),
                "gamma4": Fixed(0.0),
                "phi1_prime": Fixed(0.0),
                "phi2_prime": Fixed(0.0),
                "tau": Fixed(0.0),
            },
        )
        report = grid_refine_search(obj, budget=300)
        assert report.objective_value == pytest.approx(0.5, abs=1e-12)
        assert report.degenerate_plateau
        # Lexicographic tie-break lands on the smallest feasible cell.
        assert report.best_params["gamma1"] == pytest.approx(0.05, abs=1e-9)


class TestProperties:
    def test_trace_is_monotonic(self):
        floor = 2 * 0.32 / 1.32**2
        report = grid_refine_search(conversion_objective(floor), budget=800)
        values = [v for _, v, _ in report.trace]
        assert values == sorted(values)
        assert report.evaluations <= 800 + 20

    def test_scale_invariance_of_resonant_rates(self):
        params = {
            "gamma1": 0.4, "gamma2": 1.3, "gamma3": 0.9, "gamma4": 0.6,
            "phi1_prime": 0.8, "phi2_prime": 1.7, "tau": 0.0,
        }
        scaled = dict(params)
        for key in ("gamma1", "gamma2", "gamma3", "gamma4"):
            scaled[key] = 3.7 * scaled[key]
        a, b = rates_at_resonance(params), rates_at_resonance(scaled)
        assert a.eta == pytest.approx(b.eta, abs=1e-12)
        assert a.t_ns == pytest.approx(b.t_ns, abs=1e-12)
        assert a.t_m_rev == pytest.approx(b.t_m_rev, abs=1e-12)

    def test_solver_gate_reported(self):
        floor = 2 * 0.32 / 1.32**2
        report = grid_refine_search(conversion_objective(floor), budget=500)
        assert report.solver_discrepancy < 1e-10

    def test_infeasible_floor_raises(self):
        # With gamma1 capped at 0.01 and gamma3 fixed at 1, the reverse
        # throughput cannot exceed 2*0.01/(1.01)^2 << 0.5.
        obj = conversion_objective(0.5, gamma1=Bounds(0.001, 0.01))
        with pytest.raises(NoFeasiblePointError):
            grid_refine_search(obj, budget=300)

    def test_budget_floor(self):
        from wgscatter.core import ConfigError

        with pytest.raises(ConfigError):
            grid_refine_search(conversion_objective(0.0), budget=10)

    def test_determinism(self):
        floor = 2 * 0.32 / 1.32**2
        a = grid_refine_search(conversion_objective(floor), budget=600)
        b = grid_refine_search(conversion_objective(floor), budget=600)
        assert a.best_params == b.best_params
        assert a.trace == b.trace


# ---------------------------------------------------------------------------
# The broadcast grid stage against a point-by-point reference
# ---------------------------------------------------------------------------


def per_point_scan(self, grids):
    """The grid stage as one `_Tracker.evaluate` per point, in row-major order."""
    mesh = np.meshgrid(*grids, indexing="ij")
    for point in np.stack([m.ravel() for m in mesh], axis=-1):
        self.evaluate(tuple(float(x) for x in point))


def fixed_giant(**free) -> dict:
    params = {
        "gamma1": Fixed(0.7),
        "gamma2": Fixed(1.1),
        "gamma3": Linked("gamma1", 1.3),
        "gamma4": Fixed(0.4),
        "phi1_prime": Fixed(0.3),
        "phi2_prime": Fixed(1.2),
        "tau": Fixed(0.5),
    }
    params.update(free)
    return params


#: Objectives whose grids hold a tie plateau, singular points and points
#: below min_reverse.
EDGE_OBJECTIVES = {
    "plateau": Objective(
        kind="isolation_contrast",
        parameters=fixed_giant(
            gamma1=Bounds(0.05, 3.0), gamma2=Fixed(0.25), gamma3=Linked("gamma1"),
            gamma4=Fixed(0.0), phi1_prime=Fixed(0.0), phi2_prime=Fixed(0.0),
        ),
    ),
    # phi1_prime = pi closes every denominator at resonance.
    "singular": Objective(
        kind="conversion_merit",
        parameters=fixed_giant(phi1_prime=Bounds(0.0, math.pi), gamma2=Bounds(0.1, 2.0)),
    ),
    "min_reverse": Objective(
        kind="conversion_merit",
        parameters=fixed_giant(gamma1=Bounds(0.001, 3.0), gamma3=Fixed(1.0)),
        purity_weight=2.0,
        min_reverse=0.4,
    ),
}


def random_objective(rng: random.Random) -> Objective:
    names = ("gamma1", "gamma2", "gamma4", "phi1_prime", "phi2_prime")
    free = {}
    for name in rng.sample(names, rng.randint(1, 3)):
        if name.startswith("phi"):
            # Often reaching pi, where the giant denominators close.
            free[name] = Bounds(rng.uniform(0.0, 2.0), rng.choice([math.pi, 3.0, 6.0]))
        else:
            lo = rng.choice([0.0, rng.uniform(0.0, 1.0)])
            free[name] = Bounds(lo, lo + rng.uniform(0.2, 2.0))
    kind = rng.choice(["isolation_contrast", "conversion_merit"])
    return Objective(
        kind=kind,
        parameters=fixed_giant(**free),
        purity_weight=rng.uniform(0.5, 3.0),
        rate_weight=rng.uniform(0.5, 3.0),
        min_reverse=rng.uniform(0.0, 0.45),
    )


def assert_same_search(obj: Objective, budget: int, monkeypatch) -> None:
    def run():
        try:
            return grid_refine_search(obj, budget=budget)
        except NoFeasiblePointError:
            return None

    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(_Tracker, "scan", per_point_scan)
        want = run()
    assert (got is None) == (want is None)
    if got is None:
        return
    assert got.best_params == want.best_params
    assert got.evaluations == want.evaluations
    assert got.degenerate_plateau == want.degenerate_plateau
    assert [(e, p) for e, _, p in got.trace] == [(e, p) for e, _, p in want.trace]
    for (_, a, _), (_, b, _) in zip(got.trace, want.trace):
        assert abs(a - b) <= 1e-15
    assert abs(got.objective_value - want.objective_value) <= 1e-15
    assert got.rates == want.rates
    assert got.solver_discrepancy == want.solver_discrepancy


class TestBroadcastGrid:
    @pytest.mark.parametrize("case", sorted(EDGE_OBJECTIVES))
    def test_edge_grid_matches_per_point_evaluation(self, case, monkeypatch):
        assert_same_search(EDGE_OBJECTIVES[case], 400, monkeypatch)

    def test_edge_grids_hold_what_they_are_named_for(self):
        grids = {
            case: [np.linspace(obj.parameters[n].lo, obj.parameters[n].hi, 20)
                   for n in obj.free_names()]
            for case, obj in EDGE_OBJECTIVES.items()
        }
        tracker = _Tracker(EDGE_OBJECTIVES["plateau"])
        tracker.scan(grids["plateau"])
        assert tracker.ties > 0
        obj = EDGE_OBJECTIVES["singular"]
        with pytest.raises(SingularityError):
            rates_at_resonance(obj.resolve({"phi1_prime": math.pi, "gamma2": 1.0}))
        obj = EDGE_OBJECTIVES["min_reverse"]
        values = _objective_values(obj, {"gamma1": grids["min_reverse"][0]})
        assert np.isneginf(values).any() and np.isfinite(values).any()

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_grid_matches_per_point_evaluation(self, seed, monkeypatch):
        assert_same_search(random_objective(random.Random(seed)), 300, monkeypatch)

    def test_chunked_grid_matches_one_pass(self, monkeypatch):
        obj = EDGE_OBJECTIVES["singular"]
        grids = [np.linspace(0.0, math.pi, 41), np.linspace(0.1, 2.0, 37)]
        whole = _Tracker(obj)
        whole.scan(grids)
        monkeypatch.setattr(search, "GRID_CHUNK", 100)
        chunked = _Tracker(obj)
        chunked.scan(grids)
        assert (chunked.evaluations, chunked.best_point, chunked.trace, chunked.ties) == (
            whole.evaluations, whole.best_point, whole.trace, whole.ties
        )
