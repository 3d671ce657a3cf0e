"""Derivative-free parameter search: anchors, plateau handling, properties,
the one objective at a point against a scalar reference and at arrays
against its columns' shape, the broadcast grid stage against point-by-point
evaluation, and the refinement's reuse of values at revisited probes."""

import json
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from wgscatter import cli, search
from wgscatter.core import NoFeasiblePointError, SingularityError, VerificationError
from wgscatter.search import (
    CONVERSION_MERIT,
    ISOLATION_CONTRAST,
    PARAM_NAMES,
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
        assert report.evaluations <= 800

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

    def test_failed_reverification_raises_verification_error(self, monkeypatch):
        monkeypatch.setattr(search, "VERIFY_TOL", -1.0)
        with pytest.raises(VerificationError, match="re-verification"):
            grid_refine_search(conversion_objective(0.0), budget=100)
        assert issubclass(VerificationError, RuntimeError)

    @pytest.mark.parametrize("shift, fails", [(2e-10, True), (5e-11, False)])
    def test_reverification_gate_on_both_sides(self, shift, fails):
        """Closed rates shifted by 2e-10 fail the 1e-10 gate; by 5e-11 they
        pass, and the discrepancy read is the shift."""
        params = {
            "gamma1": 0.32, "gamma2": 1.0, "gamma3": 1.0, "gamma4": 1.0,
            "phi1_prime": 0.0, "phi2_prime": 0.0, "tau": 0.0,
        }
        closed = rates_at_resonance(params)
        shifted = replace(
            closed,
            **{name: getattr(closed, name) + shift for name in ("t_ng", "t_ns", "t_m_rev")},
        )
        if fails:
            with pytest.raises(VerificationError, match="re-verification"):
                search._verify_with_solver(params, shifted)
        else:
            assert search._verify_with_solver(params, shifted) == pytest.approx(shift, rel=1e-4)

    @pytest.mark.parametrize(
        "budget, ndim, per_dim",
        [
            (2000, 3, 10), (128, 3, 4), (250, 3, 5), (432, 3, 6),
            (300, 2, 12), (400, 1, 200), (100, 4, 3),
        ],
    )
    def test_grid_is_the_largest_that_fits_half_the_budget(
        self, monkeypatch, budget, ndim, per_dim
    ):
        """Perfect cubes included: (budget // 2) ** (1 / 3) rounds 1000 to
        9.999..., which must not cost the grid an axis point."""
        free = {name: Bounds(0.1, 2.0) for name in ("gamma2", "gamma4", "gamma3")[: ndim - 1]}
        shapes = []
        scan = _Tracker.scan

        def recording(self, grids):
            shapes.append(tuple(len(g) for g in grids))
            return scan(self, grids)

        monkeypatch.setattr(_Tracker, "scan", recording)
        grid_refine_search(conversion_objective(0.0, **free), budget=budget)
        assert shapes == [(per_dim,) * ndim]

    # The closed forms give T_Ns = 0 and eta_undefined when gamma3 = 0, the
    # solver T_Ns = 2.4e-35 and eta = 1, so the re-verification fails.
    @pytest.mark.xfail(strict=True, raises=RuntimeError, reason="solver eta where T_N = 0")
    @pytest.mark.parametrize("kind", [ISOLATION_CONTRAST, CONVERSION_MERIT])
    def test_gamma3_zero_optimum_verifies(self, kind):
        obj = conversion_objective(0.0, gamma3=Fixed(0.0))
        obj = Objective(kind=kind, parameters=obj.parameters)
        report = grid_refine_search(obj, budget=100)
        assert report.solver_discrepancy <= 1e-10


#: The benchmark's known-failure search config: a giant spectrum config
#: with an objective whose optimum lands near phi2' = pi at delta = 0,
#: where T_N is about 2e-13 and the rates move by about 1e-11 per 1e-16 rad
#: of phi2', so the re-verification holds only if both engines model the
#: same phases.
NEAR_PI_SEARCH = {
    "system": {
        "family": "giant",
        "gamma_units": "Gamma_ref",
        "gamma": [1.6966226104738438, 1.5280110857335898, 0.8701145826201477, 0.0],
        "phase_units": "radians",
        "phases": {"phi1_prime": 3.2124338172355777, "phi2_prime": 2.544276222803882},
        "regime": "markovian",
        "tau": 0.0,
    },
    "sweep": {
        "delta": {"min": -10.0, "max": 10.0, "count": 11},
        "phase": {"min": 0.0, "max": 2 * math.pi, "count": 2, "linkage": {"phi1_prime": 1.0}},
        "engine": "closed",
    },
    "objective": {
        "kind": "isolation_contrast",
        "parameters": {
            "gamma1": {"bounds": [0.17105699664793833, 0.8056785330022032]},
            "gamma2": {"fixed": 1.0861231586096858},
            "gamma3": {"linked": "gamma1", "factor": 0.732090533474655},
            "gamma4": {"bounds": [0.18702149183034283, 1.1403415341635599]},
            "phi1_prime": {"fixed": 0.34773871223919994},
            "phi2_prime": {"bounds": [0.0, 6.016183149642931]},
            "tau": {"fixed": 1.79873731904273},
        },
        "min_reverse": 0.10133053308142363,
    },
}


def test_search_optimum_near_phi2_pi_verifies(tmp_path):
    cfg = tmp_path / "search.json"
    cfg.write_text(json.dumps(NEAR_PI_SEARCH))
    out = tmp_path / "search.txt"
    assert cli.main(["search", str(cfg), "--budget", "2000", "--out", str(out)]) == 0
    lines = dict(line.split("=", 1) for line in out.read_text().splitlines() if "=" in line)
    assert abs(float(lines["param phi2_prime"]) - math.pi) < 1e-5
    assert float(lines["solver_discrepancy"]) <= 1e-10


# ---------------------------------------------------------------------------
# Objectives shared by the sections below
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# One objective: a scalar reference at a point, its columns' shape at arrays
# ---------------------------------------------------------------------------


def scalar_objective(obj: Objective, point: tuple[float, ...]) -> float:
    """The objective at one point from `rates_at_resonance`."""
    try:
        rates = rates_at_resonance(obj.resolve(dict(zip(obj.free_names(), point))))
    except SingularityError:
        return -math.inf
    if rates.t_m_rev < obj.min_reverse:
        return -math.inf
    if obj.kind == ISOLATION_CONTRAST:
        return rates.t_m_rev - (rates.t_ng + rates.t_ns)
    return rates.eta**obj.purity_weight * rates.t_ns**obj.rate_weight


def point_objective(kind: str, free: dict, **options) -> Objective:
    """`fixed_giant` with ``free`` set and gamma3 fixed unless it is free."""
    return Objective(kind=kind, parameters=fixed_giant(**{"gamma3": Fixed(0.9), **free}), **options)


#: (free parameters, points, objective options): each names what its points hold.
SCALAR_CASES = {
    "singular": ({"phi1_prime": Bounds(0.0, 4.0)}, [(math.pi,)], {}),
    "below_min_reverse": (
        {"gamma1": Bounds(0.001, 3.0), "gamma3": Fixed(1.0)}, [(0.01,), (1.0,)],
        {"min_reverse": 0.4},
    ),
    "gamma3_zero": ({"gamma3": Bounds(0.0, 2.0)}, [(0.0,)], {}),
    "gamma4_zero": ({"gamma4": Bounds(0.0, 2.0)}, [(0.0,)], {}),
    "phi2_pi": ({"phi2_prime": Bounds(0.0, 4.0)}, [(math.pi,)], {}),
    **{
        f"weights_{pw}_{rw}": (
            {"gamma1": Bounds(0.01, 3.0), "phi2_prime": Bounds(0.0, 4.0)},
            [(0.05, 0.0), (0.32, 1.2), (1.0, 2.5), (2.9, 3.9)],
            {"purity_weight": pw, "rate_weight": rw},
        )
        for pw, rw in [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (0.5, 2.0), (1.37, 0.618), (2.718, 1.414)]
    },
}


class TestObjective:
    @pytest.mark.parametrize("kind", [ISOLATION_CONTRAST, CONVERSION_MERIT])
    @pytest.mark.parametrize("case", sorted(SCALAR_CASES))
    def test_evaluate_equals_scalar_reference(self, case, kind):
        free, points, options = SCALAR_CASES[case]
        obj = point_objective(kind, free, **options)
        for point in points:
            assert _Tracker(obj).evaluate(point) == scalar_objective(obj, point)

    def test_scalar_cases_hold_what_they_are_named_for(self):
        def rates(case, index=0):
            free, points, options = SCALAR_CASES[case]
            obj = point_objective(CONVERSION_MERIT, free, **options)
            return obj, rates_at_resonance(obj.resolve(dict(zip(obj.free_names(), points[index]))))

        with pytest.raises(SingularityError):
            rates("singular")
        obj, below = rates("below_min_reverse")
        assert below.t_m_rev < obj.min_reverse < rates("below_min_reverse", 1)[1].t_m_rev
        assert "eta_undefined" in rates("gamma3_zero")[1].flags
        assert rates("gamma4_zero")[1].t_m_rev > 0.0
        # phi2_prime = pi is a dark point of guide N: T_N is tiny, not 0.
        dark = rates("phi2_pi")[1]
        assert 0.0 < dark.t_ng + dark.t_ns < 1e-30 and not dark.flags

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_points_equal_scalar_reference(self, seed):
        rng = random.Random(seed)
        obj = random_objective(rng)
        bounds = [obj.parameters[n] for n in obj.free_names()]
        tracker = _Tracker(obj)
        for _ in range(50):
            point = tuple(rng.choice([b.lo, b.hi, math.pi, rng.uniform(b.lo, b.hi)]) for b in bounds)
            assert tracker.evaluate(point) == scalar_objective(obj, point)

    @pytest.mark.parametrize("kind", [ISOLATION_CONTRAST, CONVERSION_MERIT])
    @pytest.mark.parametrize("name", PARAM_NAMES[:6])
    def test_values_take_the_shape_of_their_columns(self, name, kind):
        obj = point_objective(kind, {name: Bounds(0.0, 4.0)})
        # The column reaches pi, where phi1_prime is singular.
        column = np.linspace(0.0, math.pi, 12)
        assert _objective_values(obj, {name: column}).shape == (12,)
        assert _objective_values(obj, {name: column.reshape(3, 4)}).shape == (3, 4)
        assert np.ndim(_objective_values(obj, {name: 1.2})) == 0


# ---------------------------------------------------------------------------
# The broadcast grid stage against a point-by-point reference
# ---------------------------------------------------------------------------


def per_point_scan(self, grids):
    """The grid stage as one `_Tracker.evaluate` per point, in row-major order."""
    mesh = np.meshgrid(*grids, indexing="ij")
    for point in np.stack([m.ravel() for m in mesh], axis=-1):
        self.evaluate(tuple(float(x) for x in point))


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
        monkeypatch.setattr(search, "BLOCK_CELLS", 100)
        chunked = _Tracker(obj)
        chunked.scan(grids)
        assert (chunked.evaluations, chunked.best_point, chunked.trace, chunked.ties) == (
            whole.evaluations, whole.best_point, whole.trace, whole.ties
        )


# ---------------------------------------------------------------------------
# Revisited refinement probes reuse their value
# ---------------------------------------------------------------------------


def fresh_evaluate(self, point):
    """`_Tracker.evaluate` computing every probe afresh, revisits included."""
    value = float(_objective_values(self.obj, dict(zip(self.names, point))))
    return self.record(point, value)


def counted_search(obj: Objective, budget: int, monkeypatch):
    """The search, the points at which it computed a one-point objective
    value, and each refinement probe's point and value, in order."""
    computed, probes = [], []
    values, evaluate = search._objective_values, _Tracker.evaluate

    def counting_values(obj, columns):
        if all(np.ndim(c) == 0 for c in columns.values()):
            computed.append(tuple(columns.values()))
        return values(obj, columns)

    def logging_evaluate(self, point):
        value = evaluate(self, point)
        probes.append((point, value))
        return value

    with monkeypatch.context() as patch:
        patch.setattr(search, "_objective_values", counting_values)
        patch.setattr(_Tracker, "evaluate", logging_evaluate)
        report = grid_refine_search(obj, budget=budget)
    return report, computed, probes


#: (objective, budget): the edge grids, the anchor, and seeded objectives.
REVISIT_CASES = {
    **{case: (obj, 400) for case, obj in EDGE_OBJECTIVES.items()},
    "anchor": (conversion_objective(2 * 0.32 / 1.32**2), 2000),
    # The refinement closes in on phi1_prime = pi, where the resonance
    # denominators vanish, and probes singular points again and again.
    "singular_refinement": (
        Objective(kind="isolation_contrast", parameters=fixed_giant(phi1_prime=Bounds(2.0, 3.5))),
        600,
    ),
    **{f"seed{seed}": (random_objective(random.Random(seed)), 500) for seed in (1, 2, 5, 7)},
}


class TestRevisitedProbes:
    @pytest.mark.parametrize("case", sorted(REVISIT_CASES))
    def test_one_rates_call_per_distinct_probe(self, case, monkeypatch):
        obj, budget = REVISIT_CASES[case]
        report, computed, probes = counted_search(obj, budget, monkeypatch)
        # One one-point computation per distinct probe, and none for the grid.
        assert len(computed) == len(set(computed)) == len({point for point, _ in probes})
        with monkeypatch.context() as patch:
            patch.setattr(_Tracker, "evaluate", fresh_evaluate)
            assert grid_refine_search(obj, budget=budget) == report

    def test_anchor_revisits_most_probes(self, monkeypatch):
        obj, budget = REVISIT_CASES["anchor"]
        report, computed, probes = counted_search(obj, budget, monkeypatch)
        assert len(probes) == report.evaluations - 1000
        assert 0 < len(computed) < len(probes) / 2

    def test_singular_probe_revisited(self, monkeypatch):
        obj, budget = REVISIT_CASES["singular_refinement"]
        report, computed, probes = counted_search(obj, budget, monkeypatch)
        singular = [point for point, value in probes if value == -math.inf]
        computed_singular = [p for p in computed if p in set(singular)]
        assert len(singular) == 46 and len(set(singular)) == len(computed_singular) == 3
        for point in set(singular):
            with pytest.raises(SingularityError):
                rates_at_resonance(obj.resolve(dict(zip(obj.free_names(), point))))
        assert report.evaluations == 450
