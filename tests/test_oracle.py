"""Closed-form versus solver agreement over random parameter draws.

The full-size draw count lives in the acceptance suite; this module runs a
faster seeded subset per family, the corruption negative controls, and the
equivalence of the round-based `run_validation` with a draw-by-draw
reference.
"""

import math

import numpy as np
import pytest

from wgscatter import closed_form as cf
from wgscatter import solver, validate
from wgscatter.core import (
    DegenerateConfigError,
    ScatterAmplitudes,
    SingularityError,
    rates_from_amplitudes,
)
from wgscatter.sweep import FAMILIES, SOLVER_BLOCK
from wgscatter.validate import (
    ValidationReport,
    hybrid_residual,
    pair_discrepancy,
    run_validation,
)


#: Every route of the family table: "<family>" is the forward route and
#: "<family>_reverse" the reverse one.
ROUTES = {
    f"{name}{suffix}": getattr(family, direction)
    for name, family in FAMILIES.items()
    for direction, suffix in (("forward", ""), ("reverse", "_reverse"))
}


@pytest.mark.parametrize("case", sorted(ROUTES))
def test_family_agreement(case):
    route = ROUTES[case]
    rng = np.random.default_rng(sorted(ROUTES).index(case))
    for _ in range(120):
        g = tuple(rng.uniform(0.0, 3.0, 4))
        delta = float(rng.uniform(-10.0, 10.0))
        phases = dict(zip(route.phases, rng.uniform(0.0, 2 * np.pi, len(route.phases))))
        closed = route.amplitudes(g, delta, phases)
        numeric = solver.solve(route.config(g, delta, phases))
        assert pair_discrepancy(closed, numeric) < 1e-10


def test_validation_report_deterministic():
    a = run_validation(draws=60, seed=5)
    b = run_validation(draws=60, seed=5)
    assert a.lines() == b.lines()
    assert a.passed


def test_corrupted_formula_detected(monkeypatch):
    kernel = cf.giant_forward_fields

    def corrupt(*args):
        fields = kernel(*args)
        fields.r1 = fields.r1 + 1e-6
        return fields

    monkeypatch.setattr(cf, "giant_forward_fields", corrupt)
    report = run_validation(draws=20, seed=1)
    assert not report.passed
    assert report.max_discrepancy.value > 1e-10


def test_wrong_terminated_reverse_kernel_detected(monkeypatch):
    kernel = cf.mirrored_reverse_fields

    def wrong(*args):
        fields = kernel(*args)
        fields.t1 = fields.t1 * (1.0 + 1e-6)
        return fields

    monkeypatch.setattr(cf, "mirrored_reverse_fields", wrong)
    assert not run_validation(draws=20, seed=1).passed


def swapping(a: str, b: str):
    """`closed_form.components` with components ``a`` and ``b`` of forward
    kernel output swapped."""
    components = cf.components

    def broken(port, fields):
        items = components(port, fields)
        if port == 1 and a in items:
            items[a], items[b] = items[b], items[a]
        return items

    return broken


def test_swapped_ports_detected(monkeypatch):
    # Only the two-legged forward route has n_left_k != n_right_k.
    monkeypatch.setattr(cf, "components", swapping("n_left_k", "n_right_k"))
    report = run_validation(draws=50, seed=1)
    assert not report.passed
    assert report.max_discrepancy.value > 1e-10
    assert report.max_discrepancy.where.startswith("giant_forward[")


def test_swapped_interior_movers_detected(monkeypatch):
    monkeypatch.setattr(cf, "components", swapping("M_k:1:R", "M_k:1:L"))
    report = run_validation(draws=50, seed=1)
    assert not report.passed
    assert report.max_discrepancy.value > 1e-10


#: The seven distinct routes: both small families share their reverse one.
DISTINCT_ROUTES = {route.kernel: route for route in ROUTES.values()}


def assert_round_trip(a: ScatterAmplitudes) -> None:
    items = a.components()
    back = ScatterAmplitudes.from_components(a.incident_port, items, a.flags)
    assert back == a
    assert list(back.components().items()) == list(items.items())


@pytest.mark.parametrize("kernel", sorted(DISTINCT_ROUTES))
def test_components_round_trip(kernel):
    route = DISTINCT_ROUTES[kernel]
    rng = np.random.default_rng(3)
    g = tuple(rng.uniform(0.0, 3.0, 4))
    phases = dict(zip(route.phases, rng.uniform(0.0, 2 * np.pi, len(route.phases))))
    assert_round_trip(route.amplitudes(g, 0.7, phases))
    assert_round_trip(solver.solve(route.config(g, 0.7, phases)))


def test_flagged_components_round_trip():
    route = FAMILIES["giant"].forward
    cfg = route.config((1.0, 0.25, 1.0, 0.0), 0.0, {"phi1_prime": math.pi, "phi2_prime": 0.0})
    a = solver.solve(cfg)
    assert a.flags == ("ill_conditioned",)
    assert_round_trip(a)


# ---------------------------------------------------------------------------
# Rounds against a draw-by-draw reference
# ---------------------------------------------------------------------------


def reference_draws(draws: int, seed: int) -> list[np.ndarray]:
    """The draws of `run_validation`, one generator call per value group."""
    rng = np.random.default_rng(seed)
    return [
        np.concatenate(
            [
                rng.uniform(0.0, 3.0, size=4),
                [rng.uniform(-10.0, 10.0)],
                rng.uniform(0.0, 2.0 * np.pi, size=3),
            ]
        )
        for _ in range(draws)
    ]


def reference(rows, seed: int = 0):
    """Check one draw at a time with scalar amplitude sets and one running
    maximum per check, as `run_validation` once did.

    Returns the report and, for the closed residuals and the pair
    discrepancy, every value at each label.
    """
    report = ValidationReport(draws=len(rows), seed=seed)
    values: dict[str, dict[str, list[float]]] = {
        "max_residual_closed": {},
        "max_discrepancy": {},
    }
    for i, row in enumerate(rows):
        family = validate.FAMILY_NAMES[i % len(validate.FAMILY_NAMES)]
        g = tuple(row[:4])
        delta = float(row[4])
        phases = {name: float(row[5 + k]) for name, k in validate._DRAWN_PHASE.items()}
        cases = []
        for label, route in validate._DRAWS[family]:
            closed = route.amplitudes(g, delta, phases)
            numeric = solver.solve(route.config(g, delta, phases))
            cases.append((label, closed, numeric))
        for label, closed, numeric in cases:
            where = f"{label}[draw {i}]"
            closed_values = [
                hybrid_residual(closed, numeric, validate._PRINTED[label]),
                rates_from_amplitudes(closed).conservation_residual,
            ]
            numeric_rates = rates_from_amplitudes(numeric)
            discrepancy = pair_discrepancy(closed, numeric)
            for value in closed_values:
                report.max_residual_closed.update(value, where)
            report.max_residual_solver.update(numeric_rates.conservation_residual, where)
            report.max_discrepancy.update(discrepancy, where)
            values["max_residual_closed"][where] = closed_values
            values["max_discrepancy"][where] = [discrepancy]
    return report, values


def round_report(rows) -> ValidationReport:
    report = ValidationReport(draws=len(rows), seed=0)
    for first in range(0, len(rows), validate.ROUND):
        validate._run_round(report, first, np.array(rows[first : first + validate.ROUND]))
    return report


def assert_equivalent(report: ValidationReport, rows, seed: int = 0) -> None:
    """Same verdict and solver maximum; the other maxima within 1e-15, at a
    label whose reference value is within 1e-15 of the reference maximum."""
    want, values = reference(rows, seed)
    assert report.passed == want.passed
    assert report.lines()[3] == want.lines()[3]  # max_solver_residual
    for name in ("max_residual_closed", "max_discrepancy"):
        got, best = getattr(report, name), getattr(want, name)
        assert abs(got.value - best.value) <= 1e-15, name
        assert best.value - max(values[name][got.where]) <= 1e-15, name


@pytest.mark.parametrize("seed", range(5))
def test_rounds_match_draw_by_draw_reference(seed):
    assert_equivalent(run_validation(draws=300, seed=seed), reference_draws(300, seed), seed)


def test_several_rounds_match_reference():
    draws = 7 * validate.ROUND // 4
    assert draws > 5 * SOLVER_BLOCK
    rows = reference_draws(draws, 11)
    assert_equivalent(run_validation(draws=draws, seed=11), rows, 11)


def test_zero_rates_split_a_round_into_layout_groups(monkeypatch):
    """Exact-zero rates drop legs; the route solves each zero pattern as its
    own block and still matches the reference."""
    rows = reference_draws(40, 2)
    for i in (1, 11, 21):  # point-coupled forward draws
        rows[i][3] = 0.0  # gamma4: no N_q channel
    rows[2][0] = 0.0  # point-coupled reverse, gamma1
    rows[7][2] = 0.0  # point-coupled reverse, gamma3
    blocks = []
    batch = solver.solve_batch

    def recording(cfg, **kwargs):
        blocks.append(len(cfg.energy))
        return batch(cfg, **kwargs)

    monkeypatch.setattr(solver, "solve_batch", recording)
    report = round_report(rows)
    # Seven routes, plus one more block for each zero pattern.
    assert len(blocks) == 7 + 1 + 2
    assert_equivalent(report, rows)


def test_singular_closed_draw_raises_as_reference():
    rows = reference_draws(10, 3)
    rows[6][:5] = 0.0  # point-coupled forward at resonance, all rates zero
    rows[8][:5] = 0.0  # a later draw, which must not be the one reported
    with pytest.raises(SingularityError):
        reference(rows)
    with pytest.raises(SingularityError, match="draw 6"):
        round_report(rows)


def test_singular_solver_draw_raises_as_reference():
    # Point-coupled forward and terminated forward: the closed denominators
    # clear the floor, but the solver's pivots underflow.
    rows = reference_draws(10, 4)
    rows[6][:5] = rows[9][:5] = (0.0, 0.0, 5e-324, 1e300, 1e-300)
    with pytest.raises(DegenerateConfigError):
        reference(rows)
    with pytest.raises(DegenerateConfigError, match="draw 6"):
        round_report(rows)


def test_component_mismatch_raises_as_reference():
    # Two-legged forward with gamma4 = 0: the solver has no N_q channel, so
    # it has no N_q:1 region to compare with the closed one.
    rows = reference_draws(10, 5)
    rows[8][3] = 0.0
    with pytest.raises(AssertionError, match="N_q:1"):
        reference(rows)
    with pytest.raises(AssertionError, match="N_q:1"):
        round_report(rows)


@pytest.mark.parametrize("draws", [7, 3 * validate.ROUND + 1])
def test_no_block_exceeds_solver_block(monkeypatch, draws):
    blocks = []
    batch = solver.solve_batch

    def recording(cfg, **kwargs):
        blocks.append(len(cfg.energy))
        return batch(cfg, **kwargs)

    monkeypatch.setattr(solver, "solve_batch", recording)
    run_validation(draws=draws, seed=0)
    assert max(blocks) <= SOLVER_BLOCK
    families = validate.FAMILY_NAMES
    cases = (len(validate._DRAWS[families[i % len(families)]]) for i in range(draws))
    assert sum(blocks) == sum(cases)
