"""Closed-form versus solver agreement over random parameter draws.

The full-size draw count lives in the acceptance suite; this module runs a
faster seeded subset per family, the corruption negative controls, and the
equivalence of the round-based `run_validation` with a draw-by-draw
reference.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from wgscatter import closed_form as cf
from wgscatter import cli, solver, validate
from wgscatter.core import (
    DegenerateConfigError,
    ScatterAmplitudes,
    SingularityError,
    rates_from_amplitudes,
)
from wgscatter.solver import SOLVER_BLOCK
from wgscatter.sweep import BLOCK_CELLS, FAMILIES
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


# Each gate is held on both sides by a perturbation of one route, measured
# on ``validate --draws 300 --seed 0``, whose largest amplitude is 1.86.


@pytest.mark.parametrize("eps, code", [(2e-10, 1), (2e-11, 0)])
def test_pair_gate_on_both_sides(monkeypatch, capsys, eps, code):
    """A phase e^{i eps} on every solver amplitude leaves each modulus and
    residual as it is and moves the pair discrepancy by up to 1.86 eps:
    3.7e-10 fails the 1e-10 gate and exits 1, 3.7e-11 passes."""
    solve_batch = solver.solve_batch

    def rotated(cfg, **kwargs):
        sol = solve_batch(cfg, **kwargs)
        return replace(sol, x=sol.x * np.exp(1j * eps))

    monkeypatch.setattr(solver, "solve_batch", rotated)
    assert cli.main(["validate", "--draws", "300", "--seed", "0"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"validation: {'FAIL' if code else 'PASS'}"
    pair = float(lines[4].split()[0].split("=")[1])
    assert pair == pytest.approx(1.859 * eps, rel=1e-3)


@pytest.mark.parametrize("eps, passed", [(1e-12, False), (2e-13, True)])
def test_closed_residual_gate_on_both_sides(monkeypatch, eps, passed):
    """Closed amplitudes scaled by 1 + eps move the closed residual by about
    2 eps: 2e-12 fails the 1e-12 gate, 4e-13 passes.  The pair discrepancy
    (at most 1.86 eps) stays far under its own gate."""
    components = cf.components

    def scaled(port, fields):
        return {key: value * (1.0 + eps) for key, value in components(port, fields).items()}

    monkeypatch.setattr(cf, "components", scaled)
    report = run_validation(draws=300, seed=0)
    assert report.max_residual_closed.value == pytest.approx(2 * eps, rel=0.01)
    assert report.max_discrepancy.value < 2 * eps
    assert report.passed is passed


@pytest.mark.parametrize("value, code", [(2e-10, 1), (5e-11, 0)])
def test_solver_residual_gate_on_both_sides(monkeypatch, capsys, value, code):
    """The solver residual gate alone.  No perturbation of the solver moves
    only its residual (scaling its solution by 1 + eps moves the hybrid
    residual and the pair discrepancy as much), so the report is set by
    hand, every other maximum 0: 2e-10 fails the 1e-10 gate and exits 1,
    5e-11 passes."""
    report = ValidationReport(draws=1, seed=0)
    report.max_residual_solver.update(value, "giant_forward[draw 3]")
    assert report.passed is (code == 0)
    monkeypatch.setattr(validate, "run_validation", lambda **kw: report)
    assert cli.main(["validate", "--draws", "1"]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"validation: {'FAIL' if code else 'PASS'}"
    assert lines[3] == f"max_solver_residual={value:.17g} (tol 1e-10) at giant_forward[draw 3]"


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


#: (low, high) of a draw's eight values: four rates, the detuning, three phases.
DRAW_BOUNDS = [(0.0, 3.0)] * 4 + [(-10.0, 10.0)] + [(0.0, 2.0 * math.pi)] * 3


def reference_draws(draws: int, seed: int) -> list[np.ndarray]:
    """The draws of `run_validation`, one generator call per value."""
    rng = random.Random(seed)
    return [
        np.array([low + (high - low) * rng.random() for low, high in DRAW_BOUNDS])
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


def test_several_rounds_match_reference(monkeypatch):
    monkeypatch.setattr(validate, "ROUND", 5 * SOLVER_BLOCK)
    draws = 7 * validate.ROUND // 4
    assert draws > 5 * SOLVER_BLOCK
    rows = reference_draws(draws, 11)
    assert_equivalent(run_validation(draws=draws, seed=11), rows, 11)


@pytest.mark.parametrize("seed", range(3))
def test_report_does_not_depend_on_round_size(monkeypatch, seed):
    """Rounds of `ROUND`, of 640 and of 5 draws give the same report lines.
    `2 * ROUND - 1` draws fill a second round of `ROUND` but one, so a round
    size that is not a multiple of the family count runs most of them
    through the wrong family's routes; with 7 draws in the second round a
    size of 4096 goes unseen.  Rounds of 5 run on 647 draws, as 8,192 of
    them take 40 s."""
    own = validate.ROUND
    for draws, sizes in ((2 * own - 1, (640,)), (647, (640, 5))):
        want = run_validation(draws=draws, seed=seed).lines()
        for size in sizes:
            monkeypatch.setattr(validate, "ROUND", size)
            assert run_validation(draws=draws, seed=seed).lines() == want, (draws, size)
        monkeypatch.setattr(validate, "ROUND", own)


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
        blocks.append(len(cfg.delta))
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
    # clear the floor (gamma4 * delta = 1e-10), but the solver's pivots
    # underflow: each atom's diagonal is the subnormal detuning 1e-310.
    rows = reference_draws(10, 4)
    rows[6][:5] = rows[9][:5] = (0.0, 0.0, 1e-310, 1e300, 1e-310)
    with pytest.raises(DegenerateConfigError):
        reference(rows)
    with pytest.raises(DegenerateConfigError, match="draw 6"):
        round_report(rows)


def test_component_mismatch_raises_as_reference(monkeypatch):
    # A two-legged forward kernel that reports one interior region more than
    # the solver's layout has: neither check may compare the two sets.
    kernel = cf.giant_forward_fields

    def extra_region(*args):
        fields = kernel(*args)
        fields.interior["N_k:2"] = fields.interior["N_k:1"]
        return fields

    monkeypatch.setattr(cf, "giant_forward_fields", extra_region)
    rows = reference_draws(10, 5)
    with pytest.raises(AssertionError, match="N_k:2"):
        reference(rows)
    with pytest.raises(AssertionError, match="N_k:2"):
        round_report(rows)


def test_stage_order_beats_case_order_within_a_draw(monkeypatch):
    # Every two-legged forward draw reports an extra interior region (stage
    # 1, case 0), and the two-legged reverse kernel is singular where gamma1
    # is zero (stage 0, case 1).  Draw 3 is the first two-legged draw, so it
    # has both; draw-by-draw checking meets the singularity first.
    forward, reverse = cf.giant_forward_fields, cf.giant_reverse_fields

    def extra_region(*args):
        fields = forward(*args)
        fields.interior["N_k:2"] = fields.interior["N_k:1"]
        return fields

    def singular_without_gamma1(gamma1, *args):
        fields = reverse(gamma1, *args)
        fields.singular = fields.singular | (np.asarray(gamma1) == 0.0)
        return fields

    monkeypatch.setattr(cf, "giant_forward_fields", extra_region)
    monkeypatch.setattr(cf, "giant_reverse_fields", singular_without_gamma1)
    rows = reference_draws(10, 5)
    rows[3][0] = 0.0
    with pytest.raises(SingularityError, match="giant_reverse"):
        reference(rows)
    with pytest.raises(SingularityError, match="giant_reverse.*draw 3"):
        round_report(rows)


def _draw(worst) -> int:
    """The draw number in a report entry's ``label[draw N]``."""
    return int(worst.where.rsplit(" ", 1)[1].rstrip("]"))


@pytest.mark.parametrize("size", [validate.ROUND, 5], ids=["one_round", "rounds_of_5"])
def test_equal_maximum_keeps_the_earlier_draw(monkeypatch, size):
    """A later draw that ties the largest pair discrepancy exactly, being a
    copy of its row, does not take the report, whether it falls in the same
    round or a later one."""
    monkeypatch.setattr(validate, "ROUND", size)
    rows = reference_draws(300 if size > 5 else 60, 3)
    want = round_report(rows).max_discrepancy
    i = _draw(want)
    assert i + 10 < len(rows)
    rows[i + 10] = rows[i].copy()  # a later draw of the same family
    got = round_report(rows).max_discrepancy
    assert (got.value, got.where) == (want.value, want.where)
    # The copy holds the same value: without the original it is reported.
    rows[i] = rows[i + 5].copy()
    got = round_report(rows).max_discrepancy
    assert (got.value, _draw(got)) == (want.value, i + 10)


@pytest.mark.parametrize("draws", [1, 2, 3, 4])
def test_fewer_draws_than_families_match_reference(draws):
    """The families past the last draw run their routes on no draws.  The
    lines match the reference's exactly: with one draw every closed residual
    is 0, so no label is reported for that maximum."""
    want, _ = reference(reference_draws(draws, 0))
    assert run_validation(draws=draws).lines() == want.lines()


@pytest.mark.parametrize("draws", [7, validate.ROUND + 1])
def test_no_block_exceeds_block_cells(monkeypatch, draws):
    blocks = []
    batch = solver.solve_batch

    def recording(cfg, **kwargs):
        blocks.append(len(cfg.delta))
        return batch(cfg, **kwargs)

    monkeypatch.setattr(solver, "solve_batch", recording)
    run_validation(draws=draws, seed=0)
    assert max(blocks) <= BLOCK_CELLS
    families = validate.FAMILY_NAMES
    cases = (len(validate._DRAWS[families[i % len(families)]]) for i in range(draws))
    assert sum(blocks) == sum(cases)
