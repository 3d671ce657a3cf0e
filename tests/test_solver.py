"""Boundary-matching solver: layout, assembly, textbook cases, properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgscatter import configs, solver
from wgscatter.search import Bounds, Fixed, Objective, grid_refine_search
from wgscatter.core import (
    AtomSpec,
    ConfigError,
    CouplingLeg,
    DegenerateConfigError,
    IncidentWave,
    PhaseModel,
    SystemConfig,
    rates_from_amplitudes,
)
from wgscatter.sweep import (
    ETA_UNDEFINED,
    FAMILIES,
    ILL_FORWARD,
    ILL_REVERSE,
    SOLVER_BLOCK,
    Axis,
    PhaseAxis,
    SweepSpec,
    run_sweep,
)

#: Every route of the family table: "<family>" is the forward route and
#: "<family>_reverse" the reverse one.
ROUTES = {
    f"{name}{suffix}": getattr(family, direction)
    for name, family in FAMILIES.items()
    for direction, suffix in (("forward", ""), ("reverse", "_reverse"))
}


def single_atom_config(gamma: float, delta: float) -> SystemConfig:
    return SystemConfig(
        atoms=(AtomSpec("two_level", omega_1=1.0),),
        legs=(CouplingLeg(0, "M", "ge", 0.0, gamma),),
        incident=IncidentWave(port=1, delta=delta),
    )


class TestTextbookCases:
    @pytest.mark.parametrize("delta", [-3.0, -0.4, 0.0, 0.9, 5.0])
    def test_single_two_level_atom_transmission(self, delta):
        # Standard lorentzian line: t = delta / (delta + i*gamma).
        gamma = 0.8
        a = solver.solve(single_atom_config(gamma, delta))
        expected_t = delta / (delta + 1j * gamma)
        assert a.m_right == pytest.approx(expected_t, abs=1e-12)
        assert a.m_left == pytest.approx(expected_t - 1.0, abs=1e-12)

    def test_decoupled_passthrough(self):
        cfg = SystemConfig(
            atoms=(AtomSpec("two_level", omega_1=1.0),),
            legs=(CouplingLeg(0, "M", "ge", 0.0, 0.0),),
            incident=IncidentWave(port=1, delta=0.3),
        )
        a = solver.solve(cfg)
        assert a.m_right == 1.0
        assert a.m_left == 0.0
        assert a.excited == (0.0j,)

    def test_bare_terminated_guide_reflects(self):
        cfg = SystemConfig(
            atoms=(AtomSpec("two_level", omega_1=1.0),),
            legs=(CouplingLeg(0, "M", "ge", 0.0, 0.0),),
            incident=IncidentWave(port=1, delta=0.3),
            wall=2.0,
        )
        a = solver.solve(cfg)
        assert abs(a.m_left) == pytest.approx(1.0, abs=1e-12)
        assert a.m_right == 0.0


class TestLayout:
    def test_separated_pair_regions(self):
        cfg = configs.small_separated((1.0, 1.0, 1.0, 1.0), 0.0, 1.0, 0.5)
        layout = solver.build_layout(cfg)
        assert layout.breakpoints == (0.0, 1.0)
        names = {ch.name: ch for ch in layout.channels}
        assert set(names) == {"M_k", "N_k", "N_q"}
        assert all(ch.n_regions == 3 for ch in layout.channels)

    def test_giant_breakpoints(self):
        cfg = configs.giant((1.0, 1.0, 1.0, 1.0), 0.0, 0.4, 0.2)
        layout = solver.build_layout(cfg)
        assert layout.breakpoints == (0.0, 1.0)

    def test_semi_infinite_wall_region(self):
        cfg = configs.semi_infinite((1.0, 1.0, 1.0, 1.0), 0.0, 0.7)
        layout = solver.build_layout(cfg)
        assert layout.breakpoints == (0.0, 1.0)
        m_k = next(ch for ch in layout.channels if ch.name == "M_k")
        n_k = next(ch for ch in layout.channels if ch.name == "N_k")
        assert m_k.terminated and m_k.n_regions == 2
        assert not n_k.terminated and n_k.n_regions == 3

    def test_q_channel_only_with_active_se_leg(self):
        cfg = configs.small_overlap((1.0, 1.0, 1.0, 0.0), 0.0)
        layout = solver.build_layout(cfg)
        assert all(ch.kind == "k" for ch in layout.channels)

    def test_expected_unknowns_present(self):
        cfg = configs.small_separated((1.0, 1.0, 1.0, 1.0), 0.0, 1.0, 0.5)
        layout = solver.build_layout(cfg)
        system = solver.assemble(layout, cfg, cfg.energy)
        n = system.matrix.shape[0]
        assert system.matrix.shape == (n, n)
        assert len(system.rhs) == n == len(system.labels)
        assert {"u_e1", "u_e2"} <= set(system.labels)
        assert {"M_k:1:R", "M_k:1:L"} <= set(system.labels)


class TestSolutions:
    def test_matches_overlap_formula(self):
        # Frozen from the point-coupled closed form at (1, 0.25, 1, 0), delta=0.
        cfg = configs.small_overlap((1.0, 0.25, 1.0, 0.0), 0.0)
        a = solver.solve(cfg)
        assert a.m_left == pytest.approx(-1.0, abs=1e-12)
        assert a.m_right == pytest.approx(0.0, abs=1e-12)
        assert abs(a.n_left_k) < 1e-12

    def test_giant_resonant_ratio(self):
        cfg = configs.giant((0.32, 1.0, 1.0, 1.0), 0.0, 0.3 * math.pi, 0.3 * math.pi)
        rates = rates_from_amplitudes(solver.solve(cfg))
        assert rates.eta == pytest.approx(1.0 / 1.32, abs=1e-10)

    def test_semi_infinite_anchor(self):
        cfg = configs.semi_infinite((0.32, 1.0, 1.0, 1.0), 0.0, 0.0)
        rates = rates_from_amplitudes(solver.solve(cfg))
        assert rates.t_ns == pytest.approx(0.604, abs=1e-3)

    def test_conservation_over_parametrized_cases(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = tuple(rng.uniform(0, 3, 4))
            delta = float(rng.uniform(-10, 10))
            phi = rng.uniform(0, 2 * math.pi, 2)
            cfg = configs.giant(g, delta, float(phi[0]), float(phi[1]))
            rates = rates_from_amplitudes(solver.solve(cfg))
            assert rates.conservation_residual < 1e-10

    def test_degenerate_system_raises(self):
        # Two identical atoms at one point produce exactly duplicate columns.
        cfg = SystemConfig(
            atoms=(
                AtomSpec("two_level", omega_1=1.0),
                AtomSpec("two_level", omega_1=1.0),
            ),
            legs=(
                CouplingLeg(0, "M", "ge", 0.0, 1.0),
                CouplingLeg(1, "M", "ge", 0.0, 1.0),
            ),
            incident=IncidentWave(port=1, delta=0.0),
        )
        with pytest.raises(DegenerateConfigError):
            solver.solve(cfg)

    def test_near_singular_flagged(self):
        # Two-legged atom with phase pi at resonance: couplings nearly cancel
        # and the system is flagged rather than aborted.
        cfg = configs.giant((1.0, 0.25, 1.0, 0.0), 0.0, math.pi, 0.0)
        a = solver.solve(cfg)
        assert "ill_conditioned" in a.flags


class TestStructuralProperties:
    def test_permutation_invariance(self):
        # Solving a row/column-permuted system recovers the same amplitudes.
        cfg = configs.small_separated((1.2, 0.7, 0.5, 1.9), 1.3, 2.0, 1.1)
        layout = solver.build_layout(cfg)
        system = solver.assemble(layout, cfg, cfg.energy)
        x_direct = np.linalg.solve(system.matrix, system.rhs)
        rng = np.random.default_rng(3)
        n = len(system.rhs)
        rows, cols = rng.permutation(n), rng.permutation(n)
        permuted = system.matrix[np.ix_(rows, cols)]
        x_perm = np.linalg.solve(permuted, system.rhs[rows])
        restored = np.empty_like(x_perm)
        restored[cols] = x_perm
        assert np.allclose(restored, x_direct, atol=1e-12)

    @given(st.floats(0.2, 2.0), st.floats(-1.0, 1.0))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_linear_in_incident_amplitude(self, scale, phase):
        amp = scale * complex(math.cos(phase), math.sin(phase))
        base = configs.small_overlap((0.8, 1.1, 0.6, 0.9), 0.7)
        scaled = SystemConfig(
            atoms=base.atoms,
            legs=base.legs,
            incident=IncidentWave(port=1, delta=0.7, amplitude=amp),
            wall=base.wall,
        )
        a0 = solver.solve(base)
        a1 = solver.solve(scaled)
        assert a1.m_left == pytest.approx(amp * a0.m_left, abs=1e-12)
        assert a1.n_left_q == pytest.approx(amp * a0.n_left_q, abs=1e-12)

    def test_reverse_config_has_single_atom(self):
        cfg = configs.reverse_small(1.0, 1.0, 0.0)
        a = solver.solve(cfg)
        assert len(a.excited) == 1
        assert a.n_left_q == 0.0 and a.n_right_q == 0.0


#: Every builder: its rate arguments and the phase constants it takes.
BUILDER_CASES = {
    "small_overlap": (((0.5, 1.0, 1.5, 0.7),), ()),
    "small_separated": (((0.5, 1.0, 1.5, 0.7),), (0.9, 1.3)),
    "giant": (((0.5, 1.0, 1.5, 0.7),), (0.4, 1.1)),
    "semi_infinite": (((0.5, 1.0, 1.5, 0.7),), (0.2,)),
    "reverse_small": ((0.5, 1.5), ()),
    "reverse_giant": ((0.5, 1.5), (0.4,)),
    "reverse_semi_infinite": ((0.5, 1.5), (0.2,)),
}


class TestBlockSolve:
    @pytest.mark.parametrize("builder", sorted(BUILDER_CASES))
    def test_block_is_bitwise_per_cell(self, builder):
        """A block's matrices and outgoing amplitudes equal each cell's own,
        with detuning-dependent phases (non-Markovian shifts) per cell."""
        build = getattr(configs, builder)
        rates, phases = BUILDER_CASES[builder]
        delta = np.linspace(-4.0, 4.0, 9)
        shifted = [p + 0.6 * delta for p in phases]
        block = build(*rates, delta, *shifted)
        system = solver.assemble(solver.build_layout(block), block, block.energy)
        result = solver.solve_batch(block)
        assert not result.singular.any()
        for j, d in enumerate(delta.tolist()):
            cell = build(*rates, d, *(float(p[j]) for p in shifted))
            cell_system = solver.assemble(solver.build_layout(cell), cell, cell.energy)
            assert system.matrix[j].tobytes() == cell_system.matrix.tobytes()
            amps = solver.solve(cell)
            assert result.outgoing[j].tobytes() == np.array(amps.outgoing()).tobytes()
            assert bool(result.ill_conditioned[j]) == ("ill_conditioned" in amps.flags)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_per_cell_rates_are_bitwise_per_cell(self, route):
        """Rates, detunings and phases all vary over the block: its outgoing
        amplitudes and full solution equal each cell's own solve."""
        rng = np.random.default_rng(sorted(ROUTES).index(route))
        r = ROUTES[route]
        gammas = tuple(rng.uniform(0.0, 3.0, (4, 60)))
        delta = rng.uniform(-10.0, 10.0, 60)
        phases = {name: rng.uniform(0.0, 2 * np.pi, 60) for name in r.phases}
        result = solver.solve_batch(r.config(gammas, delta, phases))
        assert not result.singular.any()
        column = {label: k for k, label in enumerate(result.labels)}
        for j in range(60):
            cell = r.config(
                tuple(float(g[j]) for g in gammas),
                float(delta[j]),
                {name: float(p[j]) for name, p in phases.items()},
            )
            amps = solver.solve(cell)
            assert result.outgoing[j].tobytes() == np.array(amps.outgoing()).tobytes()
            system = solver.assemble(solver.build_layout(cell), cell, cell.energy)
            x = np.linalg.solve(system.matrix, system.rhs)
            assert result.labels == system.labels
            assert result.x[j].tobytes() == x.tobytes()
            assert set(result.interior) == set(amps.interior)
            for label, pair in amps.interior.items():
                right = result.x[j, column[f"{label}:R"]]
                left = result.x[j, column[f"{label}:L"]]
                assert (right, left) == pair

    def test_condition_check_can_be_skipped(self):
        block = configs.giant((0.5, 1.0, 1.5, 0.7), np.linspace(-1.0, 1.0, 5), 0.4, 1.1)
        checked = solver.solve_batch(block)
        unchecked = solver.solve_batch(block, check_conditioning=False)
        assert checked.ill_conditioned is not None and unchecked.ill_conditioned is None
        assert unchecked.x.tobytes() == checked.x.tobytes()

    def test_block_cells_share_one_active_leg_pattern(self):
        gammas = (np.array([1.0, 1.0]), 1.0, 1.0, np.array([0.5, 0.0]))
        with pytest.raises(ValueError, match="active-leg pattern"):
            solver.solve_batch(configs.giant(gammas, np.array([0.1, 0.2]), 0.3, 0.4))
        zero = (np.array([1.0, 1.0]), 1.0, 1.0, np.zeros(2))
        result = solver.solve_batch(configs.giant(zero, np.array([0.1, 0.2]), 0.3, 0.4))
        assert not any(label.startswith("N_q") for label in result.labels)

    @pytest.mark.parametrize("where", range(4))
    def test_negative_rate_entry_is_rejected(self, where):
        gammas = [np.ones(3) for _ in range(4)]
        gammas[where] = np.array([1.0, -1e-300, 1.0])
        with pytest.raises(ConfigError):
            configs.giant(tuple(gammas), np.zeros(3), 0.1, 0.2)
        with pytest.raises(ConfigError):
            CouplingLeg(0, "M", "ge", 0.0, gammas[where])

    def test_block_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            solver.solve_batch(configs.giant((1.0, 1.0, 1.0, 1.0), 0.3, 0.1, 0.2))

    def test_one_index_per_scalar_solve(self, monkeypatch):
        built = []
        original = solver._Index.__init__

        def counting_init(self, layout):
            built.append(layout)
            original(self, layout)

        monkeypatch.setattr(solver._Index, "__init__", counting_init)
        solver.solve(configs.giant((1.0, 1.0, 1.0, 1.0), 0.3, 0.1, 0.2))
        assert len(built) == 1

    def test_stacked_rhs_is_version_independent(self, monkeypatch):
        """numpy < 2.0 reads a 1-D right-hand side against a stack of
        matrices as a matrix operand and raises; the block solve must give
        one with the matrices' own number of dimensions."""
        original = np.linalg.solve
        shapes = []

        def strict_solve(a, b):
            shapes.append((np.ndim(a), np.ndim(b)))
            if np.ndim(a) > 2:
                assert np.ndim(b) == np.ndim(a)
            return original(a, b)

        monkeypatch.setattr(np.linalg, "solve", strict_solve)
        block = configs.giant((1.0, 1.0, 1.0, 1.0), np.linspace(-1.0, 1.0, 5), 0.1, 0.2)
        result = solver.solve_batch(block)
        assert (3, 3) in shapes
        assert result.outgoing.shape == (5, 6)

    def test_non_finite_solution_is_singular(self):
        # A subnormal decay rate at resonance: the LU pivot underflows.
        block = configs.semi_infinite((0.0, 5e-324, 0.0, 0.0), np.array([4.0, 2.0, 0.0]), 0.0)
        result = solver.solve_batch(block)
        assert result.singular.tolist() == [False, False, True]
        assert np.isfinite(result.outgoing).all()
        assert not result.outgoing[2].any()

    def test_non_finite_solution_raises_in_scalar_solve(self):
        # The cell `solve_batch` marks singular above; `solve` raises on it
        # as on an exactly singular system.
        with pytest.raises(DegenerateConfigError, match="non-finite"):
            solver.solve(configs.semi_infinite((0.0, 5e-324, 0.0, 0.0), 0.0, 0.0))
        assert solver.solve(configs.semi_infinite((0.0, 5e-324, 0.0, 0.0), 2.0, 0.0)).flags == ()

    def test_linear_system_takes_labels(self):
        system = solver.LinearSystem(np.eye(2), np.ones(2), ("a", "b"))
        assert system.labels == ("a", "b")


def conditioned_stack(rng, kappas, n: int) -> np.ndarray:
    """Complex n x n matrices U diag(s) V^H, one per target condition number,
    with singular values log-spaced from 1 down to 1/kappa."""
    cells = []
    for kappa in kappas:
        u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        cells.append((u * np.logspace(0.0, -math.log10(kappa), n)) @ v.conj().T)
    return np.array(cells)


#: Condition numbers from 1e6 to 1e15, with several in the range (1e10, 1e12]
#: that the Frobenius bound cannot clear and the gate itself.
KAPPAS = (*np.logspace(6.0, 15.0, 19).tolist(), 2e10, 1e11, 5e11, 9.9e11, 1e12, 1.01e12)


def exact_flags(matrix: np.ndarray) -> np.ndarray:
    return np.linalg.cond(matrix) > solver.ILL_CONDITIONED


@pytest.fixture
def cond_cells(monkeypatch):
    """Number of matrices each exact (SVD) np.linalg.cond call receives."""
    cells: list[int] = []
    original = np.linalg.cond

    def counting_cond(x, p=None):
        if p is None:
            cells.append(math.prod(np.shape(x)[:-2]))
        return original(x, p)

    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    return cells


def twin_atoms(delta) -> SystemConfig:
    """Two identical atoms at one point: exactly singular at delta = 0."""
    return SystemConfig(
        atoms=(AtomSpec("two_level", omega_1=1.0), AtomSpec("two_level", omega_1=1.0)),
        legs=(CouplingLeg(0, "M", "ge", 0.0, 1.0), CouplingLeg(1, "M", "ge", 0.0, 1.0)),
        incident=IncidentWave(port=1, delta=delta),
    )


class TestIllConditionedScreen:
    """`solver._ill_conditioned` is the exact `cond > ILL_CONDITIONED` check,
    cell by cell, with the SVD run only where the bound cannot decide."""

    @pytest.mark.parametrize("n", [4, 13, 20])
    def test_stack_and_matrices_match_exact_check(self, n, cond_cells):
        stack = conditioned_stack(np.random.default_rng(n), KAPPAS, n)
        expected = exact_flags(stack)
        assert expected.any() and not expected.all()
        cond_cells.clear()
        flags = solver._ill_conditioned(stack)
        assert flags.dtype == bool
        assert flags.tolist() == expected.tolist()
        # The cells at or above 2e10 have a bound above the screen.
        assert sum(cond_cells) >= sum(k >= 2e10 for k in KAPPAS)
        for matrix, flag in zip(stack, expected.tolist()):
            assert bool(solver._ill_conditioned(matrix)) is flag

    def test_block_whose_stacked_solve_raised(self):
        block = twin_atoms(np.linspace(-1.0, 1.0, 5))
        matrix = solver.assemble(solver.build_layout(block), block, block.energy).matrix
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(matrix)
        expected = exact_flags(matrix)
        assert expected.tolist() == [False, False, True, False, False]
        assert solver._ill_conditioned(matrix).tolist() == expected.tolist()
        result = solver.solve_batch(block)
        assert result.singular.tolist() == expected.tolist()
        assert result.ill_conditioned.tolist() == expected.tolist()

    def test_non_finite_inverse_gets_exact_check(self):
        matrix = np.diag([1.0, 1e-310]).astype(complex)
        assert not np.isfinite(np.linalg.inv(matrix)).all()
        assert bool(solver._ill_conditioned(matrix)) is bool(exact_flags(matrix)) is True
        stack = np.array([np.eye(2, dtype=complex), matrix])
        assert solver._ill_conditioned(stack).tolist() == exact_flags(stack).tolist()

    def test_well_conditioned_block_runs_no_svd(self, cond_cells):
        delta = np.linspace(-10.0, 10.0, SOLVER_BLOCK)
        result = solver.solve_batch(configs.giant((0.5, 1.0, 1.5, 0.7), delta, 0.4, 1.1))
        assert not result.ill_conditioned.any()
        solver.solve(configs.giant((0.5, 1.0, 1.5, 0.7), 0.3, 0.4, 1.1))
        assert sum(cond_cells) == 0

    def test_ill_conditioned_cells_still_reach_svd(self, cond_cells):
        # Phases 3, pi - 0.07, pi: the cells at pi and resonance are flagged.
        axis = PhaseAxis(3.0, math.pi, 3, linkage=(("phi1_prime", 1.0),))
        spec = SweepSpec("giant", (1.0, 0.25, 1.0, 0.0), PhaseModel(), Axis(-1.0, 1.0, 5), axis, "solver")
        codes = run_sweep(spec).codes
        flagged = int(np.count_nonzero(codes & (ILL_FORWARD | ILL_REVERSE)))
        assert flagged >= 1
        assert codes[2, 2] & ILL_FORWARD
        assert flagged <= sum(cond_cells) < codes.size


#: The giant spec of `test_ill_conditioned_cells_still_reach_svd`: phases
#: 3, pi - 0.07 and pi, where the cell at pi and resonance is flagged.
FLAGGED_GAMMAS = (1.0, 0.25, 1.0, 0.0)
FLAGGED_PHASES = PhaseAxis(3.0, math.pi, 3, linkage=(("phi1_prime", 1.0),))


def flagged_spec(engine: str, n_delta: int = 5) -> SweepSpec:
    return SweepSpec(
        "giant", FLAGGED_GAMMAS, PhaseModel(), Axis(-1.0, 1.0, n_delta), FLAGGED_PHASES, engine
    )


@pytest.fixture
def screen_calls(monkeypatch):
    """Number of matrices each `solver._ill_conditioned` call receives."""
    calls: list[int] = []
    original = solver._ill_conditioned

    def counting_screen(matrix):
        calls.append(math.prod(np.shape(matrix)[:-2]))
        return original(matrix)

    monkeypatch.setattr(solver, "_ill_conditioned", counting_screen)
    return calls


class TestConditionScreenCallers:
    """Only `solver`-engine sweeps write the `ill_conditioned` flag, so only
    they run the condition screen; `both` and the search re-verification
    drop the solver's flags and skip it."""

    def test_solver_sweep_screens_each_block_and_direction(self, screen_calls):
        codes = run_sweep(flagged_spec("solver", SOLVER_BLOCK + 1)).codes
        assert codes.any()
        # Three phase rows of two blocks (SOLVER_BLOCK cells and one cell),
        # each solved forward and reverse.
        assert screen_calls == [SOLVER_BLOCK, SOLVER_BLOCK, 1, 1] * 3

    def test_both_sweep_runs_no_screen(self, screen_calls):
        both = run_sweep(flagged_spec("both"))
        assert screen_calls == []
        closed = run_sweep(flagged_spec("closed"))
        solved = run_sweep(flagged_spec("solver"))
        assert both.codes.tobytes() == closed.codes.tobytes()
        assert both.engine_discrepancy == max(
            float(np.abs(closed.rates[name] - solved.rates[name]).max())
            for name in closed.rates
        )

    def test_search_verification_runs_no_screen(self, screen_calls):
        obj = Objective(
            kind="conversion_merit",
            parameters={
                "gamma1": Bounds(0.01, 3.0),
                "gamma2": Fixed(1.0),
                "gamma3": Fixed(1.0),
                "gamma4": Fixed(1.0),
            },
        )
        report = grid_refine_search(obj, budget=100)
        assert report.solver_discrepancy <= 1e-10
        assert screen_calls == []

    def test_unchecked_rates_match_checked(self):
        """Skipping the screen drops only the ill_conditioned bits."""
        n_delta = 5
        delta = np.tile(np.linspace(-1.0, 1.0, n_delta), FLAGGED_PHASES.count)
        phases = {
            "phi1_prime": np.repeat(FLAGGED_PHASES.values(), n_delta),
            "phi2_prime": np.zeros(delta.size),
        }
        giant = FAMILIES["giant"]
        rates, singular, codes = giant.solver_rates(FLAGGED_GAMMAS, delta, phases)
        assert (codes & (ILL_FORWARD | ILL_REVERSE)).any() and (codes & ETA_UNDEFINED).any()
        unchecked = giant.solver_rates(FLAGGED_GAMMAS, delta, phases, check_conditioning=False)
        for name, values in rates.items():
            assert unchecked[0][name].tobytes() == values.tobytes()
        assert unchecked[1].tobytes() == singular.tobytes()
        assert unchecked[2].tolist() == (codes & ~(ILL_FORWARD | ILL_REVERSE)).tolist()
