"""Boundary-matching solver: layout, assembly, textbook cases, properties."""

import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgscatter import closed_form as cf
from wgscatter import configs, solver, validate
from wgscatter.search import Bounds, Fixed, Objective, grid_refine_search
from wgscatter.core import (
    ConfigError,
    CouplingLeg,
    DegenerateConfigError,
    PhaseModel,
    SystemConfig,
    rates_from_amplitudes,
)
from wgscatter.solver import SOLVER_BLOCK
from wgscatter.sweep import (
    ETA_UNDEFINED,
    FAMILIES,
    ILL_FORWARD,
    ILL_REVERSE,
    RATE_FIELDS,
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
        atoms=("two_level",),
        legs=(CouplingLeg(0, "M", "ge", 0.0, gamma),),
        port=1,
        delta=delta,
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
            atoms=("two_level",),
            legs=(CouplingLeg(0, "M", "ge", 0.0, 0.0),),
            port=1,
            delta=0.3,
        )
        a = solver.solve(cfg)
        assert a.m_right == 1.0
        assert a.m_left == 0.0
        assert a.excited == (0.0j,)

    def test_bare_terminated_guide_reflects(self):
        cfg = SystemConfig(
            atoms=("two_level",),
            legs=(CouplingLeg(0, "M", "ge", 0.0, 0.0),),
            port=1,
            delta=0.3,
            k=1.3,
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
        matrix, rhs = solver.assemble(layout, cfg)
        n = matrix.shape[0]
        assert matrix.shape == (n, n)
        assert len(rhs) == n == len(layout.labels)
        assert {"u_e1", "u_e2"} <= set(layout.labels)
        assert {"M_k:1:R", "M_k:1:L"} <= set(layout.labels)


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
            atoms=("two_level", "two_level"),
            legs=(
                CouplingLeg(0, "M", "ge", 0.0, 1.0),
                CouplingLeg(1, "M", "ge", 0.0, 1.0),
            ),
            port=1,
        )
        with pytest.raises(DegenerateConfigError):
            solver.solve(cfg)

    def test_near_singular_flagged(self):
        # Two-legged atom with phase pi at resonance: couplings nearly cancel
        # and the system is flagged rather than aborted.
        cfg = configs.giant((1.0, 0.25, 1.0, 0.0), 0.0, math.pi, 0.0)
        a = solver.solve(cfg)
        assert "ill_conditioned" in a.flags


@st.composite
def small_layouts(draw):
    """Keyword arguments of a small `SystemConfig`: one or two atoms, at
    most one of them a lambda atom, each with one or two legs at x in
    {0, 0.5, 1} on random guides and transitions (s-e only for the lambda
    atom), rates in [0.05, 3], port 1 or 4, a detuning in [-1, 1], k = 2 +
    delta, q = k - 0.4 and an optional wall at 1.5."""
    kinds = draw(
        st.sampled_from(
            [("two_level",), ("lambda",), ("two_level", "two_level"),
             ("two_level", "lambda"), ("lambda", "two_level")]
        )
    )
    legs = []
    for atom, kind in enumerate(kinds):
        transitions = ("ge", "se") if kind == "lambda" else ("ge",)
        for _ in range(draw(st.integers(1, 2))):
            legs.append(
                CouplingLeg(
                    atom,
                    draw(st.sampled_from("MN")),
                    draw(st.sampled_from(transitions)),
                    draw(st.sampled_from((0.0, 0.5, 1.0))),
                    draw(st.floats(0.05, 3.0)),
                )
            )
    port = draw(st.sampled_from((1, 4)))
    delta = draw(st.floats(-1.0, 1.0))
    return dict(
        atoms=kinds,
        legs=tuple(legs),
        port=port,
        delta=delta,
        k=2.0 + delta,
        q=2.0 + delta - 0.4,
        wall=draw(st.sampled_from((None, 1.5))),
    )


class TestStructuralProperties:
    @given(small_layouts())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_flux_conserved_for_every_accepted_config(self, layout):
        """Every configuration `SystemConfig` accepts is rejected as
        singular, flagged, or solved with the unit incident flux conserved:
        no outgoing channel goes unnamed."""
        try:
            cfg = SystemConfig(**layout)
            amps = solver.solve(cfg)
        except (ConfigError, DegenerateConfigError):
            return
        if "ill_conditioned" in amps.flags:
            return
        assert rates_from_amplitudes(amps).conservation_residual <= validate.TOL_SOLVER

    def test_permutation_invariance(self):
        # Solving a row/column-permuted system recovers the same amplitudes.
        cfg = configs.small_separated((1.2, 0.7, 0.5, 1.9), 1.3, 2.0, 1.1)
        layout = solver.build_layout(cfg)
        matrix, rhs = solver.assemble(layout, cfg)
        x_direct = np.linalg.solve(matrix, rhs)
        rng = np.random.default_rng(3)
        n = len(rhs)
        rows, cols = rng.permutation(n), rng.permutation(n)
        permuted = matrix[np.ix_(rows, cols)]
        x_perm = np.linalg.solve(permuted, rhs[rows])
        restored = np.empty_like(x_perm)
        restored[cols] = x_perm
        assert np.allclose(restored, x_direct, atol=1e-12)

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


#: Layouts beyond the builders': a wall past two coupling points, so that
#: M_k's chain is shorter than N_k's, and a lambda atom whose s-e leg sits
#: at a point of its own on the N_q channel, with incidence at port 4.
CHAIN_CASES = {
    "wall": SystemConfig(
        atoms=("two_level", "two_level"),
        legs=(
            CouplingLeg(0, "M", "ge", 0.0, 0.8),
            CouplingLeg(1, "M", "ge", 0.5, 1.1),
            CouplingLeg(1, "N", "ge", 1.0, 0.6),
        ),
        port=1,
        delta=0.3,
        k=2.3,
        wall=1.5,
    ),
    "lambda": SystemConfig(
        atoms=("lambda", "two_level"),
        legs=(
            CouplingLeg(0, "M", "ge", 0.0, 1.2),
            CouplingLeg(0, "N", "se", 0.5, 0.9),
            CouplingLeg(1, "N", "ge", 1.0, 0.4),
        ),
        port=4,
        delta=-0.2,
        k=1.7,
        q=1.3,
    ),
}


def cell_bits(items, j: int) -> bytes:
    """The bits of cell ``j`` of a block's component map, in its order."""
    return np.array([value[j] for value in items.values()]).tobytes()


def amplitude_bits(amps) -> bytes:
    """The bits of an amplitude set's components, in their order."""
    return np.array(list(amps.components().values())).tobytes()


def one_cell_x(cell: SystemConfig) -> bytes:
    """The bits of a scalar cell's full solution as a block of one cell."""
    return solver.solve_batch(replace(cell, delta=np.array([cell.delta]))).x[0].tobytes()


@pytest.fixture
def assembled(monkeypatch):
    """Number of cells each `solver.assemble` call receives."""
    cells: list[int] = []
    original = solver.assemble

    def recording(layout, cfg):
        cells.append(np.size(cfg.delta))
        return original(layout, cfg)

    monkeypatch.setattr(solver, "assemble", recording)
    return cells


class TestBlockSolve:
    @pytest.mark.parametrize("builder", sorted(BUILDER_CASES))
    def test_block_is_bitwise_per_cell(self, builder):
        """A block's matrices and components equal each cell's own, with
        detuning-dependent phases (non-Markovian shifts) per cell."""
        build = getattr(configs, builder)
        rates, phases = BUILDER_CASES[builder]
        delta = np.linspace(-4.0, 4.0, 9)
        shifted = [p + 0.6 * delta for p in phases]
        block = build(*rates, delta, *shifted)
        matrix, _ = solver.assemble(solver.build_layout(block), block)
        result = solver.solve_batch(block)
        assert not result.singular.any()
        items = result.components()
        for j, d in enumerate(delta.tolist()):
            cell = build(*rates, d, *(float(p[j]) for p in shifted))
            layout = solver.build_layout(cell)
            cell_matrix, _ = solver.assemble(layout, cell)
            assert matrix[j].tobytes() == cell_matrix.tobytes()
            assert result.x[j].tobytes() == one_cell_x(cell)
            assert result.layout.components == layout.components
            amps = solver.solve(cell)
            assert list(items) == list(amps.components())
            assert cell_bits(items, j) == amplitude_bits(amps)
            assert bool(result.ill_conditioned[j]) == ("ill_conditioned" in amps.flags)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_per_cell_rates_are_bitwise_per_cell(self, route):
        """Rates, detunings and phases all vary over the block: its
        components and full solution equal each cell's own solve."""
        rng = np.random.default_rng(sorted(ROUTES).index(route))
        r = ROUTES[route]
        gammas = tuple(rng.uniform(0.0, 3.0, (4, 60)))
        delta = rng.uniform(-10.0, 10.0, 60)
        phases = {name: rng.uniform(0.0, 2 * np.pi, 60) for name in r.phases}
        result = solver.solve_batch(r.config(gammas, delta, phases))
        assert not result.singular.any()
        items = result.components()
        for j in range(60):
            cell = r.config(
                tuple(float(g[j]) for g in gammas),
                float(delta[j]),
                {name: float(p[j]) for name, p in phases.items()},
            )
            amps = solver.solve(cell)
            assert cell_bits(items, j) == amplitude_bits(amps)
            assert result.layout.labels == solver.build_layout(cell).labels
            assert result.x[j].tobytes() == one_cell_x(cell)
            assert amps.components() == {name: value[j] for name, value in items.items()}

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_cell_bits_do_not_depend_on_the_block(self, route, assembled):
        """A cell's solution has the same bits alone, in a block where only
        the detuning varies (given as scalars or as arrays of one value),
        which is one run and assembled once, and in a block whose rates
        change at its last cell, which is two runs and assembled once per
        run."""
        r = ROUTES[route]
        gammas = (0.5, 1.0, 1.5, 0.7)
        phases = {name: 0.4 + k for k, name in enumerate(r.phases)}
        delta = np.linspace(-4.0, 4.0, 9)
        full = {name: np.full(9, p) for name, p in phases.items()}
        blocks = {
            "scalars": (r.config(gammas, delta, phases), 1),
            "one value": (r.config(tuple(np.full(9, g) for g in gammas), delta, full), 1),
            "mixed": (
                r.config(
                    tuple(np.append(np.full(9, g), 2 * g) for g in gammas),
                    np.append(delta, 0.3),
                    {name: np.append(p, 1.0) for name, p in full.items()},
                ),
                2,
            ),
        }
        solutions = {}
        for name, (block, stack) in blocks.items():
            assembled.clear()
            solutions[name] = solver.solve_batch(block, check_conditioning=False).x
            assert assembled == [stack], name
        for j, d in enumerate(delta.tolist()):
            alone = one_cell_x(r.config(gammas, d, phases))
            for name, x in solutions.items():
                assert x[j].tobytes() == alone, (name, j)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_runs_of_four_one_and_five_cells(self, route, assembled, monkeypatch):
        """Runs of 4, 1 and 5 cells: gamma1 changes after the fourth cell,
        gamma3 and the phases after the fifth.  Each run is assembled once,
        checked or not; every cell keeps its one-cell bits and flag, and the
        condition screen sees the matrix the cell's own config assembles."""
        r = ROUTES[route]
        lengths = [4, 1, 5]
        gammas = tuple(
            np.repeat(values, lengths)
            for values in ([0.5, 0.9, 0.9], [1.0] * 3, [1.5, 1.5, 0.2], [0.7] * 3)
        )
        delta = np.linspace(-3.0, 3.0, 10)
        phases = {
            name: np.repeat([0.4 + k, 0.4 + k, 2.1 + k], lengths) for k, name in enumerate(r.phases)
        }
        block = r.config(gammas, delta, phases)
        unchecked = solver.solve_batch(block, check_conditioning=False)
        assert assembled == [3]
        screened = []
        screen = solver._ill_conditioned

        def recording(matrix):
            screened.append(matrix)
            return screen(matrix)

        monkeypatch.setattr(solver, "_ill_conditioned", recording)
        checked = solver.solve_batch(block)
        assert assembled == [3, 3]
        assert checked.x.tobytes() == unchecked.x.tobytes()
        assert not checked.singular.any()
        (stack,) = screened
        for j in range(10):
            cell = r.config(
                tuple(float(g[j]) for g in gammas),
                float(delta[j]),
                {name: float(p[j]) for name, p in phases.items()},
            )
            alone = solver.solve_batch(replace(cell, delta=np.array([cell.delta])))
            assert checked.x[j].tobytes() == alone.x[0].tobytes(), j
            assert checked.ill_conditioned[j] == alone.ill_conditioned[0], j
            own = solver.assemble(solver.build_layout(cell), cell)[0]
            assert stack[j].tobytes() == own.tobytes(), j

    def test_markovian_block_past_the_elision_size(self, assembled, monkeypatch):
        """A Markovian 8 x 128 giant sweep is one solver block per direction:
        1,024 cells in 8 runs, assembled once per run.  Its forward cells x
        18 photon columns pass numpy's 16,384-operand temporary-elision
        size, and every cell keeps its one-cell bits."""
        axis = PhaseAxis(0.0, 2 * math.pi, 8, linkage=(("phi1_prime", 1.0), ("phi2_prime", -1.0)))
        spec = SweepSpec(
            "giant", (0.32, 1.0, 1.0, 1.0), PhaseModel(), Axis(-10.0, 10.0, 128), axis, "solver"
        )
        blocks = []
        original = solver.solve_batch

        def recording(cfg, **kwargs):
            sol = original(cfg, **kwargs)
            blocks.append((cfg, sol))
            return sol

        monkeypatch.setattr(solver, "solve_batch", recording)
        run_sweep(spec)
        monkeypatch.setattr(solver, "solve_batch", original)
        assert [len(cfg.delta) for cfg, _ in blocks] == [1024, 1024]
        assert assembled == [8, 8]
        giant = FAMILIES["giant"]
        forward_columns = len(blocks[0][1].layout.labels) - len(blocks[0][1].layout.atom_columns)
        assert 1024 * forward_columns > 16384
        delta = spec.delta_axis.values()
        for (cfg, sol), route in zip(blocks, (giant.forward, giant.reverse)):
            for j in range(1024):
                i, d = divmod(j, 128)
                phi = float(axis.values()[i])
                phases = {"phi1_prime": phi, "phi2_prime": -phi}
                cell = route.config(spec.gammas, float(delta[d]), phases)
                assert sol.x[j].tobytes() == one_cell_x(cell), (cfg.port, j)

    @pytest.mark.parametrize("route", ["giant", "giant_reverse"])
    @pytest.mark.parametrize("check", [True, False])
    def test_pieces_read_their_own_cells_rates(self, route, check, assembled):
        """A block of 300 runs, with rates, k and q drawn per cell at one
        active-leg pattern, is solved in pieces of SOLVER_BLOCK runs, and
        each piece assembles its own cells' rates: every cell's solution,
        singular flag and condition flag are its one-cell block's, bit for
        bit."""
        rng = np.random.default_rng(30)
        r = ROUTES[route]
        gammas = tuple(rng.uniform(0.05, 3.0, (4, 300)))
        delta = rng.uniform(-10.0, 10.0, 300)
        phases = {name: rng.uniform(0.0, 2 * np.pi, 300) for name in r.phases}
        block = solver.solve_batch(r.config(gammas, delta, phases), check_conditioning=check)
        assert assembled == [SOLVER_BLOCK, SOLVER_BLOCK, 300 - 2 * SOLVER_BLOCK]
        for j in range(300):
            cell = r.config(
                tuple(float(g[j]) for g in gammas),
                np.array([delta[j]]),
                {name: float(p[j]) for name, p in phases.items()},
            )
            alone = solver.solve_batch(cell, check_conditioning=check)
            assert block.x[j].tobytes() == alone.x[0].tobytes(), j
            assert block.singular[j] == alone.singular[0], j
            if check:
                assert block.ill_conditioned[j] == alone.ill_conditioned[0], j
            else:
                assert block.ill_conditioned is alone.ill_conditioned is None

    @pytest.mark.parametrize("check", [True, False])
    def test_pieces_bound_a_blocks_memory(self, check):
        """The benchmark's non-Markovian 8 x 101 giant grid, 808 runs in one
        block per direction, peaks (tracemalloc) at no more than 1.5 times a
        128-run block of the same grid: one piece's matrices are held at a
        time."""
        n_delta = 101
        delta = np.tile(np.linspace(-10.0, 10.0, n_delta), 8)
        phi = np.repeat(np.linspace(0.0, 2 * math.pi, 8), n_delta)
        phases = {"phi1_prime": phi + delta, "phi2_prime": -phi + delta}
        giant = FAMILIES["giant"]

        def peak(cells: int) -> int:
            head = {name: p[:cells] for name, p in phases.items()}
            tracemalloc.start()
            try:
                giant.solver_rates(
                    (0.32, 1.0, 1.0, 1.0), delta[:cells], head, check_conditioning=check
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(SOLVER_BLOCK)  # numpy's first calls allocate caches of their own
        assert peak(delta.size) <= 1.5 * peak(SOLVER_BLOCK)

    @pytest.mark.parametrize("case", sorted(BUILDER_CASES) + sorted(CHAIN_CASES))
    def test_photon_block_is_block_diagonal_by_channel(self, case):
        """The atom-space solve eliminates each channel on its own: the
        photon rows of a channel have no entry outside its own columns, and
        its block, permuted into the order of its chain, is lower bidiagonal
        with pivots of modulus 1, each step's prior being the step before's
        pivot.  A shorter chain is padded in front with its first step."""
        if case in CHAIN_CASES:
            cfg = CHAIN_CASES[case]
        else:
            rates, phases = BUILDER_CASES[case]
            cfg = getattr(configs, case)(*rates, 0.3, *phases)
        layout = solver.build_layout(cfg)
        matrix, _ = solver.assemble(layout, cfg)
        n_p = len(layout.labels) - len(layout.atom_columns)
        inside = np.zeros((n_p, n_p), dtype=bool)
        rows, pivots, priors = layout.chain
        assert rows.shape == (2 * max(ch.n_regions for ch in layout.channels), len(layout.channels))
        for c, ch in enumerate(layout.channels):
            span = list(range(layout.offsets[ch.name], layout.offsets[ch.name] + 2 * ch.n_regions))
            inside[np.ix_(span, span)] = True
            steps = list(zip(rows[:, c].tolist(), pivots[:, c].tolist(), priors[:, c].tolist()))
            pad = len(steps) - len(span)
            assert steps[: pad + 1] == [steps[pad]] * (pad + 1), ch.name
            chain = steps[pad:]
            order = [pivot for _, pivot, _ in chain]
            assert sorted(row for row, _, _ in chain) == sorted(order) == span, ch.name
            assert [prior for _, _, prior in chain[1:]] == order[:-1], ch.name
            assert matrix[chain[0][0], chain[0][2]] == 0, ch.name
            block = matrix[np.ix_([row for row, _, _ in chain], order)]
            assert not np.triu(block, 1).any() and not np.tril(block, -2).any(), ch.name
            assert np.abs(np.abs(np.diag(block)) - 1.0).max() <= 1e-15, ch.name
        assert not matrix[:n_p, :n_p][~inside].any()

    @given(small_layouts())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_substitution_matches_a_dense_solve(self, kwargs):
        """Step 1's Y = A_pp^-1 [A_pa | b_p] by substitution agrees with
        LAPACK's dense solve of the photon block to 1e-13, relative."""
        try:
            cfg = SystemConfig(**kwargs)
        except ConfigError:
            return
        layout = solver.build_layout(cfg)
        matrix, b = solver.assemble(layout, cfg)
        n_p = len(b) - len(layout.atom_columns)
        y = solver._substitute(layout, matrix[None], b)[0]
        want = np.linalg.solve(matrix[:n_p, :n_p], np.column_stack([matrix[:n_p, n_p:], b[:n_p]]))
        assert np.abs(y - want).max() <= 1e-13 * np.abs(want).max()

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
        assert not any(label.startswith("N_q") for label in result.layout.labels)

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

    def test_one_layout_per_scalar_solve(self, monkeypatch):
        built = []
        original = solver.build_layout

        def counting_build_layout(cfg):
            built.append(cfg)
            return original(cfg)

        monkeypatch.setattr(solver, "build_layout", counting_build_layout)
        solver.solve(configs.giant((1.0, 1.0, 1.0, 1.0), 0.3, 0.1, 0.2))
        assert len(built) == 1

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_inactive_atom_components(self, family):
        """With gamma1 = gamma3 = 0 atom 1 has no active leg: its excited
        amplitude is 0 in every cell, and the component names are the
        closed engine's."""
        route = FAMILIES[family].forward
        gammas = (np.zeros(5), np.full(5, 0.8), np.zeros(5), np.full(5, 1.3))
        delta = np.linspace(-2.0, 2.0, 5)
        phases = {name: np.full(5, 0.7) for name in route.phases}
        sol = solver.solve_batch(route.config(gammas, delta, phases))
        assert 0 not in sol.layout.atom_columns
        items = sol.components()
        assert items["u_e1"].tolist() == [0.0] * 5
        closed = cf.components(route.port, route.fields(gammas, delta, phases))
        assert set(items) == set(closed)

    @pytest.mark.parametrize(
        "zeros",
        list(itertools.product((False, True), repeat=4)),
        ids=lambda zeros: "".join("0" if zero else "g" for zero in zeros),
    )
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_zero_rate_components_match_closed(self, route, zeros):
        """At every pattern of zero rates the solver names the closed
        engine's components, agrees with each to 1e-10, and gives exactly 0
        for each component the rates uncouple."""
        r = ROUTES[route]
        delta = np.array([-1.3, 0.6, 2.2])
        gammas = tuple(
            np.full(3, 0.0 if zero else g) for zero, g in zip(zeros, (0.7, 1.1, 1.3, 0.4))
        )
        phases = {name: np.full(3, 0.9 + k) for k, name in enumerate(r.phases)}
        sol = solver.solve_batch(r.config(gammas, delta, phases))
        fields = r.fields(gammas, delta, phases)
        closed = cf.components(r.port, fields)
        items = sol.components()
        assert list(items) == list(closed)
        solved = ~(sol.singular | np.broadcast_to(fields.singular, delta.shape))
        assert solved.any()
        for name, value in items.items():
            want = np.broadcast_to(closed[name], delta.shape)
            assert np.abs(value - want)[solved].max() <= 1e-10, name
        g1, g2, g3, g4 = (not zero for zero in zeros)
        uncoupled = set()
        if not (g1 or g3):
            uncoupled.add("u_e1")
        if r.port == 1 and not (g2 or g4):
            uncoupled.add("u_e2")
        if r.port == 4 or not g4:
            uncoupled |= {name for name in items if name.endswith("_q") or name.startswith("N_q:")}
        for name in uncoupled:
            assert sol.layout.components[name] is None, name
            want = np.broadcast_to(closed[name], delta.shape)
            assert not items[name].any() and not want[solved].any(), name

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
        assert result.x.shape == (5, len(result.layout.labels))

    def test_non_finite_solution_is_singular(self):
        # A subnormal decay rate at resonance: the LU pivot underflows.
        block = configs.semi_infinite((0.0, 5e-324, 0.0, 0.0), np.array([4.0, 2.0, 0.0]), 0.0)
        result = solver.solve_batch(block)
        assert result.singular.tolist() == [False, False, True]
        assert np.isfinite(result.x).all()
        assert not result.x[2].any()

    def test_non_finite_solution_raises_in_scalar_solve(self):
        # The cell `solve_batch` marks singular above; `solve` raises on it
        # as on an exactly singular system.
        with pytest.raises(DegenerateConfigError, match="non-finite"):
            solver.solve(configs.semi_infinite((0.0, 5e-324, 0.0, 0.0), 0.0, 0.0))
        assert solver.solve(configs.semi_infinite((0.0, 5e-324, 0.0, 0.0), 2.0, 0.0)).flags == ()


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
        atoms=("two_level", "two_level"),
        legs=(CouplingLeg(0, "M", "ge", 0.0, 1.0), CouplingLeg(1, "M", "ge", 0.0, 1.0)),
        port=1,
        delta=delta,
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
        matrix, _ = solver.assemble(solver.build_layout(block), block)
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

    @pytest.mark.parametrize("eps, flagged", [(5e-11, False), (5e-12, True)])
    def test_gate_on_both_sides(self, eps, flagged):
        """Giant cells at resonance eps below phi1' = pi: a condition number
        of 3.4e11 is not flagged and one of 3.4e12 is, alone and as one run
        of a block whose other run lies on the other side of the gate."""
        cfg = configs.giant(FLAGGED_GAMMAS, np.zeros(1), math.pi - eps, 0.0)
        matrix, _ = solver.assemble(solver.build_layout(cfg), cfg)
        kappa = float(np.linalg.cond(matrix[0]))
        low = 1e12 if flagged else 1e11
        assert low < kappa < 10 * low
        assert solver.solve_batch(cfg).ill_conditioned.tolist() == [flagged]
        other = 5e-12 if eps == 5e-11 else 5e-11
        phi1 = math.pi - np.array([eps, eps, other, other])
        block = configs.giant(FLAGGED_GAMMAS, np.zeros(4), phi1, 0.0)
        flags = solver.solve_batch(block).ill_conditioned.tolist()
        assert flags == [flagged, flagged, not flagged, not flagged]

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
        # The three Markovian phase rows are one block of three runs, which
        # each direction screens SOLVER_BLOCK cells at a time.
        assert screen_calls == ([SOLVER_BLOCK] * 3 + [3]) * 2

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


# ---------------------------------------------------------------------------
# Both engines model the requested phases
# ---------------------------------------------------------------------------

#: Phases that a rounded level splitting would miss: the quarter turns
#: (a wrap by 2*pi included), and two values on either side of them, so that
#: pairs cover phi_q > phi_k as well as phi_q < phi_k.
REQUESTED_PHASES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi, -math.pi / 2, 0.4, 5.9)

#: Each builder's (k, q) from its phase arguments.  The builders without a
#: phase and the reverse builders' q channel keep the defaults.
BUILDER_WAVEVECTORS = {
    "small_overlap": lambda: (0.0, 0.0),
    "small_separated": lambda phi_a, phi_b: (phi_a, phi_b),
    "giant": lambda phi1, phi2: (phi1, phi2),
    "semi_infinite": lambda phi3: (phi3, phi3),
    "reverse_small": lambda: (0.0, 0.0),
    "reverse_giant": lambda phi1: (phi1, 0.0),
    "reverse_semi_infinite": lambda phi3: (phi3, 0.0),
}


def float_bits(*values) -> bytes:
    return np.array(np.broadcast_arrays(*values), dtype=float).tobytes()


class TestRequestedPhases:
    @pytest.mark.parametrize("builder", sorted(BUILDER_WAVEVECTORS))
    def test_builder_passes_the_phases_through(self, builder):
        """k and q are the requested phases bit for bit, as scalars at
        delta = 0 and delta != 0, and as arrays over a block whose every
        cell has its own detuning."""
        build = getattr(configs, builder)
        rates, phases = BUILDER_CASES[builder]
        wavevectors = BUILDER_WAVEVECTORS[builder]
        pairs = list(itertools.product(REQUESTED_PHASES, repeat=len(phases)))
        for requested in pairs:
            for delta in (0.0, 0.37, -2.5):
                cfg = build(*rates, delta, *requested)
                assert float_bits(cfg.k, cfg.q) == float_bits(*wavevectors(*requested))
        columns = [np.array(column) for column in zip(*pairs)]
        delta = np.linspace(-3.0, 3.0, len(pairs))
        block = build(*rates, delta, *columns)
        want = [np.broadcast_to(v, delta.shape) for v in wavevectors(*columns)]
        assert float_bits(block.k, block.q, delta) == float_bits(*want, delta)

    @pytest.mark.parametrize(
        "builder, channel, phase",
        [
            ("giant", "M_k", 0),
            ("giant", "N_k", 0),
            ("giant", "N_q", 1),
            ("small_separated", "M_k", 0),
            ("small_separated", "N_q", 1),
        ],
    )
    def test_jump_at_x1_carries_the_closed_kernels_phase(self, builder, channel, phase):
        """The right-mover jump row at x = 1 holds -i e^{i kappa} where the
        closed kernel holds np.exp(1j * phi) (giant's e1 and e2, separated's
        ea and eb), with the same bits."""
        build = getattr(configs, builder)
        rates, _ = BUILDER_CASES[builder]
        for requested in itertools.product(REQUESTED_PHASES, repeat=2):
            for delta in (0.37, -2.5):
                cfg = build(*rates, delta, *requested)
                layout = solver.build_layout(cfg)
                matrix, _ = solver.assemble(layout, cfg)
                column = layout.right(channel, 2)
                atoms = set(layout.atom_columns.values())
                (row,) = [r for r in np.flatnonzero(matrix[:, column]) if r not in atoms]
                want = -1j * np.exp(1j * np.asarray(requested[phase]))
                assert matrix[row, column].tobytes() == want.tobytes(), requested


#: Giant draws at phi2' = pi with rates log-uniform over [1e-4, 1e4]:
#: (gammas, phi1', d), each solved at delta = -d, d and 0.37.  No cell is
#: flagged by either engine.  When the solver realized the phases through
#: omega_s = (phi1' - phi2') % 2pi and E = (k - delta) + delta, these broke
#: the 1e-10 gate by 5.5e-10 to 4.0e-9; with the phases as given, the worst
#: is 3.3e-12.
DARK_GIANT_DRAWS = [
    ((0.00014616174274636467, 1538.1226128270182, 133.24476218331222, 323.22287038944125), 2.2534501728581655, 1e-05),
    ((34.05898124733448, 0.013191566224586424, 1.2296126659327669, 9371.623684117263), 0.9301136313994705, 0.001),
    ((0.00014877103720417078, 0.00030126352990761363, 12.74573798950615, 2755.385212074331), 2.0324707942269264, 0.0001),
    ((0.00022636178526583823, 0.0013336830549741526, 722.5242987847423, 1869.8624562682562), 2.5025031714164787, 1e-05),
    ((0.027556777757964092, 0.00025502760562135993, 1.9708545828800939, 1355.169125019585), 1.767774122886451, 0.001),
]


#: More giant draws at phi2' = pi, as above with numpy seed 2024: a dense LU
#: over all the unknowns broke the gate on 22 of 3,000 such draws, these five
#: by 5.8e-10 to 7.1e-9.  Eliminating the photons first leaves the worst at
#: 1.1e-15.
DENSE_LU_GIANT_DRAWS = [
    ((0.0032459834974790883, 0.000158526849179628, 0.00020219690724523063, 6581.2463695241695), 3.775224578815209, 1e-05),
    ((0.0038469830535783687, 597.2814163939825, 9798.279461019463, 4121.07890711332), 1.9790311329783052, 1e-05),
    ((0.000445620793461152, 286.65818594652654, 346.8629191947498, 8382.825190128871), 3.3915856202692245, 1e-05),
    ((0.000571004275758401, 101.01830807102353, 3088.483436803531, 2434.6009174495207), 2.7763221468893042, 1e-05),
    ((0.0008043461484643627, 0.0011676986185539865, 21.39169604576044, 4923.878332854285), 2.6936541566552337, 0.001),
]


@pytest.mark.parametrize("gammas, phi1, d", DARK_GIANT_DRAWS + DENSE_LU_GIANT_DRAWS)
def test_dark_giant_draw_agrees(gammas, phi1, d):
    delta = np.array([-d, d, 0.37])
    phases = {"phi1_prime": phi1, "phi2_prime": math.pi}
    giant = FAMILIES["giant"]
    closed, closed_singular, closed_codes = giant.closed_rates(gammas, delta, phases)
    rates, singular, codes = giant.solver_rates(gammas, delta, phases)
    assert not (closed_singular.any() or singular.any() or closed_codes.any() or codes.any())
    for name in RATE_FIELDS[:6]:
        assert np.abs(closed[name] - rates[name]).max() <= 1e-10, name


def test_semi_infinite_dark_row_agrees():
    """A cell of a `semi_infinite` row at phi3 = pi/2, where guide N goes
    dark.  A dense LU over all the unknowns gave eta 0.36843 here; the
    closed form's is 0.58680."""
    gammas, delta, phases = (0.01346, 2.04869, 0.34836, 2806.33), np.array([3.0]), {"phi3": math.pi / 2}
    semi = FAMILIES["semi_infinite"]
    closed, closed_singular, closed_codes = semi.closed_rates(gammas, delta, phases)
    rates, singular, codes = semi.solver_rates(gammas, delta, phases)
    assert not (closed_singular.any() or singular.any() or closed_codes.any() or codes.any())
    assert closed["eta"][0] == pytest.approx(0.58680, abs=1e-5)
    for name in RATE_FIELDS[:6]:
        assert abs(closed[name][0] - rates[name][0]) <= 1e-10, name
