"""Sweep grids, presets, regime handling, and isolation reports."""

import inspect
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from wgscatter import closed_form, configs, solver
from wgscatter.core import (
    MARKOVIAN,
    NON_MARKOVIAN,
    ConfigError,
    CouplingLeg,
    DegenerateConfigError,
    PhaseModel,
    SystemConfig,
    TransferRates,
    combine_directions,
    rates_from_amplitudes,
)
from wgscatter.sweep import (
    ETA_UNDEFINED,
    FAMILIES,
    FIGURE_IDS,
    FLAG_NAMES,
    MAX_CELLS,
    RATE_FIELDS,
    SINGULAR,
    SOLVER_BLOCK,
    SOLVER_CELLS,
    Axis,
    PhaseAxis,
    SweepSpec,
    _fill_singular,
    _phase_constants,
    _resolved,
    figure_preset,
    run_sweep,
)


def small_spec(**kw):
    base = dict(
        family="small_overlap",
        gammas=(1.0, 0.25, 1.0, 0.0),
        phases=PhaseModel(regime=MARKOVIAN),
        delta_axis=Axis(-10.0, 10.0, 41),
        phase_axis=None,
        engine="closed",
    )
    base.update(kw)
    return SweepSpec(**base)


class TestRunSweep:
    def test_isolation_spectrum_values(self):
        res = run_sweep(small_spec())
        j0 = int(np.argmin(np.abs(res.delta)))
        cell = res.cell(0, j0)
        assert cell.t_ng == pytest.approx(0.0, abs=1e-14)
        assert cell.t_ns == pytest.approx(0.0, abs=1e-14)
        assert cell.t_m_rev == pytest.approx(0.5, abs=1e-12)
        assert cell.r_m == pytest.approx(1.0, abs=1e-12)
        assert "eta_undefined" in cell.flags

    def test_conversion_spectrum_values(self):
        res = run_sweep(small_spec(gammas=(0.25, 1.0, 1.0, 0.25)))
        j0 = int(np.argmin(np.abs(res.delta)))
        cell = res.cell(0, j0)
        assert cell.t_ng == pytest.approx(8.0 / 441.0, abs=1e-12)
        assert cell.t_ns == pytest.approx(128.0 / 441.0, abs=1e-12)
        assert cell.t_m_rev == pytest.approx(0.32, abs=1e-12)
        assert cell.eta == pytest.approx(16.0 / 17.0, abs=1e-12)

    def test_single_point_phase_axis_collapses(self):
        axis = PhaseAxis(0.3, 0.3, 1, linkage=(("phi1_prime", 1.0),))
        spec = small_spec(
            family="giant",
            gammas=(0.32, 1.0, 1.0, 1.0),
            phase_axis=axis,
        )
        res = run_sweep(spec)
        assert res.rates["T_Ng"].shape == (1, 41)

    def test_conservation_every_cell(self):
        axis = PhaseAxis(0.0, 2 * math.pi, 17, linkage=(("phi1_prime", 1.0),))
        spec = small_spec(
            family="giant", gammas=(0.32, 1.0, 1.0, 1.0), phase_axis=axis
        )
        res = run_sweep(spec)
        singular = np.array(
            [["singular" in c for c in row] for row in res.flags], dtype=bool
        )
        assert res.rates["residual"][~singular].max() < 1e-12

    def test_flagged_cells_isolated(self):
        axis = PhaseAxis(0.0, 2 * math.pi, 33, linkage=(("phi1_prime", 1.0),))
        spec = small_spec(
            family="giant",
            gammas=(1.0, 0.25, 1.0, 0.0),
            phase_axis=axis,
            delta_axis=Axis(-10.0, 10.0, 81),
        )
        res = run_sweep(spec)
        singular = np.array(
            [["singular" in c for c in row] for row in res.flags], dtype=bool
        )
        assert singular.sum() >= 1
        padded = np.pad(singular, 1)
        for i, j in zip(*np.nonzero(singular)):
            neighbors = (
                padded[i, j + 1],
                padded[i + 2, j + 1],
                padded[i + 1, j],
                padded[i + 1, j + 2],
            )
            assert not any(neighbors)

    def test_singular_cell_carries_neighbor_value(self):
        axis = PhaseAxis(math.pi, math.pi, 1, linkage=(("phi1_prime", 1.0),))
        spec = small_spec(
            family="giant",
            gammas=(1.0, 0.25, 1.0, 0.0),
            phase_axis=axis,
            delta_axis=Axis(-1.0, 1.0, 21),
        )
        res = run_sweep(spec)
        j0 = int(np.argmin(np.abs(res.delta)))
        assert "singular" in res.flags[0][j0]
        assert res.rates["T_M_rev"][0, j0] == res.rates["T_M_rev"][0, j0 - 1]

    def test_both_engines_agree(self):
        axis = PhaseAxis(0.0, 2 * math.pi, 7, linkage=(("phi1_prime", 1.0),))
        spec = small_spec(
            family="giant",
            gammas=(0.32, 1.0, 1.0, 1.0),
            delta_axis=Axis(-10.0, 10.0, 15),
            phase_axis=axis,
            engine="both",
        )
        res = run_sweep(spec)
        assert res.engine_discrepancy is not None
        assert res.engine_discrepancy < 1e-10

    @pytest.mark.parametrize(
        "family", ["small_overlap", "small_separated", "giant", "semi_infinite"]
    )
    def test_solver_engine_families(self, family):
        phase_name = {
            "small_overlap": "phi_a",
            "small_separated": "phi_a",
            "giant": "phi1_prime",
            "semi_infinite": "phi3",
        }[family]
        axis = PhaseAxis(0.0, 2 * math.pi, 5, linkage=((phase_name, 1.0),))
        for phases in (
            PhaseModel(regime=MARKOVIAN),
            PhaseModel(regime=NON_MARKOVIAN, tau=0.5, phi2_prime=0.8, phi_b=0.3),
        ):
            spec = small_spec(
                family=family,
                gammas=(0.5, 1.0, 1.5, 0.7),
                phases=phases,
                delta_axis=Axis(-5.0, 5.0, 9),
                phase_axis=axis,
                engine="both",
            )
            res = run_sweep(spec)
            assert res.engine_discrepancy < 1e-10, phases.regime

    def test_invalid_linkage_rejected(self):
        with pytest.raises(ConfigError):
            PhaseAxis(0.0, 1.0, 5, linkage=(("phi9", 1.0),))

    def test_delta_axis_needs_two_points(self):
        with pytest.raises(ConfigError):
            small_spec(delta_axis=Axis(0.0, 0.0, 1))

    def test_grid_above_max_cells_rejected(self):
        axis = PhaseAxis(0.0, 1.0, 8, linkage=(("phi_a", 1.0),))
        with pytest.raises(ConfigError, match="limit of"):
            small_spec(delta_axis=Axis(-1.0, 1.0, 3 * 10**7), phase_axis=axis)
        with pytest.raises(ConfigError, match="limit of"):
            small_spec(delta_axis=Axis(-1.0, 1.0, MAX_CELLS + 1))
        small_spec(delta_axis=Axis(-1.0, 1.0, MAX_CELLS // 8), phase_axis=axis)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        with pytest.raises(ConfigError, match="axis bounds"):
            Axis(value, 1.0, 3)
        with pytest.raises(ConfigError, match="axis bounds"):
            Axis(0.0, value, 3)
        with pytest.raises(ConfigError, match="axis bounds"):
            PhaseAxis(value, 1.0, 3, linkage=(("phi1_prime", 1.0),))
        with pytest.raises(ConfigError, match="linkage factor"):
            PhaseAxis(0.0, 1.0, 3, linkage=(("phi1_prime", 1.0), ("phi2_prime", value)))
        with pytest.raises(ConfigError, match="gammas"):
            small_spec(gammas=(1.0, value, 1.0, 0.0))


class TestRegimes:
    def test_markovian_ignores_tau(self):
        axis = PhaseAxis(0.0, 2 * math.pi, 9, linkage=(("phi1_prime", 1.0),))
        base = small_spec(
            family="giant",
            gammas=(0.32, 1.0, 1.0, 1.0),
            delta_axis=Axis(-6.0, 6.0, 31),
            phase_axis=axis,
        )
        a = run_sweep(base)
        b = run_sweep(
            replace(base, phases=PhaseModel(regime=MARKOVIAN, tau=2.5))
        )
        for name in a.rates:
            assert np.array_equal(a.rates[name], b.rates[name])

    def test_non_markovian_converges_linearly(self):
        axis = PhaseAxis(0.0, 2 * math.pi, 9, linkage=(("phi1_prime", 1.0),))
        base = small_spec(
            family="giant",
            gammas=(0.32, 1.0, 1.0, 1.0),
            delta_axis=Axis(-6.0, 6.0, 31),
            phase_axis=axis,
        )
        markov = run_sweep(base)

        def deviation(tau):
            res = run_sweep(
                replace(base, phases=PhaseModel(regime=NON_MARKOVIAN, tau=tau))
            )
            return max(
                np.abs(res.rates[n] - markov.rates[n]).max()
                for n in ("T_Ng", "T_Ns", "T_M_rev")
            )

        d3, d4 = deviation(1e-3), deviation(1e-4)
        assert d3 < 1e-2
        assert 5.0 < d3 / d4 < 20.0

    def test_phase_reversal_mirror_symmetry(self):
        # phi -> 2*pi - phi together with delta -> -delta leaves the rates
        # unchanged (conjugating every amplitude); on the symmetric default
        # axes the two grids are mirror images.
        axis = PhaseAxis(0.0, 2 * math.pi, 13, linkage=(("phi1_prime", 1.0), ("phi2_prime", -1.0)))
        spec = small_spec(
            family="giant",
            gammas=(0.32, 1.0, 1.0, 1.0),
            delta_axis=Axis(-6.0, 6.0, 25),
            phase_axis=axis,
        )
        res = run_sweep(spec)
        for name in ("T_Ng", "T_Ns", "T_M_rev"):
            grid = res.rates[name]
            assert np.allclose(grid, grid[::-1, ::-1], atol=1e-12)


class TestPresets:
    def test_known_ids_and_parameters(self):
        p = figure_preset("fig8")
        spec = p.sweeps["main"]
        assert spec.family == "giant"
        assert spec.gammas == (1.0, 0.25, 1.0, 0.0)
        assert spec.phases.regime == NON_MARKOVIAN
        assert spec.phases.tau == 1.0
        assert spec.phase_axis.linkage == (("phi1_prime", 1.0),)

    def test_fig7_two_linkage_variants(self):
        p = figure_preset("fig7")
        assert set(p.sweeps) == {"ab", "cd"}
        assert p.sweeps["ab"].gammas == (0.32, 1.0, 1.0, 1.0)
        assert p.sweeps["ab"].phases.regime == MARKOVIAN
        assert p.sweeps["cd"].phase_axis.linkage == (
            ("phi1_prime", 1.0),
            ("phi2_prime", -1.0),
        )
        assert len(p.panels) == 4

    def test_fig9_four_panels(self):
        assert len(figure_preset("fig9").panels) == 4

    def test_fig10_sweeps(self):
        p = figure_preset("fig10")
        assert p.sweeps["a"].family == "semi_infinite"
        assert p.sweeps["a"].phase_axis is None
        assert p.sweeps["b"].phase_axis.linkage == (("phi3", 1.0),)

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            figure_preset("fig99")

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_panels_are_contiguous_per_sweep(self, figure_id):
        """`figure` runs a sweep once per run of its panels, so each sweep's
        panels must follow one another, and every sweep must have one."""
        p = figure_preset(figure_id)
        runs = [key for key, _ in itertools.groupby(panel.sweep for panel in p.panels)]
        assert sorted(runs) == sorted(p.sweeps)


class TestGiantIsolation:
    """The fig6 isolator (giant, rates 1, 0.25, 1, 0, Markovian) on 41
    phi1' points over [0, 2pi] and 81 detunings over [-10, 10]."""

    def sweep(self, gammas=(1.0, 0.25, 1.0, 0.0)):
        axis = PhaseAxis(0.0, 2 * math.pi, 41, linkage=(("phi1_prime", 1.0),))
        return run_sweep(
            small_spec(
                family="giant",
                gammas=gammas,
                delta_axis=Axis(-10.0, 10.0, 81),
                phase_axis=axis,
            )
        )

    @staticmethod
    def at_resonance(result, name):
        j = int(np.argmin(np.abs(result.delta)))
        assert result.delta[j] == 0.0
        return result.rates[name][:, j]

    def test_forward_blocked_at_resonance_on_every_phase(self):
        result = self.sweep()
        forward = self.at_resonance(result, "T_Ng") + self.at_resonance(result, "T_Ns")
        assert np.all(forward <= 1e-6)

    def test_reverse_windows_at_both_ends_of_the_phase_range(self):
        """T_M_rev >= 0.45 at resonance on a run of phases from 0 that
        reaches 0.1 pi, and on one that ends at 2 pi and starts by 1.9 pi."""
        result = self.sweep()
        is_open = self.at_resonance(result, "T_M_rev") >= 0.45
        assert is_open[0] and is_open[-1]
        closed = np.flatnonzero(~is_open)
        first_run_end = result.phi[closed[0] - 1] if closed.size else result.phi[-1]
        last_run_start = result.phi[closed[-1] + 1] if closed.size else result.phi[0]
        assert first_run_end >= 0.1 * math.pi
        assert last_run_start <= 1.9 * math.pi
        assert result.phi[-1] == 2 * math.pi

    def test_no_reverse_path_without_gamma1(self):
        result = self.sweep(gammas=(0.0, 0.25, 1.0, 0.0))
        assert np.all(result.rates["T_M_rev"] == 0.0)


def loop_fill_singular(grids, codes, singular_mask):
    """Cell-by-cell reference for the vectorized _fill_singular."""
    n_phi, n_delta = singular_mask.shape
    for i in range(n_phi):
        for j in range(n_delta):
            if not singular_mask[i, j]:
                continue
            before = [jj for jj in range(j) if not singular_mask[i, jj]]
            after = [jj for jj in range(j + 1, n_delta) if not singular_mask[i, jj]]
            src = before[-1] if before else (after[0] if after else None)
            for grid in grids.values():
                grid[i, j] = grid[i, src] if src is not None else 0.0
            codes[i, j] |= SINGULAR


@pytest.mark.parametrize("seed", range(40))
def test_fill_singular_matches_cell_loop(seed):
    rng = np.random.default_rng(seed)
    n_phi, n_delta = rng.integers(1, 6), rng.integers(1, 12)
    # Densities from none to all cells singular, so empty and all-singular
    # rows both occur.
    mask = rng.random((n_phi, n_delta)) < seed / 39
    grids = {name: rng.standard_normal((n_phi, n_delta)) for name in ("T_Ng", "eta")}
    codes = rng.integers(0, SINGULAR, (n_phi, n_delta), dtype=np.uint8)
    expected_grids = {name: grid.copy() for name, grid in grids.items()}
    expected_codes = codes.copy()
    loop_fill_singular(expected_grids, expected_codes, mask)
    _fill_singular(grids, codes, mask)
    for name, grid in grids.items():
        np.testing.assert_array_equal(grid, expected_grids[name])
    np.testing.assert_array_equal(codes, expected_codes)


@pytest.mark.parametrize("code", range(len(FLAG_NAMES)))
def test_flag_names_follow_combine_directions(code):
    """Bits 0 and 1 are the forward solve's flags, bit 2 the reverse solve's,
    and bit 3 appends "singular"."""
    forward = ("ill_conditioned",) * (code & 1) + ("eta_undefined",) * (code >> 1 & 1)
    reverse = ("ill_conditioned",) * (code >> 2 & 1)
    merged = combine_directions(TransferRates(flags=forward), TransferRates(flags=reverse))
    assert FLAG_NAMES[code] == merged.flags + ("singular",) * (code >> 3 & 1)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rates_from_fields_matches_amplitude_rates(family):
    """The closed-form reduction gives the rates core derives from full
    amplitude sets, on single cells and on a whole row."""
    rng = np.random.default_rng(5)
    gammas = tuple(rng.uniform(0.1, 2.0, 4))
    delta = np.linspace(-4.0, 4.0, 9)
    entry = FAMILIES[family]
    phases = {name: rng.uniform(0.0, 2 * math.pi, 9) for name in entry.phases}
    row, singular, codes = entry.closed_rates(gammas, delta, phases)
    assert not singular.any() and not codes.any()
    for j, d in enumerate(delta.tolist()):
        cell_phases = {name: float(values[j]) for name, values in phases.items()}
        rates, _, _ = entry.closed_rates(gammas, d, cell_phases)
        fwd = entry.forward.amplitudes(gammas, d, cell_phases)
        rev = entry.reverse.amplitudes(gammas, d, cell_phases)
        expected = combine_directions(rates_from_amplitudes(fwd), rates_from_amplitudes(rev))
        for name, value in zip(RATE_FIELDS, expected.as_row()):
            # Only the residual sums its terms in another order.
            if name != "residual":
                assert rates[name] == value, name
            assert rates[name] == pytest.approx(value, abs=1e-15), name
            # Array kernels may round differently from scalar ones.
            assert row[name][j] == pytest.approx(value, abs=1e-15), name


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_route_functions_take_exactly_the_route_arguments(family, direction):
    """A route's kernel and builder take exactly the positional arguments
    `Route._args` passes, with no defaults and no keyword-only parameters."""
    route = getattr(FAMILIES[family], direction)
    n_args = len(route._args((1.0, 1.0, 1.0, 1.0), 0.0, dict.fromkeys(route.phases, 0.0)))
    for fn in (getattr(closed_form, route.kernel), getattr(configs, route.builder)):
        params = list(inspect.signature(fn).parameters.values())
        assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * n_args
        assert all(p.default is inspect.Parameter.empty for p in params)


@pytest.mark.parametrize(
    "gammas", [(-1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0), (math.nan, 1.0, 1.0, 1.0)]
)
@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_route_amplitudes_rejects_bad_rates(gammas, direction):
    route = getattr(FAMILIES["giant"], direction)
    with pytest.raises(ConfigError, match="gammas"):
        route.amplitudes(gammas, 0.0, {"phi1_prime": 0.3, "phi2_prime": 0.1})


def test_singular_cells_raise_no_overflow_warning():
    """Rates near 1e100 and a subnormal on resonance overflow the terminated
    reverse kernel's divisions; the cells are flagged, with no warning."""
    spec = SweepSpec(
        "semi_infinite",
        (0.0, 1e100, 0.0, 2.3e-307),
        PhaseModel(),
        Axis(-5e-324, 5e-324, 3),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_sweep(spec)
    assert (result.codes == SINGULAR).all()


def test_rates_from_fields_sets_eta_to_zero_without_guide_n_output():
    # gamma3 = gamma4 = 0: nothing reaches guide N, so eta is undefined.
    row, singular, codes = FAMILIES["small_overlap"].closed_rates(
        (1.0, 0.25, 0.0, 0.0), np.array([-1.0, 0.5]), {}
    )
    assert (codes == ETA_UNDEFINED).all() and not singular.any()
    assert np.array_equal(row["eta"], [0.0, 0.0])


# ---------------------------------------------------------------------------
# The block solver engine against the per-cell route it replaced
# ---------------------------------------------------------------------------


def per_cell_solver_sweep(spec):
    """Cell-by-cell solver engine: solver.solve -> rates_from_amplitudes ->
    combine_directions per cell, a DegenerateConfigError marking the cell
    singular, then the same singular fill."""
    family = FAMILIES[spec.family]
    delta = spec.delta_axis.values()
    phi = spec.phase_axis.values() if spec.phase_axis is not None else np.array([0.0])
    shape = (len(phi), len(delta))
    grids = {name: np.zeros(shape) for name in RATE_FIELDS}
    flags = [[() for _ in delta] for _ in phi]
    singular = np.zeros(shape, dtype=bool)
    for i, value in enumerate(phi.tolist()):
        pm = _phase_constants(spec.phases, spec.phase_axis, value)
        for j, d in enumerate(delta.tolist()):
            phases = _resolved(pm, family, d)
            try:
                cell = combine_directions(
                    rates_from_amplitudes(solver.solve(family.forward.config(spec.gammas, d, phases))),
                    rates_from_amplitudes(solver.solve(family.reverse.config(spec.gammas, d, phases))),
                )
            except DegenerateConfigError:
                singular[i, j] = True
                continue
            for name, val in zip(RATE_FIELDS, cell.as_row()):
                grids[name][i, j] = val
            flags[i][j] = cell.flags
    _fill_singular(grids, np.zeros(shape, dtype=np.uint8), singular)
    for i, j in zip(*np.nonzero(singular)):
        flags[i][j] = ("singular",)
    return grids, flags


def assert_matches_per_cell(spec):
    result = run_sweep(spec)
    grids, flags = per_cell_solver_sweep(spec)
    for name in RATE_FIELDS:
        assert result.rates[name].tobytes() == grids[name].tobytes(), name
    assert result.flags == flags
    return result


#: Phase linkage per family; small_overlap takes no phase.
SOLVER_LINKAGE = {
    "small_overlap": (("phi_a", 1.0),),
    "small_separated": (("phi_a", 1.0), ("phi_b", 0.5)),
    "giant": (("phi1_prime", 1.0), ("phi2_prime", -1.0)),
    "semi_infinite": (("phi3", 1.0),),
}


@pytest.mark.parametrize("regime", [MARKOVIAN, NON_MARKOVIAN])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_block_solver_sweep_is_bitwise_per_cell(family, regime):
    pm = PhaseModel(
        regime=regime,
        tau=0.7 if regime == NON_MARKOVIAN else 0.0,
        phi1_prime=0.4,
        phi2_prime=1.1,
        phi3=0.2,
        phi_a=0.9,
        phi_b=1.3,
    )
    axis = PhaseAxis(0.25, 5.75, 4, linkage=SOLVER_LINKAGE[family])
    spec = SweepSpec(family, (0.5, 1.0, 1.5, 0.7), pm, Axis(-6.0, 6.0, 19), axis, "solver")
    assert_matches_per_cell(spec)


@pytest.mark.parametrize(
    "gammas, expected",
    [
        # ill_conditioned cells at phi = pi and an eta_undefined cell beside them.
        ((1.0, 0.25, 1.0, 0.0), {("ill_conditioned",), ("eta_undefined",)}),
        # Nothing couples to guide N: both flags on the cells at phi = pi.
        ((1.0, 0.25, 0.0, 0.0), {("ill_conditioned", "eta_undefined"), ("eta_undefined",)}),
    ],
)
def test_block_solver_keeps_cell_flags(gammas, expected):
    axis = PhaseAxis(3.0, math.pi, 3, linkage=(("phi1_prime", 1.0),))
    spec = SweepSpec("giant", gammas, PhaseModel(), Axis(-1.0, 1.0, 5), axis, "solver")
    result = assert_matches_per_cell(spec)
    assert expected <= {cell for row in result.flags for cell in row}


def test_block_solver_row_longer_than_a_block():
    pm = PhaseModel(regime=NON_MARKOVIAN, tau=1.0)
    axis = PhaseAxis(0.3, 2.9, 2, linkage=(("phi1_prime", 1.0), ("phi2_prime", -1.0)))
    n_delta = 2 * SOLVER_BLOCK + 37
    spec = SweepSpec("giant", (0.32, 1.0, 1.0, 1.0), pm, Axis(-10.0, 10.0, n_delta), axis, "solver")
    assert_matches_per_cell(spec)


@pytest.mark.parametrize(
    "family, regime, n_phi, n_delta, blocks",
    [
        # The benchmark's grid is one block per direction in either regime.
        ("giant", MARKOVIAN, 8, 101, [808]),
        ("giant", NON_MARKOVIAN, 8, 101, [808]),
        ("giant", NON_MARKOVIAN, 7, 42, [294]),
        # A phase-less family is one run per row in either regime.
        ("small_overlap", NON_MARKOVIAN, 12, 101, [1010, 202]),
        # Longer rows are cut into slices of SOLVER_CELLS cells.
        ("giant", MARKOVIAN, 2, 2001, [SOLVER_CELLS, 2001 - SOLVER_CELLS] * 2),
        ("giant", NON_MARKOVIAN, 1, 300, [300]),
    ],
)
def test_solver_blocks_span_phase_rows(monkeypatch, family, regime, n_phi, n_delta, blocks):
    """`run_sweep` packs whole phase rows into a solver block while it holds
    at most SOLVER_CELLS cells, whatever its runs, and gives the rates of a
    per-cell sweep bit for bit.  `solve_batch` assembles each block's runs
    SOLVER_BLOCK at a time."""
    sizes = []
    assembled = []
    batch, assemble = solver.solve_batch, solver.assemble

    def recording(cfg, **kwargs):
        sizes.append(len(cfg.delta))
        return batch(cfg, **kwargs)

    def counting(layout, cfg):
        assembled.append(np.size(cfg.delta))
        return assemble(layout, cfg)

    monkeypatch.setattr(solver, "solve_batch", recording)
    monkeypatch.setattr(solver, "assemble", counting)
    pm = PhaseModel(regime=regime, tau=0.7 if regime == NON_MARKOVIAN else 0.0, phi2_prime=1.1)
    axis = PhaseAxis(0.25, 5.75 if n_phi > 1 else 0.25, n_phi, linkage=SOLVER_LINKAGE[family])
    spec = SweepSpec(family, (0.32, 1.0, 1.0, 1.0), pm, Axis(-10.0, 10.0, n_delta), axis, "both")
    result = run_sweep(spec)
    assert sizes == [size for size in blocks for _ in "fr"]
    # A block of whole rows, or a slice of one, has a run per row it
    # touches where the phases hold still, and a run per cell where they
    # move with the detuning.
    moving = regime == NON_MARKOVIAN and bool(FAMILIES[family].phases)
    runs = [size if moving else -(-size // n_delta) for size in blocks]
    assert len(assembled) == 2 * sum(-(-r // SOLVER_BLOCK) for r in runs)
    assert max(assembled) <= SOLVER_BLOCK
    assert result.engine_discrepancy <= 1e-10
    if n_phi * n_delta <= 1000:
        assert_matches_per_cell(replace(spec, engine="solver"))


def twin_atoms(gammas, delta):
    """Two identical two-level atoms at one point: at delta = 0 their columns
    coincide and the system is exactly singular."""
    return SystemConfig(
        atoms=("two_level", "two_level"),
        legs=(CouplingLeg(0, "M", "ge", 0.0, 1.0), CouplingLeg(1, "M", "ge", 0.0, 1.0)),
        port=1,
        delta=delta,
    )


def test_block_solver_marks_only_the_singular_cell(monkeypatch):
    monkeypatch.setattr(configs, "small_overlap", twin_atoms)
    block = twin_atoms(None, np.linspace(-1.0, 1.0, 5))
    matrix, rhs = solver.assemble(solver.build_layout(block), block)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(matrix, rhs)
    spec = small_spec(delta_axis=Axis(-1.0, 1.0, 5), engine="solver")
    result = assert_matches_per_cell(spec)
    assert [("singular" in cell) for cell in result.flags[0]] == [False, False, True, False, False]
