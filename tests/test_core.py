"""Core types, rate bookkeeping, and phase-model behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgscatter.core import (
    MARKOVIAN,
    NON_MARKOVIAN,
    PORTS,
    ConfigError,
    CouplingLeg,
    InvalidAmplitudeError,
    PhaseModel,
    ScatterAmplitudes,
    SystemConfig,
    combine_directions,
    rates_from_amplitudes,
    rates_from_outgoing,
    resolved_phase,
)


def forward_amps(**kw):
    base = dict(
        incident_port=1,
        m_left=0.0j,
        m_right=0.0j,
        n_left_k=0.0j,
        n_right_k=0.0j,
        n_left_q=0.0j,
        n_right_q=0.0j,
    )
    base.update(kw)
    return ScatterAmplitudes(**base)


class TestRatesFromAmplitudes:
    def test_perfect_mirror(self):
        rates = rates_from_amplitudes(forward_amps(m_left=1.0 + 0j))
        assert rates.r_m == 1.0
        assert rates.t_ng == 0.0
        assert rates.t_ns == 0.0
        assert rates.eta == 0.0
        assert rates.conservation_residual == 0.0
        assert "eta_undefined" in rates.flags

    def test_elastic_pair(self):
        # |t3g|^2 frozen from the point-coupled formula at delta=0 with
        # rates (0.32, 1, 1, 1): |t3g|^2 = 0.32 / 2.32^2.
        mag = math.sqrt(0.32) / 2.32
        rates = rates_from_amplitudes(
            forward_amps(n_left_k=-mag + 0j, n_right_k=-mag + 0j)
        )
        assert rates.t_ng == pytest.approx(0.64 / 2.32**2, abs=1e-15)
        assert rates.t_ng == pytest.approx(0.119, abs=5e-4)
        assert rates.eta == 0.0

    def test_converted_pair(self):
        t3s = -1.0 / 2.32
        rates = rates_from_amplitudes(
            forward_amps(n_left_q=t3s + 0j, n_right_q=t3s + 0j)
        )
        assert rates.t_ns == pytest.approx(0.37, abs=2e-3)

    def test_reverse_bookkeeping(self):
        amps = ScatterAmplitudes(
            incident_port=4,
            m_left=-0.5 + 0j,
            m_right=-0.5 + 0j,
            n_left_k=0.5 + 0j,
            n_right_k=-0.5 + 0j,
            n_left_q=0.0j,
            n_right_q=0.0j,
        )
        rates = rates_from_amplitudes(amps)
        assert rates.t_m_rev == pytest.approx(0.5, abs=1e-15)
        assert rates.conservation_residual < 1e-15
        assert rates.t_ng == 0.0 and rates.r_m == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidAmplitudeError):
            rates_from_amplitudes(forward_amps(m_left=complex("nan")))

    @given(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(
            min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False
        ),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_eta_scale_invariant(self, amp, factor):
        a = forward_amps(
            n_left_k=amp, n_right_k=0.3 * amp + 0.1j, n_left_q=amp - 0.2j
        )
        scaled = forward_amps(
            n_left_k=a.n_left_k * factor,
            n_right_k=a.n_right_k * factor,
            n_left_q=a.n_left_q * factor,
        )
        r0, r1 = rates_from_amplitudes(a), rates_from_amplitudes(scaled)
        if r0.t_ng + r0.t_ns > 1e-12:
            assert r1.eta == pytest.approx(r0.eta, abs=1e-12)

    def test_combine_directions(self):
        fwd = rates_from_amplitudes(forward_amps(m_left=1.0 + 0j))
        rev = rates_from_amplitudes(
            ScatterAmplitudes(
                incident_port=4,
                m_left=-0.5 + 0j,
                m_right=-0.5 + 0j,
                n_left_k=0.5 + 0j,
                n_right_k=-0.5 + 0j,
                n_left_q=0.0j,
                n_right_q=0.0j,
            )
        )
        both = combine_directions(fwd, rev)
        assert both.r_m == 1.0
        assert both.t_m_rev == pytest.approx(0.5)
        assert both.conservation_residual == max(
            fwd.conservation_residual, rev.conservation_residual
        )


def phases(pm, delta, names=("phi1_prime", "phi2_prime", "phi3")):
    return tuple(resolved_phase(pm, name, delta) for name in names)


class TestEffectivePhases:
    def test_markovian_constant(self):
        pm = PhaseModel(regime=MARKOVIAN, phi1_prime=math.pi, tau=2.0)
        for delta in (-5.0, 0.0, 13.0):
            phi1, phi2, phi3 = phases(pm, delta)
            assert phi1 == math.pi and phi2 == 0.0 and phi3 == 0.0

    def test_non_markovian_shift(self):
        pm = PhaseModel(regime=NON_MARKOVIAN, phi1_prime=math.pi, tau=1.0)
        phi1 = resolved_phase(pm, "phi1_prime", 4.0)
        assert phi1 == pytest.approx(math.pi + 4.0, abs=1e-15)

    def test_zero_tau_reduces_to_markovian(self):
        pm = PhaseModel(regime=NON_MARKOVIAN, phi1_prime=1.2, phi2_prime=-0.4, tau=0.0)
        for delta in (-8.0, 3.3):
            assert phases(pm, delta) == (1.2, -0.4, 0.0)

    @given(
        st.floats(-10, 10),
        st.floats(-10, 10),
        st.floats(0, 5),
        st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_affine_in_delta(self, d1, d2, tau, phi0):
        pm = PhaseModel(regime=NON_MARKOVIAN, phi1_prime=phi0, tau=tau)
        a1 = resolved_phase(pm, "phi1_prime", d1)
        a2 = resolved_phase(pm, "phi1_prime", d2)
        assert a2 - a1 == pytest.approx(tau * (d2 - d1), abs=1e-9)

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigError):
            PhaseModel(regime=NON_MARKOVIAN, tau=-1.0)

    @pytest.mark.parametrize(
        "name", ["tau", "phi_a", "phi_b", "phi1_prime", "phi2_prime", "phi3"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_or_phase_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            PhaseModel(regime=NON_MARKOVIAN, **{name: value})

    def test_separation_phases_follow_same_rule(self):
        pm = PhaseModel(regime=MARKOVIAN, phi_a=1.1, phi_b=0.4, tau=3.0)
        assert phases(pm, 7.0, ("phi_a", "phi_b")) == (1.1, 0.4)
        pm = PhaseModel(regime=NON_MARKOVIAN, phi_a=1.1, phi_b=0.4, tau=0.5)
        phi_a, phi_b = phases(pm, 2.0, ("phi_a", "phi_b"))
        assert phi_a == pytest.approx(2.1, abs=1e-15)
        assert phi_b == pytest.approx(1.4, abs=1e-15)


def _one_atom(position=0.0, wall=None, k=0.0, q=0.0, delta=0.0) -> SystemConfig:
    return SystemConfig(
        ("lambda",), (CouplingLeg(0, "M", "ge", position, 1.0),), 1, delta, k, q, wall
    )


#: The inputs that a solver block may make arrays, one value per cell.
BLOCK_INPUTS = ("k", "q", "delta")


class TestConfigValidation:
    def test_atom_invariants(self):
        legs = (CouplingLeg(0, "M", "ge", 0.0, 1.0),)
        with pytest.raises(ConfigError, match="unknown atom kind"):
            SystemConfig(("qutrit",), legs, 1)
        with pytest.raises(ConfigError, match="at most one lambda atom"):
            SystemConfig(("lambda", "lambda"), legs + (CouplingLeg(1, "M", "ge", 0.0, 1.0),), 1)

    def test_se_leg_requires_lambda(self):
        atoms = ("two_level",)
        legs = (CouplingLeg(0, "N", "se", 0.0, 1.0),)
        with pytest.raises(ConfigError):
            SystemConfig(atoms, legs, 1)

    def test_duplicate_leg_rejected(self):
        atoms = ("two_level",)
        legs = (
            CouplingLeg(0, "M", "ge", 0.0, 1.0),
            CouplingLeg(0, "M", "ge", 0.0, 0.5),
        )
        with pytest.raises(ConfigError):
            SystemConfig(atoms, legs, 1)

    def test_wall_must_clear_legs(self):
        atoms = ("two_level",)
        legs = (CouplingLeg(0, "M", "ge", 0.0, 1.0),)
        with pytest.raises(ConfigError):
            SystemConfig(atoms, legs, 1, wall=0.0)

    def test_ports_2_and_3_rejected(self):
        legs = (CouplingLeg(0, "M", "ge", 0.0, 1.0),)
        for port in (2, 3):
            with pytest.raises(ConfigError, match="port must be 1 or 4"):
                SystemConfig(("two_level",), legs, port)

    def test_atom_without_leg_rejected(self):
        atoms = ("two_level", "lambda")
        legs = (CouplingLeg(0, "M", "ge", 0.0, 1.0),)
        with pytest.raises(ConfigError):
            SystemConfig(atoms, legs, 1)

    def test_bus_side_conversion_leg_rejected(self):
        legs = (
            CouplingLeg(0, "M", "se", 0.0, 1.0),
            CouplingLeg(0, "N", "ge", 0.0, 1.0),
        )
        with pytest.raises(ConfigError, match="guide N only"):
            SystemConfig(("lambda",), legs, 1, q=0.2)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["position", "wall", *BLOCK_INPUTS])
    def test_non_finite_input_rejected(self, name, value):
        """Each input is checked as a scalar and, where a block may make it
        an array, with one bad cell among finite ones."""
        values = [value]
        if name in BLOCK_INPUTS:
            values.append(np.array([0.0, value, 1.0]))
        for v in values:
            with pytest.raises(ConfigError, match="finite"):
                _one_atom(**{name: v})

    @pytest.mark.parametrize("gamma", [math.inf, np.array([1.0, math.inf, 0.5])])
    def test_infinite_leg_rate_rejected(self, gamma):
        with pytest.raises(ConfigError, match="finite"):
            CouplingLeg(0, "M", "ge", 0.0, gamma)

    def test_unknown_guide_and_transition_rejected(self):
        with pytest.raises(ConfigError, match="unknown waveguide 'K'"):
            CouplingLeg(0, "K", "ge", 0.0, 1.0)
        with pytest.raises(ConfigError, match="unknown transition 'gs'"):
            CouplingLeg(0, "M", "gs", 0.0, 1.0)

    def test_atoms_and_leg_indices_rejected(self):
        with pytest.raises(ConfigError, match="at least one atom is required"):
            SystemConfig((), (), 1)
        legs = (CouplingLeg(0, "M", "ge", 0.0, 1.0), CouplingLeg(1, "M", "ge", 1.0, 1.0))
        with pytest.raises(ConfigError, match="leg references unknown atom index 1"):
            SystemConfig(("two_level",), legs, 1)


@pytest.mark.parametrize("port", [1, 4])
def test_block_reduction_is_bitwise_scalar(port):
    """rates_from_outgoing gives the bits of combine_directions over
    rates_from_amplitudes on paired port-1 and port-4 component maps with
    magnitudes across 1e-13..1e13, exact zeros included.  The ``port``
    block sends nothing into guide N in its first ten cells, which leaves
    eta undefined only for port-1 incidence."""
    rng = np.random.default_rng(port)
    n = 4000

    def outgoing():
        values = (rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))) * 10.0 ** rng.uniform(
            -13.0, 13.0, (n, 6)
        )
        values[rng.random((n, 6)) < 0.1] = 0.0
        return values

    forward, reverse = outgoing(), outgoing()
    (forward if port == 1 else reverse)[:10, 2:] = 0.0  # no output into guide N
    rows, eta_undefined = rates_from_outgoing(
        dict(zip(PORTS, forward.T)), dict(zip(PORTS, reverse.T))
    )
    for k in range(n):
        expected = combine_directions(
            rates_from_amplitudes(ScatterAmplitudes(1, *forward[k].tolist())),
            rates_from_amplitudes(ScatterAmplitudes(4, *reverse[k].tolist())),
        )
        assert rows[:, k].tobytes() == np.array(expected.as_row()).tobytes(), k
        assert bool(eta_undefined[k]) == ("eta_undefined" in expected.flags)
    assert eta_undefined[:10].all() == (port == 1)
