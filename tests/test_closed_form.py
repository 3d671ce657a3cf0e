"""Closed-form amplitudes: anchor values, limits, and exact symmetries.

Expected numbers are frozen from independent evaluation of the analytical
solutions (worked by hand at the quoted parameter points), not read back
from the implementation.
"""

import cmath
import math

import numpy as np
import pytest

from wgscatter import closed_form as cf
from wgscatter.core import SingularityError, rates_from_amplitudes
from wgscatter.sweep import FAMILIES

OVERLAP = FAMILIES["small_overlap"]
SEPARATED = FAMILIES["small_separated"]
GIANT = FAMILIES["giant"]
TERMINATED = FAMILIES["semi_infinite"]


class TestSmallOverlapForward:
    def test_mirror_point(self):
        # gamma4 = 0 at resonance: the bridge reflects guide M completely.
        a = OVERLAP.forward.amplitudes((1.0, 1.0, 1.0, 0.0), 0.0, {})
        assert abs(a.m_left) == pytest.approx(1.0, abs=1e-15)
        assert a.m_left.real == pytest.approx(-1.0, abs=1e-15)
        assert a.m_right == pytest.approx(0.0, abs=1e-15)
        assert a.n_left_q == 0.0 and a.n_right_q == 0.0

    def test_conversion_anchor(self):
        # t3s = -sqrt(g2 g4) g3 / (g2 g3 + (g1+g3) g4) = -1/2.32
        a = OVERLAP.forward.amplitudes((0.32, 1.0, 1.0, 1.0), 0.0, {})
        assert a.n_left_q == pytest.approx(-1.0 / 2.32, abs=1e-15)
        assert a.n_left_q == pytest.approx(-0.4310, abs=5e-5)
        rates = rates_from_amplitudes(a)
        assert rates.t_ns == pytest.approx(2.0 / 2.32**2, abs=1e-15)
        assert rates.t_ng == pytest.approx(0.64 / 2.32**2, abs=1e-15)

    def test_far_detuned_transparency(self):
        a = OVERLAP.forward.amplitudes((1.0, 1.0, 1.0, 1.0), 1e8, {})
        for out in (a.m_left, a.n_left_k, a.n_left_q):
            assert abs(out) < 1e-7
        assert a.m_right == pytest.approx(1.0, abs=1e-7)

    def test_t2_is_one_plus_r1(self):
        a = OVERLAP.forward.amplitudes((0.7, 1.3, 0.2, 2.1), -3.0, {})
        assert a.m_right == pytest.approx(1.0 + a.m_left, abs=1e-15)

    def test_channel_symmetry_exact(self):
        a = OVERLAP.forward.amplitudes((0.7, 1.3, 0.2, 2.1), 0.8, {})
        assert a.n_left_k == a.n_right_k
        assert a.n_left_q == a.n_right_q

    def test_gamma4_zero_closes_conversion(self):
        for delta in (-4.0, 0.1, 7.7):
            a = OVERLAP.forward.amplitudes((1.0, 0.5, 1.0, 0.0), delta, {})
            assert a.n_left_q == 0.0 and a.n_right_q == 0.0

    def test_singularity_error(self):
        with pytest.raises(SingularityError):
            OVERLAP.forward.amplitudes((0.0, 0.0, 0.0, 0.0), 0.0, {})


class TestSmallSeparatedForward:
    def test_reduces_to_overlap_at_zero_phases(self):
        g = (0.6, 1.1, 0.9, 1.7)
        sep = SEPARATED.forward.amplitudes(g, 1.4, {"phi_a": 0.0, "phi_b": 0.0})
        ovl = OVERLAP.forward.amplitudes(g, 1.4, {})
        for name in ("m_left", "m_right", "n_left_k", "n_right_k", "n_left_q", "n_right_q"):
            assert getattr(sep, name) == pytest.approx(getattr(ovl, name), abs=1e-14)

    def test_blocking_at_multiples_of_pi(self):
        # With the conversion channel closed, resonance blocks the forward
        # transfer whenever the inter-atom phase is a multiple of pi.
        for phi_a in (0.0, math.pi, 2 * math.pi):
            a = SEPARATED.forward.amplitudes(
                (1.0, 0.25, 1.0, 0.0), 0.0, {"phi_a": phi_a, "phi_b": phi_a}
            )
            assert abs(a.n_left_k) < 1e-14
            assert abs(a.n_left_q) < 1e-14
            assert abs(a.m_left) == pytest.approx(1.0, abs=1e-12)

    def test_elastic_pair_exactly_equal(self):
        a = SEPARATED.forward.amplitudes(
            (1.0, 0.4, 0.8, 1.3), 0.6, {"phi_a": 1.9, "phi_b": 0.7}
        )
        assert a.n_left_k == a.n_right_k

    def test_converted_pair_phase_relation(self):
        phi_b = 0.7
        a = SEPARATED.forward.amplitudes(
            (1.0, 0.4, 0.8, 1.3), 0.6, {"phi_a": 1.9, "phi_b": phi_b}
        )
        assert a.n_right_q == pytest.approx(
            a.n_left_q * cmath.exp(-2j * phi_b), abs=1e-15
        )
        assert abs(a.n_right_q) == pytest.approx(abs(a.n_left_q), abs=1e-15)

    def test_conservation(self):
        a = SEPARATED.forward.amplitudes(
            (2.2, 0.3, 1.4, 0.9), -2.5, {"phi_a": 5.1, "phi_b": 2.6}
        )
        assert rates_from_amplitudes(a).conservation_residual < 1e-13


class TestSmallReverse:
    def test_resonant_half_transfer(self):
        a = OVERLAP.reverse.amplitudes((1.0, 0.25, 1.0, 0.0), 0.0, {})
        assert a.m_left == pytest.approx(-0.5, abs=1e-15)
        assert a.m_left == a.m_right
        rates = rates_from_amplitudes(a)
        assert rates.t_m_rev == pytest.approx(0.5, abs=1e-15)

    def test_detuned_magnitude(self):
        # |t1|^2 = |-1/(2 - 10i)|^2 = 1/104
        a = OVERLAP.reverse.amplitudes((1.0, 1.0, 1.0, 1.0), 10.0, {})
        assert abs(a.m_left) ** 2 == pytest.approx(1.0 / 104.0, abs=1e-15)

    def test_decoupled_atom_closes_channel(self):
        a = OVERLAP.reverse.amplitudes((0.0, 1.0, 1.0, 1.0), 2.0, {})
        assert a.m_left == 0.0 and a.m_right == 0.0

    def test_no_conversion_in_reverse(self):
        a = OVERLAP.reverse.amplitudes((1.0, 2.0, 0.7, 1.5), 0.3, {})
        assert a.n_left_q == 0.0 and a.n_right_q == 0.0

    def test_singularity(self):
        with pytest.raises(SingularityError):
            OVERLAP.reverse.amplitudes((0.0, 1.0, 0.0, 1.0), 0.0, {})

    @pytest.mark.parametrize("gamma, singular", [(2.5e-14, False), (4.5e-15, True)])
    def test_denominator_gate_on_both_sides(self, gamma, singular):
        # At resonance den = gamma1 + gamma3: 5e-14 clears the 1e-14 floor
        # and 9e-15 falls under it.
        fields = cf.spectator_reverse_fields(gamma, gamma, 0.0)
        assert bool(fields.singular) is singular
        rates = (gamma, 1.0, gamma, 1.0)
        if singular:
            with pytest.raises(SingularityError):
                OVERLAP.reverse.amplitudes(rates, 0.0, {})
        else:
            assert OVERLAP.reverse.amplitudes(rates, 0.0, {}).m_left == pytest.approx(-0.5)


class TestGiantForward:
    def test_reduction_to_quadrupled_overlap(self):
        g = (0.32, 1.0, 1.0, 1.0)
        g4x = tuple(4 * x for x in g)
        for delta in np.linspace(-10, 10, 100):
            giant = GIANT.forward.amplitudes(
                g, float(delta), {"phi1_prime": 0.0, "phi2_prime": 0.0}
            )
            small = OVERLAP.forward.amplitudes(g4x, float(delta), {})
            for name in (
                "m_left", "m_right", "n_left_k", "n_right_k", "n_left_q", "n_right_q",
            ):
                assert getattr(giant, name) == pytest.approx(
                    getattr(small, name), abs=1e-12
                )

    def test_destructive_interference_at_pi(self):
        a = GIANT.forward.amplitudes(
            (1.0, 1.0, 1.0, 1.0), 3.0, {"phi1_prime": math.pi, "phi2_prime": 1.0}
        )
        assert abs(a.n_left_k) < 1e-14
        assert abs(a.n_right_k) < 1e-14

    def test_resonant_conversion_ratio(self):
        # eta = g2 g3 / (g1 g4 + g2 g3) at resonance for any leg phases.
        for phi1, phi2 in ((0.3, 1.1), (2.0, 5.2), (4.4, 0.2)):
            a = GIANT.forward.amplitudes(
                (0.32, 1.0, 1.0, 1.0), 0.0, {"phi1_prime": phi1, "phi2_prime": phi2}
            )
            rates = rates_from_amplitudes(a)
            assert rates.eta == pytest.approx(1.0 / 1.32, abs=1e-12)

    def test_leg_phase_pair_relations(self):
        phi1, phi2 = 1.3, 2.9
        a = GIANT.forward.amplitudes(
            (0.5, 0.8, 1.2, 0.4), -1.0, {"phi1_prime": phi1, "phi2_prime": phi2}
        )
        assert a.n_right_k == pytest.approx(
            a.n_left_k * cmath.exp(-1j * phi1), abs=1e-15
        )
        assert a.n_right_q == pytest.approx(
            a.n_left_q * cmath.exp(-1j * phi2), abs=1e-15
        )

    def test_conservation(self):
        a = GIANT.forward.amplitudes(
            (1.9, 0.2, 0.6, 2.4), 3.3, {"phi1_prime": 0.9, "phi2_prime": 5.5}
        )
        assert rates_from_amplitudes(a).conservation_residual < 1e-13


class TestGiantReverse:
    def test_non_markovian_anchor(self):
        # phi1 = pi + tau*delta with tau=1, delta=4.
        a = GIANT.reverse.amplitudes(
            (1.0, 0.25, 1.0, 0.0), 4.0, {"phi1_prime": math.pi + 4.0}
        )
        rates = rates_from_amplitudes(a)
        assert rates.t_m_rev == pytest.approx(0.49, abs=0.01)

    def test_blocked_at_pi(self):
        a = GIANT.reverse.amplitudes((1.0, 1.0, 1.0, 0.0), 2.0, {"phi1_prime": math.pi})
        assert abs(a.m_left) < 1e-14
        assert abs(a.m_right) < 1e-14

    def test_zero_phase_half_magnitude(self):
        a = GIANT.reverse.amplitudes((1.0, 0.3, 1.0, 0.0), 0.0, {"phi1_prime": 0.0})
        assert abs(a.m_left) == pytest.approx(0.5, abs=1e-15)
        assert a.m_left == a.m_right

    def test_reverse_never_converts(self):
        a = GIANT.reverse.amplitudes((1.0, 2.0, 1.0, 1.5), 1.0, {"phi1_prime": 0.7})
        assert a.n_left_q == 0.0 and a.n_right_q == 0.0


class TestSemiInfiniteForward:
    def test_resonant_anchor(self):
        a = TERMINATED.forward.amplitudes((0.32, 1.0, 1.0, 1.0), 0.0, {"phi3": 0.0})
        rates = rates_from_amplitudes(a)
        assert rates.t_ng == pytest.approx(0.193, abs=1e-3)
        assert rates.t_ns == pytest.approx(0.604, abs=1e-3)
        assert rates.t2 == 0.0

    def test_quarter_phase_closes_transfer(self):
        for delta in (-9.0, 0.4, 6.0):
            a = TERMINATED.forward.amplitudes(
                (0.32, 1.0, 1.0, 1.0), delta, {"phi3": math.pi / 2}
            )
            assert abs(a.n_left_q) < 1e-14
            assert abs(a.n_left_k) < 1e-14

    def test_bare_mirror(self):
        a = TERMINATED.forward.amplitudes((0.0, 0.0, 0.0, 0.0), 1.5, {"phi3": 0.8})
        assert abs(a.m_left) == pytest.approx(1.0, abs=1e-15)
        for name in ("n_left_k", "n_right_k", "n_left_q", "n_right_q"):
            assert getattr(a, name) == 0.0

    def test_conservation(self):
        a = TERMINATED.forward.amplitudes((1.2, 0.5, 2.0, 0.8), -1.7, {"phi3": 2.2})
        assert rates_from_amplitudes(a).conservation_residual < 1e-13


class TestVectorizedKernels:
    def test_fields_broadcast_over_delta(self):
        delta = np.linspace(-5, 5, 11)
        f = cf.overlap_forward_fields((0.32, 1.0, 1.0, 1.0), delta)
        assert f.t3s.shape == delta.shape
        point = OVERLAP.forward.amplitudes((0.32, 1.0, 1.0, 1.0), float(delta[3]), {})
        assert complex(f.t3s[3]) == pytest.approx(point.n_left_q, abs=1e-15)

    def test_singular_mask_matches_scalar_error(self):
        f = cf.overlap_forward_fields((0.0, 0.0, 0.0, 0.0), np.array([0.0, 1.0]))
        assert bool(f.singular[0]) and not bool(f.singular[1])
