"""Canonical SystemConfig builders for the standard configuration families.

Each builder realizes a requested set of interference phases with an explicit
geometry: positions are fixed (unit separation), the guide wavevector is
chosen so that k * separation reproduces the requested phase, and the lambda
atom's level splitting is chosen so that q = k - omega_s reproduces the
second phase.  The solver therefore never receives a phase directly, which
keeps it an independent check on the closed forms.

Reverse-incidence builders implement the model's reverse scattering rule:
a photon entering guide N cannot be absorbed by the lambda atom (its s-e
transition starts from the unoccupied second ground state), so the lambda
atom stays a ground-state spectator and only the two-level atom's legs
participate.

The rates, the detuning and the phases may be arrays of one shape, one
value per cell of a solver block: the builders are plain arithmetic on
them, and the resulting omega_1, omega_s and leg rates are arrays over the
block.  Both atoms share the one e-level omega_1 = k - delta, so the
photon energy omega_1 + delta is the wavevector k up to rounding.
"""

from __future__ import annotations

import math

from .core import (
    GE,
    LAMBDA,
    SE,
    TWO_LEVEL,
    WAVEGUIDE_M,
    WAVEGUIDE_N,
    CouplingLeg,
    SystemConfig,
)

TWO_PI = 2.0 * math.pi


def _split(phi_k: float, phi_q: float) -> tuple[float, float]:
    """(wavevector k, level splitting omega_s) realizing the two phases.

    omega_s is wrapped into [0, 2*pi) so it stays non-negative; the wrap
    shifts q by a multiple of 2*pi, which leaves every amplitude of the
    discrete-breakpoint problem (unit separation) unchanged.
    """
    return phi_k, (phi_k - phi_q) % TWO_PI


def _config(
    gammas: tuple[float, float, float, float],
    delta: float,
    *,
    k: float,
    omega_s: float,
    positions: tuple[float, float],
    double_legs: bool,
    wall: float | None = None,
) -> SystemConfig:
    g1, g2, g3, g4 = gammas
    x1, x2 = positions
    points = (x1, x2) if double_legs else (x1,)
    lam_points = (x1, x2) if double_legs else (x2,)
    legs = []
    for x in points:
        legs.append(CouplingLeg(0, WAVEGUIDE_M, GE, x, g1))
        legs.append(CouplingLeg(0, WAVEGUIDE_N, GE, x, g3))
    for x in lam_points:
        legs.append(CouplingLeg(1, WAVEGUIDE_M, GE, x, g2))
        legs.append(CouplingLeg(1, WAVEGUIDE_N, SE, x, g4))
    return SystemConfig(
        (TWO_LEVEL, LAMBDA), tuple(legs), 1, delta, k - delta, omega_s, wall
    )


def small_overlap(gammas, delta) -> SystemConfig:
    """Both atoms coupled at the same point x = 0."""
    return _config(
        tuple(gammas),
        delta,
        k=1.0,
        omega_s=0.0,
        positions=(0.0, 0.0),
        double_legs=False,
    )


def small_separated(gammas, delta, phi_a: float, phi_b: float) -> SystemConfig:
    """Two-level atom at x = 0, lambda atom at x = 1."""
    k, omega_s = _split(phi_a, phi_b)
    return _config(
        tuple(gammas),
        delta,
        k=k,
        omega_s=omega_s,
        positions=(0.0, 1.0),
        double_legs=False,
    )


def giant(gammas, delta, phi1: float, phi2: float) -> SystemConfig:
    """Co-located giant atoms, each coupling at x = 0 and x = 1."""
    k, omega_s = _split(phi1, phi2)
    return _config(
        tuple(gammas),
        delta,
        k=k,
        omega_s=omega_s,
        positions=(0.0, 1.0),
        double_legs=True,
    )


def semi_infinite(gammas, delta, phi3: float) -> SystemConfig:
    """Co-located atoms at x = 0 with guide M terminated by a mirror at x = 1."""
    return _config(
        tuple(gammas),
        delta,
        k=phi3,
        omega_s=0.0,
        positions=(0.0, 0.0),
        double_legs=False,
        wall=1.0,
    )


def _spectator(
    gamma1: float,
    gamma3: float,
    delta: float,
    *,
    k: float,
    points: tuple[float, ...],
    wall: float | None,
) -> SystemConfig:
    legs = []
    for x in points:
        legs.append(CouplingLeg(0, WAVEGUIDE_M, GE, x, gamma1))
        legs.append(CouplingLeg(0, WAVEGUIDE_N, GE, x, gamma3))
    return SystemConfig((TWO_LEVEL,), tuple(legs), 4, delta, k - delta, wall=wall)


def reverse_small(gamma1: float, gamma3: float, delta: float) -> SystemConfig:
    """Reverse incidence on the point-like configuration (lambda atom inert)."""
    return _spectator(gamma1, gamma3, delta, k=1.0, points=(0.0,), wall=None)


def reverse_giant(gamma1: float, gamma3: float, delta: float, phi1: float) -> SystemConfig:
    """Reverse incidence on the giant-atom configuration (lambda atom inert)."""
    return _spectator(gamma1, gamma3, delta, k=phi1, points=(0.0, 1.0), wall=None)


def reverse_semi_infinite(
    gamma1: float, gamma3: float, delta: float, phi3: float
) -> SystemConfig:
    """Reverse incidence with guide M terminated at x = 1 (lambda atom inert)."""
    return _spectator(gamma1, gamma3, delta, k=phi3, points=(0.0,), wall=1.0)
