"""Canonical SystemConfig builders for the standard configuration families.

Each builder realizes a requested set of interference phases with an explicit
geometry: positions are fixed at unit separation, so the photon's wavevector
k and the converted wavevector q are the two requested phases themselves,
passed through unchanged.  The solver computes every e^{i kappa x} and all
the boundary matching from that geometry, which keeps it an independent
check on the closed forms, and both engines model the same phases bit for
bit.  A builder without a phase puts every coupling at x = 0, where any
wavevector gives e^{i kappa x} = 1, so it keeps SystemConfig's default
k = q = 0; a reverse builder has no q channel and keeps q = 0.

Reverse-incidence builders implement the model's reverse scattering rule:
a photon entering guide N cannot be absorbed by the lambda atom (its s-e
transition starts from the unoccupied second ground state), so the lambda
atom stays a ground-state spectator and only the two-level atom's legs
participate.

The rates, the detuning and the phases may be arrays of one shape, one
value per cell of a solver block; the configuration's delta, k, q and leg
rates are then those arrays.
"""

from __future__ import annotations

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


def _config(
    gammas: tuple[float, float, float, float],
    delta: float,
    *,
    k: float = 0.0,
    q: float = 0.0,
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
    return SystemConfig((TWO_LEVEL, LAMBDA), tuple(legs), 1, delta, k, q, wall)


def small_overlap(gammas, delta) -> SystemConfig:
    """Both atoms coupled at the same point x = 0."""
    return _config(
        tuple(gammas),
        delta,
        positions=(0.0, 0.0),
        double_legs=False,
    )


def small_separated(gammas, delta, phi_a: float, phi_b: float) -> SystemConfig:
    """Two-level atom at x = 0, lambda atom at x = 1."""
    return _config(
        tuple(gammas),
        delta,
        k=phi_a,
        q=phi_b,
        positions=(0.0, 1.0),
        double_legs=False,
    )


def giant(gammas, delta, phi1: float, phi2: float) -> SystemConfig:
    """Co-located giant atoms, each coupling at x = 0 and x = 1."""
    return _config(
        tuple(gammas),
        delta,
        k=phi1,
        q=phi2,
        positions=(0.0, 1.0),
        double_legs=True,
    )


def semi_infinite(gammas, delta, phi3: float) -> SystemConfig:
    """Co-located atoms at x = 0 with guide M terminated by a mirror at x = 1."""
    return _config(
        tuple(gammas),
        delta,
        k=phi3,
        q=phi3,
        positions=(0.0, 0.0),
        double_legs=False,
        wall=1.0,
    )


def _spectator(
    gamma1: float,
    gamma3: float,
    delta: float,
    *,
    k: float = 0.0,
    points: tuple[float, ...],
    wall: float | None,
) -> SystemConfig:
    legs = []
    for x in points:
        legs.append(CouplingLeg(0, WAVEGUIDE_M, GE, x, gamma1))
        legs.append(CouplingLeg(0, WAVEGUIDE_N, GE, x, gamma3))
    return SystemConfig((TWO_LEVEL,), tuple(legs), 4, delta, k, wall=wall)


def reverse_small(gamma1: float, gamma3: float, delta: float) -> SystemConfig:
    """Reverse incidence on the point-like configuration (lambda atom inert)."""
    return _spectator(gamma1, gamma3, delta, points=(0.0,), wall=None)


def reverse_giant(gamma1: float, gamma3: float, delta: float, phi1: float) -> SystemConfig:
    """Reverse incidence on the giant-atom configuration (lambda atom inert)."""
    return _spectator(gamma1, gamma3, delta, k=phi1, points=(0.0, 1.0), wall=None)


def reverse_semi_infinite(
    gamma1: float, gamma3: float, delta: float, phi3: float
) -> SystemConfig:
    """Reverse incidence with guide M terminated at x = 1 (lambda atom inert)."""
    return _spectator(gamma1, gamma3, delta, k=phi3, points=(0.0,), wall=1.0)
