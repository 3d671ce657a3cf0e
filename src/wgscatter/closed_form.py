"""Analytical scattering amplitudes for the standard configuration families.

Every family admits a closed solution of the boundary-matching problem; the
functions here evaluate those solutions directly, with no linear solve, and
form the second route of the closed-form/solver cross-check.  The kernel
functions (`*_fields`) broadcast over numpy arrays of detuning and phases and
back the sweep engine; `components` names their output as
`ScatterAmplitudes.components` does, at any shape.  `sweep.FAMILIES` names
the kernel of each family and direction, and `sweep.Route.amplitudes`
builds a full ScatterAmplitudes from one scalar point's components.

Amplitude conventions follow the piecewise plane-wave ansatz used by the
solver: each coefficient multiplies exp(+/- i kappa x) over its region.  In
this convention the left/right transfer pairs are equal in magnitude but can
differ by a leg phase, e.g. for separated atoms t4s = t3s * exp(-2i phi_b)
and for giant atoms t4g = t3g * exp(-i phi1); at coinciding coupling points
the pairs are exactly equal.

Square roots of rate products use the non-negative real branch (couplings
are real and positive).  The kernels report denominators smaller than
DENOMINATOR_FLOOR (in units of the reference rate squared) through a
boolean mask, so sweep grids can flag cells without aborting;
`sweep.Route.amplitudes` raises SingularityError on them.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from .core import DENOMINATOR_FLOOR, named_components


def _quiet(fn):
    """Silence 0/0 and overflow warnings inside kernels; the singular mask
    reports them."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return fn(*args, **kwargs)

    return wrapper


def _singular_mask(den) -> np.ndarray:
    return np.abs(den) < DENOMINATOR_FLOOR


# ---------------------------------------------------------------------------
# Vectorized field kernels.  All return SimpleNamespace objects whose entries
# broadcast over the inputs; "singular" is the bad-denominator mask.
# ---------------------------------------------------------------------------


@_quiet
def overlap_forward_fields(gamma, delta) -> SimpleNamespace:
    """Forward amplitudes for both atoms at one point (phases drop out)."""
    g1, g2, g3, g4 = gamma
    delta = np.asarray(delta, dtype=float)
    den = g2 * (g3 - 1j * delta) + (g1 + g3 - 1j * delta) * (g4 - 1j * delta)
    t3g = -np.sqrt(g1 * g3) * (g4 - 1j * delta) / den
    t3s = -np.sqrt(g2 * g4) * (g3 - 1j * delta) / den
    r1 = -(g2 * g3 + g1 * g4 - 1j * (g1 + g2) * delta) / den
    t2 = 1.0 + r1
    u1 = -np.sqrt(g1) * (delta + 1j * g4) / den
    u2 = -np.sqrt(g2) * (delta + 1j * g3) / den
    return SimpleNamespace(
        r1=r1, t2=t2, t3g=t3g, t4g=t3g, t3s=t3s, t4s=t3s,
        u1=u1, u2=u2, interior={}, singular=_singular_mask(den),
    )


@_quiet
def separated_forward_fields(gamma, delta, phi_a, phi_b) -> SimpleNamespace:
    """Forward amplitudes for the two-level atom at 0 and the lambda atom at L."""
    g1, g2, g3, g4 = gamma
    delta = np.asarray(delta, dtype=float)
    pa = np.exp(2j * np.asarray(phi_a))
    ea = np.exp(1j * np.asarray(phi_a))
    eb = np.exp(1j * np.asarray(phi_b))
    den = pa * g1 * g2 - (g1 + g3 - 1j * delta) * (g2 + g4 - 1j * delta)
    t3g = np.sqrt(g1 * g3) * (g4 - 1j * delta - (pa - 1.0) * g2) / den
    t3s = ea * eb * np.sqrt(g2 * g4) * (g3 - 1j * delta) / den
    t4s = t3s / (eb * eb)
    r1 = (g1 * (g2 + g4 - 1j * delta) - pa * g2 * (g1 - g3 + 1j * delta)) / den
    u1 = np.sqrt(g1) * (delta + 1j * (g2 + g4) - 1j * g2 * pa) / den
    u2 = np.sqrt(g2) * ea * (delta + 1j * g3) / den
    w1 = -1j * np.sqrt(g1) * u1
    w2 = -1j * np.sqrt(g2) * u2
    a0 = 1.0 + w1
    b0 = w2 * ea
    t2 = 1.0 + w1 + w2 / ea
    interior = {
        "M_k:1": (a0, b0),
        "N_k:1": (t3g, np.zeros_like(t3g)),
        "N_q:1": (np.zeros_like(t3s), t3s),
    }
    return SimpleNamespace(
        r1=r1, t2=t2, t3g=t3g, t4g=t3g, t3s=t3s, t4s=t4s,
        u1=u1, u2=u2, interior=interior, singular=_singular_mask(den),
    )


@_quiet
def spectator_reverse_fields(gamma1, gamma3, delta) -> SimpleNamespace:
    """Reverse amplitudes: scattering off the two-level atom alone."""
    delta = np.asarray(delta, dtype=float)
    den = gamma1 + gamma3 - 1j * delta
    t1 = -np.sqrt(gamma1 * gamma3) / den
    t3g = (gamma1 - 1j * delta) / den
    r4g = -gamma3 / den
    u1 = np.sqrt(gamma3) / (delta + 1j * (gamma1 + gamma3))
    return SimpleNamespace(
        t1=t1, t2=t1, t3g=t3g, r4g=r4g, u1=u1,
        interior={}, singular=_singular_mask(den),
    )


@_quiet
def giant_forward_fields(gamma, delta, phi1, phi2) -> SimpleNamespace:
    """Forward amplitudes for two-legged atoms with leg phases phi1 (k) and phi2 (q)."""
    g1, g2, g3, g4 = gamma
    delta = np.asarray(delta, dtype=float)
    e1 = np.exp(1j * np.asarray(phi1))
    e2 = np.exp(1j * np.asarray(phi2))
    p = 1.0 + e1
    q = 1.0 + e2
    x1 = 2.0 * p * g3 - 1j * delta
    x2 = 2.0 * q * g4 - 1j * delta
    alpha = 2.0 * (g1 + g3) * p - 1j * delta
    den = 2.0 * p * g2 * x1 + x2 * alpha
    u1 = -1j * np.sqrt(g1) * p * x2 / den
    u2 = -1j * np.sqrt(g2) * p * x1 / den
    amp_n_k = -np.sqrt(g1 * g3) * p * x2 / den
    amp_n_q = -np.sqrt(g2 * g4) * p * x1 / den
    w = -p * (g1 * x2 + g2 * x1) / den
    t3g = amp_n_k * p
    t4g = t3g / e1
    t3s = amp_n_q * q
    t4s = t3s / e2
    r1 = w * p
    t2 = 1.0 + r1 / e1
    interior = {
        "M_k:1": (1.0 + w, w * e1),
        "N_k:1": (amp_n_k, amp_n_k * e1),
        "N_q:1": (amp_n_q, amp_n_q * e2),
    }
    return SimpleNamespace(
        r1=r1, t2=t2, t3g=t3g, t4g=t4g, t3s=t3s, t4s=t4s,
        u1=u1, u2=u2, interior=interior, singular=_singular_mask(den),
    )


@_quiet
def giant_reverse_fields(gamma1, gamma3, delta, phi1) -> SimpleNamespace:
    """Reverse amplitudes: scattering off the two-legged two-level atom alone."""
    delta = np.asarray(delta, dtype=float)
    e1 = np.exp(1j * np.asarray(phi1))
    p = 1.0 + e1
    alpha = 2.0 * (gamma1 + gamma3) * p - 1j * delta
    w = -np.sqrt(gamma1 * gamma3) * p / (e1 * alpha)
    v = -gamma3 * p / (e1 * alpha)
    u1 = -1j * np.sqrt(gamma3) * p / (e1 * alpha)
    t1 = w * p
    t2 = t1 / e1
    t3g = 1.0 + v * p
    r4g = v * p / e1
    interior = {
        "M_k:1": (w, w * e1),
        "N_k:1": (v, 1.0 + v * e1),
    }
    return SimpleNamespace(
        t1=t1, t2=t2, t3g=t3g, r4g=r4g, u1=u1,
        interior=interior, singular=_singular_mask(alpha),
    )


@_quiet
def mirrored_forward_fields(gamma, delta, phi3) -> SimpleNamespace:
    """Forward amplitudes with guide M terminated a phase phi3 past the atoms."""
    g1, g2, g3, g4 = gamma
    delta = np.asarray(delta, dtype=float)
    s = 1.0 + np.exp(2j * np.asarray(phi3))
    x3 = g3 - 1j * delta
    x4 = g4 - 1j * delta
    den = x4 * (x3 + s * g1) + s * x3 * g2
    t3g = -np.sqrt(g1 * g3) * s * x4 / den
    t3s = -np.sqrt(g2 * g4) * s * x3 / den
    u1 = -1j * np.sqrt(g1) * s * x4 / den
    u2 = -1j * np.sqrt(g2) * s * x3 / den
    w = -s * (g1 * x4 + g2 * x3) / den
    a = 1.0 + w
    b = a * np.exp(2j * np.asarray(phi3))
    r1 = b + w
    interior = {
        "M_k:1": (a, b),
        "N_k:1": (t3g, np.zeros_like(t3g)),
        "N_q:1": (t3s, np.zeros_like(t3s)),
    }
    return SimpleNamespace(
        r1=r1, t2=np.zeros_like(r1), t3g=t3g, t4g=t3g, t3s=t3s, t4s=t3s,
        u1=u1, u2=u2, interior=interior, singular=_singular_mask(den),
    )


@_quiet
def mirrored_reverse_fields(gamma1, gamma3, delta, phi3) -> SimpleNamespace:
    """Reverse amplitudes off the two-level atom with guide M terminated."""
    delta = np.asarray(delta, dtype=float)
    e3 = np.exp(2j * np.asarray(phi3))
    s = 1.0 + e3
    den = gamma3 - 1j * delta + s * gamma1
    w = -np.sqrt(gamma1 * gamma3) / den
    t1 = w * s
    r4g = -gamma3 / den
    t3g = (s * gamma1 - 1j * delta) / den
    u1 = -1j * np.sqrt(gamma3) / den
    interior = {
        "M_k:1": (w, w * e3),
        "N_k:1": (r4g, np.ones_like(r4g)),
    }
    return SimpleNamespace(
        t1=t1, t2=np.zeros_like(t1), t3g=t3g, r4g=r4g, u1=u1,
        interior=interior, singular=_singular_mask(den),
    )


def components(port: int, fields) -> dict:
    """Kernel output by component name (see `core.named_components`);
    values keep the kernel's shape.

    ``port`` is the route's incident port: 1 for a forward kernel, 4 for a
    reverse one, which has no guide-N q-channel output.
    """
    f = fields
    if port == 1:
        return named_components(
            (f.r1, f.t2, f.t3g, f.t4g, f.t3s, f.t4s), f.interior, (f.u1, f.u2)
        )
    return named_components((f.t1, f.t2, f.t3g, f.r4g, 0.0, 0.0), f.interior, (f.u1,))
