"""Domain types, unit conventions, and derived-rate arithmetic.

Physical picture: two parallel one-dimensional waveguides, a lower "bus"
guide M and an upper "drop" guide N, are bridged by a two-level atom and a
lambda-type atom.  A single photon injected into one guide is reflected,
transmitted, or transferred to the other guide; transfer through the lambda
atom's s-e transition converts the wavevector from k to q and leaves that
atom in its second ground state.

Unit conventions used throughout the package:

* natural units with group velocity v_g = 1;
* energies (detunings, decay rates) in units of a reference decay rate;
* lengths in units of v_g divided by the reference rate;
* the photon's wavevector k equals its energy E (v_g = 1), and its detuning
  ``delta`` from the atoms' shared e-level is given on its own, so no level
  energy is stored and no phase is derived from one.

Port numbering: 1 = guide M left end, 2 = guide M right end, 3 = guide N
left end, 4 = guide N right end.  A unit-amplitude photon enters at port 1
("forward" scattering) or at port 4 ("reverse"); ports 2 and 3 are outputs
only.  Conversion legs (s-e transition) couple to guide N only.

Every type in this module is an immutable value and every operation is a
pure function, so everything here is safe to use from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

TWO_LEVEL = "two_level"
LAMBDA = "lambda"

MARKOVIAN = "markovian"
NON_MARKOVIAN = "non_markovian"

WAVEGUIDE_M = "M"
WAVEGUIDE_N = "N"

GE = "ge"  # ground <-> excited transition (elastic, wavevector class k)
SE = "se"  # second ground <-> excited transition (inelastic, class q)

CH_M_K = "M_k"
CH_N_K = "N_k"
CH_N_Q = "N_q"

#: Singularity guard for closed-form denominators, in units of the reference
#: rate squared.
DENOMINATOR_FLOOR = 1e-14


class ConfigError(ValueError):
    """A system or sweep description violates its invariants."""


class SingularityError(ValueError):
    """A closed-form denominator vanished at the requested parameters."""


class DegenerateConfigError(RuntimeError):
    """The boundary-matching linear system is exactly singular."""


class InvalidAmplitudeError(ValueError):
    """An amplitude set contains non-finite entries."""


class NoFeasiblePointError(RuntimeError):
    """A parameter search found no point satisfying the constraints."""


class VerificationError(RuntimeError):
    """A search optimum's solver rates differ from its closed-form rates."""


def _holds(condition) -> bool:
    """True when a comparison holds for every element.

    A plain bool, the result for a float, skips numpy's per-call cost.
    """
    if condition is True or condition is False:
        return condition
    return bool(np.all(condition))


def _finite(value) -> bool:
    """True when a scalar or every element of an array is finite."""
    return _holds(abs(value) < math.inf)


@dataclass(frozen=True)
class CouplingLeg:
    """A single delta-coupling point between one atomic transition and one guide.

    ``gamma`` may be an array, one rate per cell of a solver block.
    """

    atom: int
    waveguide: str
    transition: str
    position: float
    gamma: float

    def __post_init__(self) -> None:
        if self.waveguide not in (WAVEGUIDE_M, WAVEGUIDE_N):
            raise ConfigError(f"unknown waveguide {self.waveguide!r}")
        if self.transition not in (GE, SE):
            raise ConfigError(f"unknown transition {self.transition!r}")
        if not math.isfinite(self.position):
            raise ConfigError("leg position must be finite")
        if not (_holds(self.gamma >= 0) and _finite(self.gamma)):
            raise ConfigError("leg decay rate must be finite and non-negative")

    @property
    def coupling(self):
        """Coupling strength g = sqrt(gamma).

        np.sqrt and math.sqrt are both correctly rounded, so a cell of an
        array rate gets the bits its scalar rate would.
        """
        if isinstance(self.gamma, np.ndarray):
            return np.sqrt(self.gamma)
        return math.sqrt(self.gamma)


@dataclass(frozen=True)
class SystemConfig:
    """Full physical description of one scattering problem.

    ``atoms`` lists each bridge atom's kind, `TWO_LEVEL` or `LAMBDA`, with
    at most one lambda atom.  A unit-amplitude photon enters at ``port`` 1
    (guide M, from the left) or 4 (guide N, from the right) with
    wavevector ``k`` (its energy, since v_g = 1) and detuning ``delta``
    from the atoms' shared e-level.  ``q`` is the wavevector of a photon
    converted by the lambda atom's s-e transition; only an N_q channel reads
    it.  ``wall`` is the coordinate of a terminating mirror on guide M;
    ``None`` means both guides are infinite.

    ``k`` and ``q`` may be any finite values, in either order: each enters
    only through e^{i kappa x} at the breakpoints, which the `configs`
    builders put at unit spacing, so k and q are the phases the closed
    forms take, and q needs no sign rule.

    ``delta``, ``k``, ``q`` and each leg's gamma may be arrays, one value
    per cell of a block that the solver assembles and solves at once.
    """

    atoms: tuple[str, ...]
    legs: tuple[CouplingLeg, ...]
    port: int
    delta: float = 0.0
    k: float = 0.0
    q: float = 0.0
    wall: float | None = None

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ConfigError("at least one atom is required")
        for kind in self.atoms:
            if kind not in (TWO_LEVEL, LAMBDA):
                raise ConfigError(f"unknown atom kind {kind!r}")
        if self.atoms.count(LAMBDA) > 1:
            raise ConfigError("at most one lambda atom is supported")
        if self.port not in (1, 4):
            raise ConfigError(f"incident port must be 1 or 4, got {self.port}")
        if not _finite(self.delta):
            raise ConfigError("detuning must be finite")
        if not (_finite(self.k) and _finite(self.q)):
            raise ConfigError("wavevectors k and q must be finite")
        referenced: set[int] = set()
        seen: set[tuple[int, str, str, float]] = set()
        for leg in self.legs:
            if not 0 <= leg.atom < len(self.atoms):
                raise ConfigError(f"leg references unknown atom index {leg.atom}")
            if leg.transition == SE and self.atoms[leg.atom] != LAMBDA:
                raise ConfigError("s-e legs are only valid for lambda atoms")
            if leg.transition == SE and leg.waveguide != WAVEGUIDE_N:
                raise ConfigError("s-e legs couple to guide N only")
            key = (leg.atom, leg.transition, leg.waveguide, leg.position)
            if key in seen:
                raise ConfigError(
                    f"duplicate leg: atom {leg.atom} {leg.transition} on "
                    f"{leg.waveguide} at x={leg.position}"
                )
            seen.add(key)
            referenced.add(leg.atom)
        for idx in range(len(self.atoms)):
            if idx not in referenced:
                raise ConfigError(f"atom {idx} has no coupling leg")
        if self.wall is not None:
            if not math.isfinite(self.wall):
                raise ConfigError("the wall position must be finite")
            m_positions = [l.position for l in self.legs if l.waveguide == WAVEGUIDE_M]
            if m_positions and self.wall <= max(m_positions):
                raise ConfigError("the wall must sit strictly beyond all guide-M legs")


#: Outgoing ports in `ScatterAmplitudes.outgoing` order, named as its fields.
PORTS = ("m_left", "m_right", "n_left_k", "n_right_k", "n_left_q", "n_right_q")


def named_components(outgoing, interior: Mapping, excited) -> dict:
    """Amplitudes by name: the `PORTS`, then ``"<region>:R"`` and ``":L"``
    for each interior region, then ``"u_e<atom>"`` counting atoms from 1.

    The one naming of amplitude components that both engines' maps and
    `ScatterAmplitudes.components` share; values may have any shape.
    """
    items = dict(zip(PORTS, outgoing))
    for label, (right, left) in interior.items():
        items[f"{label}:R"] = right
        items[f"{label}:L"] = left
    for atom, u in enumerate(excited, 1):
        items[f"u_e{atom}"] = u
    return items


@dataclass(frozen=True, eq=True)
class ScatterAmplitudes:
    """Complete amplitude set for one scattering solution.

    Outgoing coefficients multiply plane waves exp(+i kappa x) (right movers)
    or exp(-i kappa x) (left movers) in the outermost regions; ``interior``
    maps region labels to (right-mover, left-mover) coefficient pairs for the
    regions between coupling points; ``excited`` holds one excited-state
    amplitude per atom.  For forward incidence the fields are the usual
    (r1, t2, t3g, t4g, t3s, t4s); for reverse incidence ``m_left``/``m_right``
    are the transfer coefficients into guide M and ``n_right_k`` is the
    reflection back into the entry port.
    """

    incident_port: int
    m_left: complex
    m_right: complex
    n_left_k: complex
    n_right_k: complex
    n_left_q: complex
    n_right_q: complex
    interior: Mapping[str, tuple[complex, complex]] = field(default_factory=dict)
    excited: tuple[complex, ...] = ()
    flags: tuple[str, ...] = ()

    def outgoing(self) -> tuple[complex, ...]:
        return tuple(getattr(self, name) for name in PORTS)

    def components(self) -> dict[str, complex]:
        """Every amplitude by name, as `named_components` keys them."""
        return named_components(self.outgoing(), self.interior, self.excited)

    @classmethod
    def from_components(cls, port: int, items: Mapping, flags=()) -> ScatterAmplitudes:
        """Inverse of `components`.  Values may be Python or 0-d numpy
        numbers; each becomes a complex."""
        values = {key: complex(value) for key, value in items.items()}
        interior = {
            key[:-2]: (value, values[key[:-2] + ":L"])
            for key, value in values.items()
            if key.endswith(":R")
        }
        excited = tuple(value for key, value in values.items() if key.startswith("u_e"))
        return cls(port, *(values[name] for name in PORTS), interior, excited, tuple(flags))


@dataclass(frozen=True)
class TransferRates:
    """Real observables derived from amplitude sets.

    ``t_ng``/``t_ns`` are the elastic/inelastic transfer rates into guide N
    under forward incidence, ``t_m_rev`` the total transfer into guide M
    under reverse incidence, ``r_m = |r1|^2`` and ``t2 = |t2|^2`` the guide-M
    reflection and transmission probabilities, and ``eta`` the converted
    fraction of the guide-N output.
    """

    t_ng: float = 0.0
    t_ns: float = 0.0
    t_m_rev: float = 0.0
    r_m: float = 0.0
    t2: float = 0.0
    eta: float = 0.0
    conservation_residual: float = 0.0
    flags: tuple[str, ...] = ()

    def as_row(self) -> tuple[float, ...]:
        return (
            self.t_ng,
            self.t_ns,
            self.t_m_rev,
            self.r_m,
            self.t2,
            self.eta,
            self.conservation_residual,
        )


#: Phase constants of a PhaseModel, in the order configs and CSV metadata
#: list them.
PHASE_NAMES = ("phi_a", "phi_b", "phi1_prime", "phi2_prime", "phi3")


@dataclass(frozen=True)
class PhaseModel:
    """How the interference phases depend on detuning.

    In the Markovian regime the propagation time ``tau`` between coupling
    points is negligible and each phase equals its constant part.  In the
    non-Markovian regime each phase acquires the detuning-dependent part
    tau * delta.
    """

    regime: str = MARKOVIAN
    tau: float = 0.0
    phi1_prime: float = 0.0
    phi2_prime: float = 0.0
    phi3: float = 0.0
    phi_a: float = 0.0
    phi_b: float = 0.0

    def __post_init__(self) -> None:
        if self.regime not in (MARKOVIAN, NON_MARKOVIAN):
            raise ConfigError(f"unknown regime {self.regime!r}")
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ConfigError("tau must be finite and non-negative")
        for name in PHASE_NAMES:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")


def resolved_phase(pm: PhaseModel, name: str, delta):
    """Detuning-resolved value of the phase constant ``name``.

    ``delta`` may be a scalar or an ndarray; the result broadcasts with it.
    """
    base = getattr(pm, name)
    if pm.regime == MARKOVIAN:
        return base if np.ndim(delta) == 0 else np.full(np.shape(delta), base)
    shift = pm.tau * np.asarray(delta)
    return base + (float(shift) if np.ndim(delta) == 0 else shift)


def _check_finite(amps: ScatterAmplitudes) -> None:
    values = list(amps.outgoing()) + list(amps.excited)
    for pair in amps.interior.values():
        values.extend(pair)
    for z in values:
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise InvalidAmplitudeError(f"non-finite amplitude in {amps!r}")


def rates_from_amplitudes(amps: ScatterAmplitudes) -> TransferRates:
    """Derive transfer rates from one amplitude set.

    Forward (port-1) incidence fills t_ng, t_ns, r_m, t2 and eta; reverse
    (port-4) incidence fills t_m_rev.  The conservation residual is
    |sum of outgoing probabilities - 1|, the unit incident flux.
    """
    _check_finite(amps)
    probs = [abs(z) ** 2 for z in amps.outgoing()]
    p_m_left, p_m_right, p_nl_k, p_nr_k, p_nl_q, p_nr_q = probs
    residual = abs(sum(probs) - 1.0)
    flags = tuple(amps.flags)
    if amps.incident_port == 1:
        t_ng = p_nl_k + p_nr_k
        t_ns = p_nl_q + p_nr_q
        total_n = t_ng + t_ns
        if total_n == 0.0:
            eta = 0.0
            flags = flags + ("eta_undefined",)
        else:
            eta = t_ns / total_n
        return TransferRates(
            t_ng=t_ng,
            t_ns=t_ns,
            t_m_rev=0.0,
            r_m=p_m_left,
            t2=p_m_right,
            eta=eta,
            conservation_residual=residual,
            flags=flags,
        )
    return TransferRates(
        t_m_rev=p_m_left + p_m_right,
        conservation_residual=residual,
        flags=flags,
    )


def port_probabilities(items: Mapping):
    """|z|^2 of each of the `PORTS` of a component map, elementwise and
    bit-identical to Python's ``abs(z) ** 2``: np.hypot and
    float_power(p, 2.0) compute what abs(complex) and float ** 2 do."""
    return [np.float_power(np.hypot(items[p].real, items[p].imag), 2.0) for p in PORTS]


def flux_residual(probs):
    """|sum of outgoing probabilities - 1|, summed in port order."""
    return np.abs(sum(probs) - 1.0)


def rates_from_outgoing(forward: Mapping, reverse: Mapping):
    """`combine_directions` of `rates_from_amplitudes` over a block: the
    solver's twin of `sweep.rates_from_fields`.

    ``forward`` and ``reverse`` are the port-1 and port-4 component maps
    (see `named_components`), each value an array with one entry per cell;
    only the `PORTS` are read.  Returns the `TransferRates.as_row` values
    as a (7, cells) array and the mask of cells where eta is undefined.
    Each value is bit-identical to the scalar functions':
    `port_probabilities` gives their probabilities, and they are summed in
    the same order.
    """
    fwd = port_probabilities(forward)
    rev = port_probabilities(reverse)
    p_m_left, p_m_right, p_nl_k, p_nr_k, p_nl_q, p_nr_q = fwd
    rows = np.zeros((7, len(p_m_left)))
    rows[0] = p_nl_k + p_nr_k
    rows[1] = p_nl_q + p_nr_q
    rows[2] = rev[0] + rev[1]
    rows[3] = p_m_left
    rows[4] = p_m_right
    total_n = rows[0] + rows[1]
    eta_undefined = total_n == 0.0
    np.divide(rows[1], total_n, out=rows[5], where=~eta_undefined)
    rows[6] = np.maximum(flux_residual(fwd), flux_residual(rev))
    return rows, eta_undefined


def combine_directions(forward: TransferRates, reverse: TransferRates) -> TransferRates:
    """Merge a forward-incidence and a reverse-incidence rate set."""
    return TransferRates(
        t_ng=forward.t_ng,
        t_ns=forward.t_ns,
        t_m_rev=reverse.t_m_rev,
        r_m=forward.r_m,
        t2=forward.t2,
        eta=forward.eta,
        conservation_residual=max(
            forward.conservation_residual, reverse.conservation_residual
        ),
        flags=tuple(dict.fromkeys(forward.flags + reverse.flags)),
    )
