"""Real-space boundary-matching solver.

Independent numerical route to the scattering amplitudes: substitute
piecewise plane waves into the stationary single-excitation equations and
solve the resulting dense complex linear system.  Works for arbitrary leg
layouts on the two guides and for an infinite or mirror-terminated guide M,
so it serves as the oracle against which the closed forms are checked.

Conventions (matching the closed forms):

* right movers carry coefficients of exp(+i kappa x), left movers of
  exp(-i kappa x), with one coefficient pair per region between breakpoints;
* integrating the stationary equations across a coupling point x_c gives the
  jump rows (natural units, v_g = 1)
      -i [c_R(x_c+) - c_R(x_c-)] + sum g u = 0
      +i [c_L(x_c+) - c_L(x_c-)] + sum g u = 0;
* atomic rows use the average field value at a coupling point,
  c(x_c) = (c(x_c+) + c(x_c-)) / 2, the regularization of the delta coupling
  that reproduces the analytic amplitudes;
* the mirror termination reflects the right mover into the left mover in
  phase: c_R(wall) = c_L(wall).  With the wall a distance L from the
  couplings this puts maximal coupling at k L = 0 and decoupling at
  k L = pi/2, matching the terminated-guide spectra.

Within one sweep the layout never changes; only the energy and each atom's
omega_1 and omega_s vary with the detuning.  `solve_batch` therefore takes a
configuration whose detuning-dependent fields are arrays over a block of
cells, and assembles and solves the whole block with one stacked numpy call
each.  A cell is marked singular exactly where `solve` of that cell alone
raises DegenerateConfigError.  Every other cell's matrix and solution are
bit-identical to that `solve`, and so is its ``ill_conditioned`` flag: one
stacked Frobenius condition number bounds every cell's 2-norm one from
above, and the exact SVD runs only on the cells that bound cannot clear
(see `_ill_conditioned`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CH_M_K,
    CH_M_Q,
    CH_N_K,
    CH_N_Q,
    GE,
    SE,
    WAVEGUIDE_M,
    DegenerateConfigError,
    ScatterAmplitudes,
    SystemConfig,
    region_label,
)

#: Condition number (2-norm, exact SVD) above which a solution is flagged.
ILL_CONDITIONED = 1e12
#: A cell whose Frobenius bound on the condition number is at most this is
#: not ill-conditioned; the bound and the SVD each err by about n*u*kappa
#: relative, so 100x under the gate leaves no cell the exact check would flag.
_SCREEN = ILL_CONDITIONED * 1e-2


@dataclass(frozen=True)
class LegRef:
    """An active coupling point as seen by one channel."""

    position: float
    coupling: float
    atom: int


@dataclass(frozen=True)
class Channel:
    """One (waveguide, wavevector-class) photon channel."""

    name: str
    waveguide: str
    kind: str  # "k" or "q"
    legs: tuple[LegRef, ...]
    terminated: bool
    n_regions: int


@dataclass(frozen=True)
class ChannelLayout:
    """Region structure shared by all channels of a configuration.

    ``breakpoints`` is the sorted set of distinct active coupling positions,
    plus the wall position when guide M is terminated.  Every channel is
    split into regions at every breakpoint (couplings absent from a channel
    contribute null jumps); a terminated channel has no region beyond the
    wall.
    """

    channels: tuple[Channel, ...]
    breakpoints: tuple[float, ...]
    wall: float | None
    active_atoms: tuple[int, ...]


@dataclass(frozen=True)
class LinearSystem:
    """Dense square system A x = b with one label per unknown.

    A block of cells stacks its matrices as ``(*cells, n, n)``; the
    right-hand side is shared.  ``_index`` is the column map `assemble`
    built, kept so that a solve need not build it again.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    labels: tuple[str, ...]
    _index: _Index | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class BlockSolution:
    """Outgoing amplitudes and flags of a block of cells.

    ``outgoing`` has one row per cell in `ScatterAmplitudes.outgoing` order,
    zero where the port does not exist.  A ``singular`` cell has no solution
    and a zero row; its ``ill_conditioned`` entry is meaningless.
    """

    outgoing: np.ndarray
    singular: np.ndarray
    ill_conditioned: np.ndarray


def build_layout(cfg: SystemConfig) -> ChannelLayout:
    """Derive the channel/region structure of a configuration.

    Zero-strength legs are dropped: a channel that nothing couples to would
    otherwise contribute spurious singular blocks, and its amplitudes are
    exactly zero by inspection.
    """
    active = [l for l in cfg.legs if l.gamma > 0.0]
    positions = sorted({l.position for l in active})
    if cfg.wall is not None:
        positions.append(cfg.wall)
    breakpoints = tuple(positions)

    def legs_for(waveguide: str, transition: str) -> tuple[LegRef, ...]:
        return tuple(
            LegRef(l.position, l.coupling, l.atom)
            for l in active
            if l.waveguide == waveguide and l.transition == transition
        )

    channels = []
    for waveguide in ("M", "N"):
        terminated = cfg.wall is not None and waveguide == WAVEGUIDE_M
        n_regions = len(breakpoints) if terminated else len(breakpoints) + 1
        ge_legs = legs_for(waveguide, GE)
        se_legs = legs_for(waveguide, SE)
        k_name = CH_M_K if waveguide == WAVEGUIDE_M else CH_N_K
        channels.append(Channel(k_name, waveguide, "k", ge_legs, terminated, n_regions))
        if se_legs:
            q_name = CH_M_Q if waveguide == WAVEGUIDE_M else CH_N_Q
            channels.append(
                Channel(q_name, waveguide, "q", se_legs, terminated, n_regions)
            )

    active_atoms = tuple(sorted({l.atom for l in active}))
    return ChannelLayout(tuple(channels), breakpoints, cfg.wall, active_atoms)


class _Index:
    """Column bookkeeping: (channel, region, mover) and atom unknowns."""

    def __init__(self, layout: ChannelLayout) -> None:
        self.offsets: dict[str, int] = {}
        labels: list[str] = []
        col = 0
        for ch in layout.channels:
            self.offsets[ch.name] = col
            for r in range(ch.n_regions):
                labels.append(f"{region_label(ch.name, r)}:R")
                labels.append(f"{region_label(ch.name, r)}:L")
            col += 2 * ch.n_regions
        self.atom_cols: dict[int, int] = {}
        for atom in layout.active_atoms:
            self.atom_cols[atom] = col
            labels.append(f"u_e{atom + 1}")
            col += 1
        self.size = col
        self.labels = tuple(labels)

    def right(self, channel: str, r: int) -> int:
        return self.offsets[channel] + 2 * r

    def left(self, channel: str, r: int) -> int:
        return self.offsets[channel] + 2 * r + 1


def _wavevector(cfg: SystemConfig, energy: float, kind: str) -> float:
    if kind == "k":
        return energy
    return energy - cfg.omega_s


def assemble(layout: ChannelLayout, cfg: SystemConfig, energy) -> LinearSystem:
    """Build the dense linear system at eigenstate energy E.

    Rows: two jump conditions per channel per breakpoint, one mirror row per
    terminated channel, one row per atomic amplitude, and the boundary rows
    fixing the incoming coefficient of every channel end (the incident
    amplitude on the entry side, zero elsewhere).

    ``energy`` may be an array of cells, with which each atom's omega_1 and
    omega_s broadcast; the matrix then has shape ``(*cells, n, n)``.
    """
    idx = _Index(layout)
    n = idx.size
    cells = getattr(energy, "shape", ())
    stack = np.zeros(cells + (n, n), dtype=complex)
    # matrix[r, c] is one entry, or that entry over all cells through a view
    # of the contiguous stack; a single cell keeps plain 2-D indexing cost.
    matrix = np.moveaxis(stack, (-2, -1), (0, 1)) if cells else stack
    rhs = np.zeros(n, dtype=complex)
    inc = cfg.incident
    row = 0

    for ch in layout.channels:
        kappa = _wavevector(cfg, energy, ch.kind)
        incident_here = ch.kind == "k" and ch.waveguide == inc.waveguide
        last = ch.n_regions - 1

        # Incoming-coefficient boundary rows.
        matrix[row, idx.right(ch.name, 0)] = 1.0
        if incident_here and inc.from_left:
            rhs[row] = inc.amplitude
        row += 1
        if ch.terminated:
            wall = layout.wall
            matrix[row, idx.right(ch.name, last)] = np.exp(1j * kappa * wall)
            matrix[row, idx.left(ch.name, last)] = -np.exp(-1j * kappa * wall)
            row += 1
        else:
            matrix[row, idx.left(ch.name, last)] = 1.0
            if incident_here and not inc.from_left:
                rhs[row] = inc.amplitude
            row += 1

        # Jump rows at each breakpoint interior to the channel.
        n_jumps = ch.n_regions - 1
        for j in range(n_jumps):
            x_c = layout.breakpoints[j]
            phase = np.exp(1j * kappa * x_c)
            couplings = [leg for leg in ch.legs if leg.position == x_c]
            matrix[row, idx.right(ch.name, j + 1)] = -1j * phase
            matrix[row, idx.right(ch.name, j)] = 1j * phase
            for leg in couplings:
                matrix[row, idx.atom_cols[leg.atom]] += leg.coupling
            row += 1
            matrix[row, idx.left(ch.name, j + 1)] = 1j / phase
            matrix[row, idx.left(ch.name, j)] = -1j / phase
            for leg in couplings:
                matrix[row, idx.atom_cols[leg.atom]] += leg.coupling
            row += 1

    # Atomic rows: (E - omega_1) u = sum_legs g * average field at the leg.
    for atom in layout.active_atoms:
        matrix[row, idx.atom_cols[atom]] = energy - cfg.atoms[atom].omega_1
        for ch in layout.channels:
            kappa = _wavevector(cfg, energy, ch.kind)
            for leg in ch.legs:
                if leg.atom != atom:
                    continue
                j = layout.breakpoints.index(leg.position)
                phase = np.exp(1j * kappa * leg.position)
                half_g = 0.5 * leg.coupling
                matrix[row, idx.right(ch.name, j)] += -half_g * phase
                matrix[row, idx.right(ch.name, j + 1)] += -half_g * phase
                matrix[row, idx.left(ch.name, j)] += -half_g / phase
                matrix[row, idx.left(ch.name, j + 1)] += -half_g / phase
        row += 1

    assert row == n, "system must be square"
    return LinearSystem(stack, rhs, idx.labels, idx)


def _outgoing_columns(layout: ChannelLayout, idx: _Index) -> tuple[int | None, ...]:
    """Unknown of each outgoing port in `ScatterAmplitudes.outgoing` order.

    None marks a port with no channel, or the right end of a terminated one.
    """
    columns: list[int | None] = []
    for name in (CH_M_K, CH_N_K, CH_N_Q):
        ch = next((c for c in layout.channels if c.name == name), None)
        if ch is None:
            columns += [None, None]
        else:
            last = ch.n_regions - 1
            columns += [
                idx.left(name, 0),
                None if ch.terminated else idx.right(name, last),
            ]
    return tuple(columns)


def _extract(
    layout: ChannelLayout, idx: _Index, x: np.ndarray, cfg: SystemConfig, flags: tuple
) -> ScatterAmplitudes:
    m_left, m_right, n_left_k, n_right_k, n_left_q, n_right_q = (
        0.0j if col is None else complex(x[col]) for col in _outgoing_columns(layout, idx)
    )

    interior: dict[str, tuple[complex, complex]] = {}
    for ch in layout.channels:
        stop = ch.n_regions if ch.terminated else ch.n_regions - 1
        for r in range(1, stop):
            interior[region_label(ch.name, r)] = (
                complex(x[idx.right(ch.name, r)]),
                complex(x[idx.left(ch.name, r)]),
            )

    excited = tuple(
        complex(x[idx.atom_cols[a]]) if a in idx.atom_cols else 0.0j
        for a in range(len(cfg.atoms))
    )
    return ScatterAmplitudes(
        incident_port=cfg.incident.port,
        m_left=m_left,
        m_right=m_right,
        n_left_k=n_left_k,
        n_right_k=n_right_k,
        n_left_q=n_left_q,
        n_right_q=n_right_q,
        interior=interior,
        excited=excited,
        flags=flags,
    )


def _ill_conditioned(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.cond(matrix) > ILL_CONDITIONED`` for one matrix or a stack.

    ``cond(A, "fro")`` = ``||A||_F * ||A^-1||_F`` takes one stacked inverse
    and is never below the 2-norm condition number, so a cell at most
    `_SCREEN` is cleared without an SVD.  Every other cell gets the exact
    check, including a singular one, whose Frobenius value is inf; `cond`
    treats each matrix of a stack on its own, so checking a subset gives the
    values the full stack would.
    """
    unsure = ~(np.linalg.cond(matrix, "fro") <= _SCREEN)
    flags = np.zeros(np.shape(unsure), dtype=bool)
    if unsure.any():
        flags[unsure] = np.linalg.cond(matrix[unsure]) > ILL_CONDITIONED
    return flags


def solve(cfg: SystemConfig) -> ScatterAmplitudes:
    """Solve one configuration and return the full amplitude set.

    Raises DegenerateConfigError when the system is exactly singular or its
    solution is not finite (an underflowed pivot, as with a subnormal decay
    rate at resonance); an ill-conditioned (but solvable) system is returned
    with an ``"ill_conditioned"`` flag attached.
    """
    layout = build_layout(cfg)
    system = assemble(layout, cfg, cfg.energy)
    try:
        x = np.linalg.solve(system.matrix, system.rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateConfigError(f"singular scattering system: {exc}") from exc
    if not np.isfinite(x).all():
        raise DegenerateConfigError("singular scattering system: non-finite solution")
    flags: tuple[str, ...] = ()
    if _ill_conditioned(system.matrix):
        flags = ("ill_conditioned",)
    return _extract(layout, system._index, x, cfg, flags)


def solve_batch(cfg: SystemConfig) -> BlockSolution:
    """Solve a 1-D block of cells that share one layout.

    The detuning and each atom's omega_1 and omega_s in ``cfg`` are arrays
    over the block (the `configs` builders make them from array detunings
    and phases).  One stacked solve covers the block; if any cell is exactly
    singular, the cells are solved one by one and only those that fail are
    marked singular.  A cell whose solution is not finite is marked singular
    too, as `solve` raises on it.
    """
    if np.ndim(cfg.energy) != 1:
        raise ValueError("solve_batch needs a 1-D block of cells")
    layout = build_layout(cfg)
    system = assemble(layout, cfg, cfg.energy)
    matrix = system.matrix
    singular = np.zeros(len(matrix), dtype=bool)
    # A 3-D right-hand side is a stack of one-column matrices under every
    # numpy version; a 1-D one means a vector only from numpy 2.0 on.
    rhs = np.broadcast_to(system.rhs[:, None], matrix.shape[:-1] + (1,))
    try:
        x = np.linalg.solve(matrix, rhs)[..., 0]
    except np.linalg.LinAlgError:
        x = np.zeros(matrix.shape[:2], dtype=complex)
        for k, cell in enumerate(matrix):
            try:
                x[k] = np.linalg.solve(cell, system.rhs)
            except np.linalg.LinAlgError:
                singular[k] = True
    # A solution that is not finite (an underflowed pivot, as with a
    # subnormal decay rate at resonance) is as good as singular.
    unresolved = ~np.isfinite(x).all(axis=-1)
    if unresolved.any():
        singular |= unresolved
        x[unresolved] = 0.0
    ill_conditioned = _ill_conditioned(matrix)
    outgoing = np.zeros((len(matrix), 6), dtype=complex)
    for port, col in enumerate(_outgoing_columns(layout, system._index)):
        if col is not None:
            outgoing[:, port] = x[:, col]
    return BlockSolution(outgoing, singular, ill_conditioned)
