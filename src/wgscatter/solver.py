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

`build_layout` fixes the unknowns once: each channel's regions, their
right- and left-mover columns and each active atom's column, all read from
the `ChannelLayout`.  A block of cells that share one layout is solved at
once: `solve_batch` takes a configuration whose energy, each atom's omega_1
and omega_s, and each leg's gamma may be arrays over the block, and
assembles and solves the whole block with one stacked numpy call each.  The
cells must share one active-leg pattern (which legs have gamma > 0), since
that fixes the layout.  `solve` is the block of one cell: it raises
DegenerateConfigError where `solve_batch` marks that cell singular.  Every
cell's matrix is bit-identical to the one its own configuration assembles,
and its solution to a plain `np.linalg.solve` of that matrix, whatever the
block around it; so is its ``ill_conditioned`` flag: one stacked Frobenius
condition number bounds every cell's 2-norm one from above, and the exact
SVD runs only on the cells that bound cannot clear (see `_ill_conditioned`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

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
    _holds,
    named_components,
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
    """Region structure and column map shared by all channels of a configuration.

    ``breakpoints`` is the sorted set of distinct active coupling positions,
    plus the wall position when guide M is terminated.  Every channel is
    split into regions at every breakpoint (couplings absent from a channel
    contribute null jumps); a terminated channel has no region beyond the
    wall.

    The unknowns are each channel's region coefficients, channel by channel
    from column ``offsets[name]`` with a region's right mover before its
    left one (`right`, `left`), then one excited amplitude per active atom,
    in the column ``atom_columns[atom]``.  ``labels`` names every column
    (such as ``"M_k:1:R"`` or ``"u_e2"``), ``interior`` names the regions
    that `ScatterAmplitudes.interior` reports, and ``atoms`` is the
    configuration's atom count, active or not.
    """

    channels: tuple[Channel, ...]
    breakpoints: tuple[float, ...]
    wall: float | None
    labels: tuple[str, ...]
    interior: tuple[str, ...]
    offsets: Mapping[str, int]
    atom_columns: Mapping[int, int]
    atoms: int

    def right(self, channel: str, r: int) -> int:
        """Column of the right mover of ``channel``'s region ``r``."""
        return self.offsets[channel] + 2 * r

    def left(self, channel: str, r: int) -> int:
        """Column of the left mover of ``channel``'s region ``r``."""
        return self.offsets[channel] + 2 * r + 1


@dataclass(frozen=True)
class LinearSystem:
    """Dense square system A x = b with one label per unknown.

    A block of cells stacks its matrices as ``(*cells, n, n)``; the
    right-hand side is shared.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    labels: tuple[str, ...]


@dataclass(frozen=True)
class BlockSolution:
    """Solution and flags of a block of cells.

    ``outgoing`` has one row per cell in `ScatterAmplitudes.outgoing` order,
    zero where the port does not exist.  ``x`` is the full solution, one
    row per cell with its columns as ``layout`` maps them.  A ``singular``
    cell has no solution and zero rows; its ``ill_conditioned`` entry is
    meaningless.  ``ill_conditioned`` is None when the solve was not asked
    to check.
    """

    outgoing: np.ndarray
    singular: np.ndarray
    ill_conditioned: np.ndarray | None
    x: np.ndarray
    layout: ChannelLayout

    def components(self) -> dict:
        """The solution by component name (see `core.named_components`),
        one value per cell.  An atom with no active leg gets 0."""
        column = {label: k for k, label in enumerate(self.layout.labels)}
        pairs = {
            label: (self.x[:, column[f"{label}:R"]], self.x[:, column[f"{label}:L"]])
            for label in self.layout.interior
        }
        inactive = np.zeros(len(self.x), dtype=complex)
        excited = [
            self.x[:, self.layout.atom_columns[atom]]
            if atom in self.layout.atom_columns
            else inactive
            for atom in range(self.layout.atoms)
        ]
        return named_components(np.moveaxis(self.outgoing, -1, 0), pairs, excited)


def build_layout(cfg: SystemConfig) -> ChannelLayout:
    """Derive the channel/region structure and column map of a configuration.

    Zero-strength legs are dropped: a channel that nothing couples to would
    otherwise contribute spurious singular blocks, and its amplitudes are
    exactly zero by inspection.  A leg with an array rate must be active in
    every cell of the block or in none.
    """
    active = [l for l in cfg.legs if _active(l.gamma)]
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

    labels: list[str] = []
    offsets = {}
    for ch in channels:
        offsets[ch.name] = len(labels)
        labels += [f"{ch.name}:{r}:{mover}" for r in range(ch.n_regions) for mover in "RL"]
    atom_columns = {}
    for atom in sorted({l.atom for l in active}):
        atom_columns[atom] = len(labels)
        labels.append(f"u_e{atom + 1}")
    # Regions between coupling points, and before the wall, by channel.
    interior = tuple(
        f"{ch.name}:{r}"
        for ch in channels
        for r in range(1, ch.n_regions if ch.terminated else ch.n_regions - 1)
    )
    return ChannelLayout(
        tuple(channels), breakpoints, cfg.wall, tuple(labels), interior,
        offsets, atom_columns, len(cfg.atoms),
    )


def _active(gamma) -> bool:
    """Whether a leg couples: gamma > 0 in every cell, or in none."""
    positive = gamma > 0.0
    if _holds(positive):
        return True
    if np.any(positive):
        raise ValueError("the cells of a block must share one active-leg pattern")
    return False


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
    n = len(layout.labels)
    cells = getattr(energy, "shape", ())
    stack = np.zeros(cells + (n, n), dtype=complex)
    # matrix[r, c] is that entry over all cells, through a view of the
    # contiguous stack (the stack itself for a single cell).
    matrix = np.moveaxis(stack, (-2, -1), (0, 1))
    rhs = np.zeros(n, dtype=complex)
    inc = cfg.incident
    row = 0

    for ch in layout.channels:
        kappa = _wavevector(cfg, energy, ch.kind)
        incident_here = ch.kind == "k" and ch.waveguide == inc.waveguide
        last = ch.n_regions - 1

        # Incoming-coefficient boundary rows.
        matrix[row, layout.right(ch.name, 0)] = 1.0
        if incident_here and inc.from_left:
            rhs[row] = inc.amplitude
        row += 1
        if ch.terminated:
            wall = layout.wall
            matrix[row, layout.right(ch.name, last)] = np.exp(1j * kappa * wall)
            matrix[row, layout.left(ch.name, last)] = -np.exp(-1j * kappa * wall)
            row += 1
        else:
            matrix[row, layout.left(ch.name, last)] = 1.0
            if incident_here and not inc.from_left:
                rhs[row] = inc.amplitude
            row += 1

        # Jump rows at each breakpoint interior to the channel.
        n_jumps = ch.n_regions - 1
        for j in range(n_jumps):
            x_c = layout.breakpoints[j]
            phase = np.exp(1j * kappa * x_c)
            couplings = [leg for leg in ch.legs if leg.position == x_c]
            matrix[row, layout.right(ch.name, j + 1)] = -1j * phase
            matrix[row, layout.right(ch.name, j)] = 1j * phase
            for leg in couplings:
                matrix[row, layout.atom_columns[leg.atom]] += leg.coupling
            row += 1
            matrix[row, layout.left(ch.name, j + 1)] = 1j / phase
            matrix[row, layout.left(ch.name, j)] = -1j / phase
            for leg in couplings:
                matrix[row, layout.atom_columns[leg.atom]] += leg.coupling
            row += 1

    # Atomic rows: (E - omega_1) u = sum_legs g * average field at the leg.
    for atom, column in layout.atom_columns.items():
        matrix[row, column] = energy - cfg.atoms[atom].omega_1
        for ch in layout.channels:
            kappa = _wavevector(cfg, energy, ch.kind)
            for leg in ch.legs:
                if leg.atom != atom:
                    continue
                j = layout.breakpoints.index(leg.position)
                phase = np.exp(1j * kappa * leg.position)
                half_g = 0.5 * leg.coupling
                matrix[row, layout.right(ch.name, j)] += -half_g * phase
                matrix[row, layout.right(ch.name, j + 1)] += -half_g * phase
                matrix[row, layout.left(ch.name, j)] += -half_g / phase
                matrix[row, layout.left(ch.name, j + 1)] += -half_g / phase
        row += 1

    assert row == n, "system must be square"
    return LinearSystem(stack, rhs, layout.labels)


def _outgoing(layout: ChannelLayout, x: np.ndarray) -> np.ndarray:
    """Port values of one solution or a block, in `ScatterAmplitudes.outgoing`
    order on the last axis.

    A port with no channel, or the right end of a terminated one, is 0.
    """
    outgoing = np.zeros(x.shape[:-1] + (6,), dtype=complex)
    for pair, name in enumerate((CH_M_K, CH_N_K, CH_N_Q)):
        ch = next((c for c in layout.channels if c.name == name), None)
        if ch is None:
            continue
        outgoing[..., 2 * pair] = x[..., layout.left(name, 0)]
        if not ch.terminated:
            outgoing[..., 2 * pair + 1] = x[..., layout.right(name, ch.n_regions - 1)]
    return outgoing


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

    The configuration is solved as a `solve_batch` block of one cell.
    Raises DegenerateConfigError where that block marks the cell singular:
    the system is exactly singular or its solution is not finite (an
    underflowed pivot, as with a subnormal decay rate at resonance).  An
    ill-conditioned (but solvable) system is returned with an
    ``"ill_conditioned"`` flag attached.
    """
    cell = replace(cfg, incident=replace(cfg.incident, delta=np.array([cfg.incident.delta])))
    sol = solve_batch(cell)
    if sol.singular[0]:
        raise DegenerateConfigError(
            "singular scattering system: exactly singular or a non-finite solution"
        )
    flags = ("ill_conditioned",) if sol.ill_conditioned[0] else ()
    items = {key: value[0] for key, value in sol.components().items()}
    return ScatterAmplitudes.from_components(cfg.incident.port, items, flags)


def solve_batch(cfg: SystemConfig, *, check_conditioning: bool = True) -> BlockSolution:
    """Solve a 1-D block of cells that share one layout.

    The detuning and each atom's omega_1 and omega_s in ``cfg`` are arrays
    over the block, and so may be each leg's gamma (the `configs` builders
    make them from array rates, detunings and phases).  One stacked solve
    covers the block; if any cell is exactly singular, the cells are solved
    one by one and only those that fail are marked singular.  A cell whose
    solution is not finite is marked singular too.
    ``check_conditioning=False`` skips the condition check, whose stacked
    inverse holds as much memory again as the block's matrices, and leaves
    ``ill_conditioned`` None.  Only the `solver` engine of a sweep checks;
    `validate`, the `both` engine and `search`'s re-verification read no
    flag and skip it.
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
    ill_conditioned = _ill_conditioned(matrix) if check_conditioning else None
    return BlockSolution(_outgoing(layout, x), singular, ill_conditioned, x, layout)
