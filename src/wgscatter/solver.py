"""Real-space boundary-matching solver.

Independent numerical route to the scattering amplitudes: substitute
piecewise plane waves into the stationary single-excitation equations and
solve the resulting dense complex linear system.  It takes every layout
`SystemConfig` accepts (g-e legs on either guide, s-e legs on guide N, an
infinite or mirror-terminated guide M, incidence at port 1 or 4), so it
serves as the oracle against which the closed forms are checked.

Conventions (matching the closed forms):

* right movers carry coefficients of exp(+i kappa x), left movers of
  exp(-i kappa x), with one coefficient pair per region between breakpoints;
  kappa is the configuration's ``k`` on the M_k and N_k channels and its
  ``q`` on N_q, taken as given, and each atom's row has the detuning
  ``delta`` on its diagonal, so at the builders' breakpoints x = 0 and 1 the
  solver's phases are exactly the ones the closed forms take;
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

`build_layout` fixes the unknowns once, from the geometry: the channels
(M_k, N_k, and N_q where there is an s-e leg), each one's regions, their
right- and left-mover columns, each active atom's column, and the one map
from component names to columns, all in the `ChannelLayout`.  Ports,
interior regions and atoms are all read through that map, by
`BlockSolution.components`.  Every leg's position is a breakpoint whatever
its rate, so both engines name the same components at any pattern of zero
rates.  A block of cells that share one layout is solved at once:
`solve_batch` takes a configuration whose detuning, wavevectors k and q
and each leg's gamma may be arrays over the block.  The cells must share
one active-leg pattern (which legs have gamma > 0), since that fixes the
layout.  It solves in atom space: each channel's rows form one lower
bidiagonal chain, so the photons' unknowns are eliminated by substitution,
which leaves each cell an at most 2 x 2 system for the atoms' amplitudes,
with the detuning on its diagonal alone.  Consecutive cells whose k, q and
rates are equal form a run, such as a Markovian detuning row, and the
photon elimination runs once per run.  A call checks its config, finds
its runs and builds its layout once, then assembles, solves and screens
its runs in pieces of SOLVER_BLOCK, so it holds one piece's matrices at a
time, whatever the block's length.  `solve` is the block of one cell:
it raises DegenerateConfigError where `solve_batch` marks that cell
singular.  Every cell's matrix is bit-identical to the one its own
configuration assembles, and its solution to the one its own one-cell
block gives, whatever the block around it; so is its ``ill_conditioned``
flag: one stacked Frobenius condition number bounds every cell's 2-norm
one from above, and the exact SVD runs only on the cells that bound
cannot clear (see `_ill_conditioned`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .core import (
    CH_M_K,
    CH_N_K,
    CH_N_Q,
    GE,
    SE,
    WAVEGUIDE_M,
    WAVEGUIDE_N,
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
#: Runs per piece of a `solve_batch` block, and cells per stack of the
#: condition screen.  A piece's runs are assembled at delta = 0 and solved
#: before the next piece's: for the giant layout's 20 x 20 system that is
#: a dense 6.4 KB matrix per run, held for one piece at a time, so a block
#: of any length holds at most 0.8 MB of them.  The screen holds each
#: cell's full matrix, its inverse and their work arrays, about 16 KB per
#: cell, for this many cells at a time.
SOLVER_BLOCK = 128


@dataclass(frozen=True)
class Channel:
    """One photon channel: `CH_M_K`, `CH_N_K` or `CH_N_Q`."""

    name: str
    kind: str  # "k" or "q"
    legs: tuple[int, ...]  # indices of its active legs in the config's legs
    terminated: bool
    n_regions: int


@dataclass(frozen=True)
class ChannelLayout:
    """Region structure and column map shared by all channels of a configuration.

    ``breakpoints`` is the sorted set of distinct coupling positions, whatever
    the legs' rates, plus the wall position when guide M is terminated.
    Every channel is split into regions at every breakpoint (couplings absent
    from a channel contribute null jumps); a terminated channel has no region
    beyond the wall.

    The unknowns are each channel's region coefficients, channel by channel
    from column ``offsets[name]`` with a region's right mover before its
    left one (`right`, `left`), then one excited amplitude per active atom,
    in the column ``atom_columns[atom]``.  ``labels`` names every column
    (such as ``"M_k:1:R"`` or ``"u_e2"``).  ``components`` maps each
    `core.named_components` name of the geometry to its column: the six
    ports, the interior regions of every channel the legs define, and every
    atom's excited amplitude.  It maps to None an amplitude that is 0 by
    construction: a port with no channel or beyond the wall, and the
    amplitudes of a q channel or an atom with no active leg, which get no
    columns.  ``chain`` holds the photon block's substitution steps.
    """

    channels: tuple[Channel, ...]
    breakpoints: tuple[float, ...]
    labels: tuple[str, ...]
    offsets: Mapping[str, int]
    atom_columns: Mapping[int, int]
    components: Mapping[str, int | None]
    chain: tuple[np.ndarray, np.ndarray, np.ndarray]

    def right(self, channel: str, r: int) -> int:
        """Column of the right mover of ``channel``'s region ``r``."""
        return self.offsets[channel] + 2 * r

    def left(self, channel: str, r: int) -> int:
        """Column of the left mover of ``channel``'s region ``r``."""
        return self.offsets[channel] + 2 * r + 1


@dataclass(frozen=True)
class BlockSolution:
    """Solution and flags of a block of cells.

    ``x`` is the full solution, one row per cell with its columns as
    ``layout`` maps them; `components` reads it by name.  A ``singular``
    cell has no solution and a zero row; its ``ill_conditioned`` entry is
    meaningless.  ``ill_conditioned`` is None when the solve was not asked
    to check.
    """

    singular: np.ndarray
    ill_conditioned: np.ndarray | None
    x: np.ndarray
    layout: ChannelLayout

    def components(self) -> dict:
        """The solution by component name (see `core.named_components`),
        one value per cell.  Any component the rates uncouple gets 0."""
        zero = np.zeros(len(self.x), dtype=complex)
        return {
            name: zero if column is None else self.x[:, column]
            for name, column in self.layout.components.items()
        }


def build_layout(cfg: SystemConfig) -> ChannelLayout:
    """Derive the channel/region structure and column map of a configuration.

    The geometry fixes the breakpoints and the component names: every leg's
    position is a breakpoint and every leg's channel has its regions named,
    whatever the leg's rate.  Zero-strength legs couple nothing, and a q
    channel or an atom with no active leg gets no columns: it would
    otherwise contribute spurious singular blocks, and its amplitudes are
    exactly zero by inspection.  A leg with an array rate must be active in
    every cell of the block or in none.
    """
    active = [i for i, l in enumerate(cfg.legs) if _active(l.gamma)]
    positions = sorted({l.position for l in cfg.legs})
    if cfg.wall is not None:
        positions.append(cfg.wall)
    breakpoints = tuple(positions)

    def legs(waveguide: str, transition: str) -> tuple[int, ...]:
        pair = (waveguide, transition)
        return tuple(i for i in active if (cfg.legs[i].waveguide, cfg.legs[i].transition) == pair)

    # Both k channels, and guide N's q channel where there is an s-e leg
    # (`SystemConfig` allows s-e legs on guide N only).  Region `outer` is
    # the outermost one of a channel without a wall; a wall on guide M
    # leaves it no region beyond.
    outer = len(breakpoints)
    terminated = cfg.wall is not None
    geometry = [
        Channel(CH_M_K, "k", legs(WAVEGUIDE_M, GE), terminated, outer if terminated else outer + 1),
        Channel(CH_N_K, "k", legs(WAVEGUIDE_N, GE), False, outer + 1),
    ]
    if any(l.transition == SE for l in cfg.legs):
        geometry.append(Channel(CH_N_Q, "q", legs(WAVEGUIDE_N, SE), False, outer + 1))
    channels = tuple(ch for ch in geometry if ch.kind == "k" or ch.legs)

    labels: list[str] = []
    offsets = {}
    for ch in channels:
        offsets[ch.name] = len(labels)
        labels += [f"{ch.name}:{r}:{mover}" for r in range(ch.n_regions) for mover in "RL"]
    atom_columns = {}
    for atom in sorted({cfg.legs[i].atom for i in active}):
        atom_columns[atom] = len(labels)
        labels.append(f"u_e{atom + 1}")

    def pair(ch: Channel, r: int) -> tuple[int | None, int | None]:
        """(right, left) columns of a region; None past the wall or for a
        channel without columns."""
        if ch.name in offsets and r < ch.n_regions:
            return offsets[ch.name] + 2 * r, offsets[ch.name] + 2 * r + 1
        return None, None

    # The regions between region 0 and region `outer` lie between coupling
    # points, or before the wall.
    ends = {ch.name: (pair(ch, 0)[1], pair(ch, outer)[0]) for ch in geometry}
    ports = [c for name in (CH_M_K, CH_N_K, CH_N_Q) for c in ends.get(name, (None, None))]
    interior = {f"{ch.name}:{r}": pair(ch, r) for ch in geometry for r in range(1, outer)}
    excited = [atom_columns.get(atom) for atom in range(len(cfg.atoms))]
    return ChannelLayout(
        channels, breakpoints, tuple(labels), offsets, atom_columns,
        named_components(ports, interior, excited), _chain(channels, offsets),
    )


def _chain(channels: tuple[Channel, ...], offsets: Mapping[str, int]) -> tuple:
    """(row, pivot column, prior column) arrays of the substitution steps,
    (steps, channels).  From each channel's offset, in `assemble`'s order:
    row 0 fixes R_0, jump row 2j + 2 fixes R_{j+1} from R_j, row 1 fixes
    L_last from R_last (whose entry is 0 on an open channel), and jump row
    2j + 3 fixes L_j from L_{j+1}.  A shorter chain repeats its first step
    in front, where its prior L_0 is still 0."""
    steps = []
    for ch in channels:
        o, last = offsets[ch.name], ch.n_regions - 1
        right = [(o + 2 + 2 * j, o + 2 * j + 2, o + 2 * j) for j in range(last)]
        left = [(o + 3 + 2 * j, o + 2 * j + 1, o + 2 * j + 3) for j in reversed(range(last))]
        steps.append([(o, o, o + 1)] + right + [(o + 1, o + 2 * last + 1, o + 2 * last)] + left)
    longest = max(len(chain) for chain in steps)
    padded = [chain[:1] * (longest - len(chain)) + chain for chain in steps]
    return tuple(np.array(padded).transpose(2, 1, 0))


def _active(gamma) -> bool:
    """Whether a leg couples: gamma > 0 in every cell, or in none."""
    positive = gamma > 0.0
    if _holds(positive):
        return True
    if np.any(positive):
        raise ValueError("the cells of a block must share one active-leg pattern")
    return False


def assemble(layout: ChannelLayout, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Build the dense linear system A x = b.

    Rows: two jump conditions per channel per breakpoint, one mirror row per
    terminated channel, one row per atomic amplitude, and the boundary rows
    fixing the incoming coefficient of every channel end: 1 at the entry
    port (M_k's right mover at its left end for port 1, N_k's left mover at
    its right end for port 4) and 0 elsewhere.  Each channel's rows fill
    its columns' span in the order `_chain` reads: the left boundary row,
    the far boundary or mirror row, then each breakpoint's two jump rows.
    A k channel's plane waves take kappa = ``cfg.k`` and the q channel's
    ``cfg.q``, as given; each atom's diagonal entry is ``cfg.delta``.

    Each coupling is that of ``cfg``'s own leg, the one the layout's
    channel names by index, so a layout built for a whole block serves
    each piece of it.  ``delta`` may be an array of cells, with which
    ``k``, ``q`` and the legs' rates broadcast; the matrix then has shape
    ``(*cells, n, n)`` and the right-hand side, shape ``(n,)``, is shared.
    The detuning enters nowhere but the atoms' diagonal, which
    `solve_batch` relies on to assemble each run at delta = 0 and to screen
    each cell on its run's matrix.  Returns ``(matrix, rhs)``.
    """
    n = len(layout.labels)
    cells = np.shape(cfg.delta)
    stack = np.zeros(cells + (n, n), dtype=complex)
    # matrix[r, c] is that entry over all cells, through a view of the
    # contiguous stack (the stack itself for a single cell).
    matrix = np.moveaxis(stack, (-2, -1), (0, 1))
    rhs = np.zeros(n, dtype=complex)
    port = cfg.port

    # Atomic rows: delta u = sum_legs g * average field at the leg.  The
    # channel rows fill the columns before the atoms', so each atom's row
    # is its own column; the legs' terms are added below.
    for column in layout.atom_columns.values():
        matrix[column, column] = cfg.delta

    row = 0
    for ch in layout.channels:
        kappa = cfg.k if ch.kind == "k" else cfg.q
        last = ch.n_regions - 1

        # Incoming-coefficient boundary rows.
        matrix[row, layout.right(ch.name, 0)] = 1.0
        if port == 1 and ch.name == CH_M_K:
            rhs[row] = 1.0
        row += 1
        if ch.terminated:
            matrix[row, layout.right(ch.name, last)] = np.exp(1j * kappa * cfg.wall)
            matrix[row, layout.left(ch.name, last)] = -np.exp(-1j * kappa * cfg.wall)
            row += 1
        else:
            matrix[row, layout.left(ch.name, last)] = 1.0
            if port == 4 and ch.name == CH_N_K:
                rhs[row] = 1.0
            row += 1

        # Jump rows at each breakpoint interior to the channel, and each
        # leg's terms in its atom's row.
        for j, x_c in enumerate(layout.breakpoints[:last]):
            phase = np.exp(1j * kappa * x_c)
            # Region j's columns; region j + 1's are the two after them.
            right, left = layout.right(ch.name, j), layout.left(ch.name, j)
            matrix[row, right + 2] = -1j * phase
            matrix[row, right] = 1j * phase
            matrix[row + 1, left + 2] = 1j / phase
            matrix[row + 1, left] = -1j / phase
            for index in ch.legs:
                leg = cfg.legs[index]
                if leg.position != x_c:
                    continue
                u = layout.atom_columns[leg.atom]
                g = leg.coupling
                matrix[row, u] += g
                matrix[row + 1, u] += g
                half_g = 0.5 * g
                matrix[u, right] += -half_g * phase
                matrix[u, right + 2] += -half_g * phase
                matrix[u, left] += -half_g / phase
                matrix[u, left + 2] += -half_g / phase
            row += 2

    assert row + len(layout.atom_columns) == n, "system must be square"
    return stack, rhs


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
    the atoms' system is exactly singular, or the solution is not finite
    (as where the atoms' system has a subnormal pivot).  An ill-conditioned
    (but solvable) system is returned with an ``"ill_conditioned"`` flag
    attached.
    """
    cell = replace(cfg, delta=np.array([cfg.delta]))
    sol = solve_batch(cell)
    if sol.singular[0]:
        raise DegenerateConfigError(
            "singular scattering system: exactly singular or a non-finite solution"
        )
    flags = ("ill_conditioned",) if sol.ill_conditioned[0] else ()
    items = {key: value[0] for key, value in sol.components().items()}
    return ScatterAmplitudes.from_components(cfg.port, items, flags)


def solve_batch(cfg: SystemConfig, *, check_conditioning: bool = True) -> BlockSolution:
    """Solve a 1-D block of cells that share one layout, in atom space.

    The detuning in ``cfg`` is an array over the block, with which k, q
    and each leg's gamma broadcast (the `configs` builders make them from
    array rates, detunings and phases).  The photons' columns come first
    and the atoms' last, so a cell's matrix at delta = 0 splits as
    [[A_pp, A_pa], [A_ap, A_aa]], and its detuning adds delta I to A_aa
    alone.  Consecutive cells whose k, q and every leg's gamma are equal,
    bit for bit, form a run (a Markovian detuning row is one run), and
    each run shares its matrix at delta = 0.  The photons are eliminated
    once per run:

    1. Y = A_pp^-1 [A_pa | b_p] by substitution (`_substitute`): A_pp is
       free propagation (the boundary, mirror and jump rows), and each
       channel's block, taken in its chain's order, is lower bidiagonal
       with pivots of modulus 1, so it is never singular;
    2. S = A_aa + delta I - A_ap Y[:, :-1], the atoms' Schur complement (at
       most 2 x 2), and S u = b_a - A_ap Y[:, -1], per cell on its run's
       values;
    3. x_p = Y[:, -1] - sum_a Y[:, a] u_a, per cell.

    The config is checked, its runs found and its layout built once per
    call.  The runs are then taken SOLVER_BLOCK at a time, a piece, and
    its cells are all the cells of those runs.  `assemble` runs once per
    piece, on a config at delta = 0 with one cell per run (`_cells`, picks
    of the block's checked arrays that are not checked again), and takes
    each leg's rate from that config.  The screen below runs on the
    piece's matrices, and step 1 and A_ap Y run stacked over its runs;
    the matrices are then freed, and S, its right-hand side and Y are
    taken to its cells, except where every cell is a run.  So a call holds
    one piece's (runs, n, n) stack at a time.  Every cell goes
    through the same operations on the same values, so its solution is
    bit-identical to that of its own one-cell block, whatever the block
    around it or the piece it falls in.

    A cell is singular, with a zero row, when its S is exactly singular
    (the stacked solve then falls back to solving the matrices one by one)
    or when its solution is not finite.
    ``ill_conditioned`` flags the cells whose full matrix has a 2-norm
    condition number above `ILL_CONDITIONED`; the matrices are its run's
    with the cell's detuning on the atoms' diagonal, piece by piece and
    SOLVER_BLOCK cells at a time, and the check never changes how a cell
    is solved.  Its stacked inverse costs as much memory again, so
    ``check_conditioning=False`` skips it and leaves ``ill_conditioned``
    None.  Only the `solver`
    engine of a sweep checks; `validate`, the `both` engine and `search`'s
    re-verification read no flag and skip it.
    """
    if np.ndim(cfg.delta) != 1:
        raise ValueError("solve_batch needs a 1-D block of cells")
    cells = len(cfg.delta)
    starts = _run_starts(cfg)
    first = np.flatnonzero(starts)
    run = np.cumsum(starts) - 1
    runs = len(first)
    layout = build_layout(cfg)
    x = np.empty((cells, len(layout.labels)), dtype=complex)
    singular = np.empty(cells, dtype=bool)
    ill_conditioned = np.empty(cells, dtype=bool) if check_conditioning else None
    for start in range(0, runs, SOLVER_BLOCK):
        piece = slice(start, start + SOLVER_BLOCK)
        # The piece's cells, from its first run's first cell to the next
        # piece's.
        span = slice(first[start], first[piece.stop] if piece.stop < runs else cells)
        at_zero = _cells(cfg, first[piece], np.zeros(len(first[piece])))
        singular[span], flags = _solve_piece(
            layout, at_zero, run[span] - start, cfg.delta[span], x[span], check_conditioning
        )
        if check_conditioning:
            ill_conditioned[span] = flags
    return BlockSolution(singular, ill_conditioned, x, layout)


def _solve_piece(layout: ChannelLayout, at_zero: SystemConfig, run, delta, x, check: bool):
    """Steps 1 to 3 of `solve_batch`, and its screen, on one piece.
    ``at_zero`` holds the piece's runs at delta = 0, and ``run`` and
    ``delta`` give each of its cells' run and detuning.  Writes the cells'
    solutions into ``x`` and returns which cells are singular, and which
    are ill-conditioned where ``check`` asks (else None)."""
    matrix, b = assemble(layout, at_zero)
    flags = _screen(matrix, run, delta, layout) if check else None
    n_a = len(layout.atom_columns)
    n_p = len(b) - n_a
    y = _substitute(layout, matrix, b)
    # Past step 1 only A_ap and A_aa are read, so the piece's matrices are
    # freed before the long-double products.
    a_ap, a_aa = matrix[:, n_p:, :n_p].astype(np.clongdouble), matrix[:, n_p:, n_p:].copy()
    gather = len(matrix) < len(run)
    del matrix
    # Steps 2 and 3.  A u or x_p that is not finite (as where S has a
    # subnormal pivot) marks its cell singular below.
    with np.errstate(invalid="ignore", over="ignore"):
        # Near a dark point the leading digits of A_ap Y cancel in S u;
        # summed in float64, its rounding alone broke the 1e-10 gate on
        # giant cells near phi2' = pi at delta = 0, so it is summed in long
        # double.
        a_ap_y = (a_ap @ y.astype(np.clongdouble)).astype(complex)
        s = a_aa - a_ap_y[..., :-1]
        # A stack of one-column right-hand sides under every numpy version;
        # a 1-D one means a vector only from numpy 2.0 on.
        rhs = b[n_p:, None] - a_ap_y[..., -1:]
        if gather:
            s, rhs, y = s.take(run, 0), rhs.take(run, 0), y.take(run, 0)
        diagonal = np.arange(n_a)
        s[:, diagonal, diagonal] += np.asarray(delta)[:, None]
        u, singular = _solve_cells(s, rhs)
        # x_p = Y[:, -1] - sum_a Y[:, a] u_a, each product in place in Y, so
        # no numpy temporary can swap its operands.
        x_p = y[..., -1]
        for atom in range(n_a):
            term = y[..., atom]
            term *= u[:, atom]
            x_p -= term
        np.concatenate([x_p, u[..., 0]], axis=1, out=x)
    singular |= ~np.isfinite(x).all(axis=-1)
    x[singular] = 0.0
    return singular, flags


def _substitute(layout: ChannelLayout, matrix: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Step 1 of `solve_batch`: Y = A_pp^-1 [A_pa | b_p] for a stack of
    matrices, by substitution along each channel's chain (`_chain`), all
    channels at once: x_s = (r_s - A[row, prior] x_prior) / A[row, pivot].
    It reads only entries of ``matrix`` and uses only *, - and /."""
    rows, pivots, priors = layout.chain
    n_p = len(b) - len(layout.atom_columns)
    a_pa = matrix[:, :n_p, n_p:]
    r = np.concatenate([a_pa, np.broadcast_to(b[:n_p, None], a_pa.shape[:-1] + (1,))], -1)[:, rows]
    lower, pivot = matrix[:, rows, priors, None], matrix[:, rows, pivots, None]
    y = np.zeros((len(matrix), n_p, r.shape[-1]), dtype=matrix.dtype)
    for step in range(len(rows)):
        # In place, so that no numpy temporary can swap a product's operands.
        term = y[:, priors[step]]
        term *= lower[:, step]
        np.subtract(r[:, step], term, out=term)
        term /= pivot[:, step]
        y[:, pivots[step]] = term
    return y


def _run_starts(cfg: SystemConfig) -> np.ndarray:
    """Which cells start a run: consecutive cells whose k, q and every
    leg's gamma are equal, bit for bit, form one."""
    starts = np.arange(len(cfg.delta)) == 0
    for value in (cfg.k, cfg.q, *(leg.gamma for leg in cfg.legs)):
        if np.ndim(value):
            bits = np.asarray(value, dtype=float).view(np.int64)
            starts[1:] |= bits[1:] != bits[:-1]
    return starts


def _cells(cfg: SystemConfig, index, delta) -> SystemConfig:
    """The cells ``index`` of a block, at detuning ``delta``.  Its values
    are picks of arrays that the block's config already passed, so neither
    it nor its legs are checked again."""

    def pick(value):
        return value[index] if np.ndim(value) else value

    legs = tuple(
        _unchecked(leg, gamma=pick(leg.gamma)) if np.ndim(leg.gamma) else leg for leg in cfg.legs
    )
    return _unchecked(cfg, delta=delta, k=pick(cfg.k), q=pick(cfg.q), legs=legs)


def _unchecked(value, **changes):
    """`dataclasses.replace` of a frozen dataclass without its
    ``__post_init__`` checks."""
    copy = object.__new__(type(value))
    copy.__dict__.update(value.__dict__, **changes)
    return copy


def _screen(matrix: np.ndarray, run: np.ndarray, delta, layout: ChannelLayout) -> np.ndarray:
    """`_ill_conditioned` of each cell's full matrix: its run's ``matrix``
    at delta = 0 with its detuning on the atoms' diagonal, which is what
    `assemble` gives at that detuning.  SOLVER_BLOCK cells at a time, so
    the stacked inverse never grows with the piece."""
    atoms = list(layout.atom_columns.values())
    flags = np.zeros(len(run), dtype=bool)
    for start in range(0, len(run), SOLVER_BLOCK):
        part = slice(start, start + SOLVER_BLOCK)
        full = matrix[run[part]]
        full[:, atoms, atoms] = np.asarray(delta)[part, None]
        flags[part] = _ill_conditioned(full)
    return flags


def _solve_cells(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.solve`` of a stack of the atoms' systems S u = r, and
    which are exactly singular.  If any is, the stack is solved again
    matrix by matrix, and each singular one gets a zero solution."""
    singular = np.zeros(len(a), dtype=bool)
    try:
        return np.linalg.solve(a, b), singular
    except np.linalg.LinAlgError:
        x = np.zeros(b.shape, dtype=complex)
        for k, (cell, rhs) in enumerate(zip(a, b)):
            try:
                x[k] = np.linalg.solve(cell, rhs)
            except np.linalg.LinAlgError:
                singular[k] = True
        return x, singular
