"""Single-photon scattering in two waveguides bridged by a two-level and a
lambda-type atom: closed-form amplitudes, an independent boundary-matching
solver, spectral sweeps, and parameter search."""

from .core import (
    ConfigError,
    CouplingLeg,
    DegenerateConfigError,
    InvalidAmplitudeError,
    NoFeasiblePointError,
    PhaseModel,
    ScatterAmplitudes,
    SingularityError,
    SystemConfig,
    TransferRates,
    VerificationError,
    combine_directions,
    rates_from_amplitudes,
)
from .search import Bounds, Fixed, Linked, Objective, SearchReport, grid_refine_search
from .solver import ChannelLayout, assemble, build_layout, solve
from .sweep import (
    FAMILIES,
    Axis,
    FigurePreset,
    PhaseAxis,
    SweepResult,
    SweepSpec,
    figure_preset,
    run_sweep,
)
from .validate import ValidationReport, run_validation

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "Bounds",
    "ChannelLayout",
    "ConfigError",
    "CouplingLeg",
    "DegenerateConfigError",
    "FAMILIES",
    "FigurePreset",
    "Fixed",
    "InvalidAmplitudeError",
    "Linked",
    "NoFeasiblePointError",
    "Objective",
    "PhaseAxis",
    "PhaseModel",
    "ScatterAmplitudes",
    "SearchReport",
    "SingularityError",
    "SweepResult",
    "SweepSpec",
    "SystemConfig",
    "TransferRates",
    "ValidationReport",
    "VerificationError",
    "assemble",
    "build_layout",
    "combine_directions",
    "figure_preset",
    "grid_refine_search",
    "rates_from_amplitudes",
    "run_sweep",
    "run_validation",
    "solve",
]
