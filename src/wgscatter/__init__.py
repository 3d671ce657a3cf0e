"""Single-photon scattering in two waveguides bridged by a two-level and a
lambda-type atom: closed-form amplitudes, an independent boundary-matching
solver, spectral sweeps, and parameter search."""

from .core import (
    AtomSpec,
    ConfigError,
    CouplingLeg,
    DegenerateConfigError,
    IncidentWave,
    InvalidAmplitudeError,
    NoFeasiblePointError,
    PhaseModel,
    ScatterAmplitudes,
    SingularityError,
    SystemConfig,
    TransferRates,
    combine_directions,
    rates_from_amplitudes,
)
from .search import Bounds, Fixed, Linked, Objective, SearchReport, grid_refine_search
from .solver import ChannelLayout, LinearSystem, assemble, build_layout, solve
from .sweep import (
    FAMILIES,
    Axis,
    FigurePreset,
    PhaseAxis,
    SweepResult,
    SweepSpec,
    figure_preset,
    isolation_report,
    run_sweep,
)
from .validate import ValidationReport, run_validation

__version__ = "0.1.0"

__all__ = [
    "AtomSpec",
    "Axis",
    "Bounds",
    "ChannelLayout",
    "ConfigError",
    "CouplingLeg",
    "DegenerateConfigError",
    "FAMILIES",
    "FigurePreset",
    "Fixed",
    "IncidentWave",
    "InvalidAmplitudeError",
    "LinearSystem",
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
    "assemble",
    "build_layout",
    "combine_directions",
    "figure_preset",
    "grid_refine_search",
    "isolation_report",
    "rates_from_amplitudes",
    "run_sweep",
    "run_validation",
    "solve",
]
