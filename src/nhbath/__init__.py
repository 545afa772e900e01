"""nhbath: emitters coupled to a lossy cavity-array bath.

Simulation of a one-dimensional photonic lattice whose engineered losses make
the photon-mediated couplings between quantum emitters non-reciprocal:
spectra and point-gap topology, single-excitation dynamics, closed-form and
numeric effective emitter Hamiltonians, and metastable dressed states.
"""

__version__ = "0.1.0"

from .params import (LatticeParams, EmitterLayout, SingleExcitationState,
                     excited_emitter_state, weak_coupling_warnings)
from .lattice import (build_bare_hamiltonian, build_mapped_hamiltonian,
                      build_total_hamiltonian, intracell_unitary)
from .spectral import (SpectrumResult, bloch_matrix, bloch_spectrum,
                       obc_spectrum, band_centroid, point_gap_winding)
from .dynamics import (Trajectory, LocalizationReport, evolve,
                       emitter_populations, photon_density,
                       localization_report, fit_decay_rate)
from .effective import (EffectiveCouplingMatrix, greens_obc, heff_numeric,
                        heff_closed_form, interaction_range)
from .dressed import (DressedState, bulk_dressed_state, edge_dressed_state,
                      verify_eigenstate, coupling_from_dressed)
from .config import ExperimentConfig, ConfigError, parse_config, serialize_config
from .runner import run_experiment

__all__ = [
    "__version__",
    "LatticeParams", "EmitterLayout", "SingleExcitationState",
    "excited_emitter_state", "weak_coupling_warnings",
    "build_bare_hamiltonian", "build_mapped_hamiltonian",
    "build_total_hamiltonian", "intracell_unitary",
    "SpectrumResult", "bloch_matrix", "bloch_spectrum", "obc_spectrum",
    "band_centroid", "point_gap_winding",
    "Trajectory", "LocalizationReport", "evolve", "emitter_populations",
    "photon_density", "localization_report", "fit_decay_rate",
    "EffectiveCouplingMatrix", "greens_obc", "heff_numeric",
    "heff_closed_form", "interaction_range",
    "DressedState", "bulk_dressed_state", "edge_dressed_state",
    "verify_eigenstate", "coupling_from_dressed",
    "ExperimentConfig", "ConfigError", "parse_config", "serialize_config",
    "run_experiment",
]
