"""nhbath: emitters coupled to a lossy cavity-array bath.

Simulation of a one-dimensional photonic lattice whose engineered losses make
the photon-mediated couplings between quantum emitters non-reciprocal:
spectra and point-gap topology, single-excitation dynamics, closed-form and
numeric effective emitter Hamiltonians, and metastable dressed states.
"""

__version__ = "0.1.0"

from .params import (LatticeParams, EmitterLayout, excited_emitter_state,
                     weak_coupling_warnings)
from .lattice import (build_bare_hamiltonian, build_total_hamiltonian,
                      intracell_unitary)
from .spectral import (bloch_matrix, bloch_spectrum, obc_spectrum,
                       obc_defectivity, point_gap_winding)
from .dynamics import (evolve, stacked_cell_weights, emitter_populations,
                       photon_density, cell_weights, time_average,
                       localization_report, fit_decay_rate)
from .effective import (greens_obc, heff_numeric, heff_closed_form,
                        interaction_range)
from .dressed import (dressed_energy, dressed_state, verify_eigenstate,
                      coupling_from_dressed)
from .config import ExperimentConfig, ConfigError, parse_config, serialize_config
from .runner import run_experiment

__all__ = [
    "__version__",
    "LatticeParams", "EmitterLayout", "excited_emitter_state",
    "weak_coupling_warnings",
    "build_bare_hamiltonian", "build_total_hamiltonian", "intracell_unitary",
    "bloch_matrix", "bloch_spectrum", "obc_spectrum", "obc_defectivity",
    "point_gap_winding",
    "evolve", "stacked_cell_weights",
    "emitter_populations", "photon_density", "cell_weights", "time_average",
    "localization_report", "fit_decay_rate",
    "greens_obc", "heff_numeric", "heff_closed_form", "interaction_range",
    "dressed_energy", "dressed_state", "verify_eigenstate",
    "coupling_from_dressed",
    "ExperimentConfig", "ConfigError", "parse_config", "serialize_config",
    "run_experiment",
]
