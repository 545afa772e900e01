"""Metastable emitter-photon dressed states in the fully directional regime
gamma = 2J, and the probe couplings they mediate."""
from __future__ import annotations

import numpy as np

from .lattice import rotate_cells
from .params import LatticeParams, require_index, require_positive


def dressed_state_problems(params: LatticeParams) -> list:
    """Why `dressed_state` has no state on this lattice; empty when every
    cell has one."""
    if not params.uniform:
        return ["dressed states need t1 == t2 == J"]
    if abs(params.gamma - 2 * params.t1) > 1e-12 * params.t1:
        return ["dressed states exist at gamma = 2J exactly"]
    return []


def dressed_energy(params: LatticeParams, g: float) -> complex:
    """Complex quasi-eigenvalue -i g^2/(4J) of the bulk and edge dressed
    states: the emitter amplitude decays at Gamma = g^2/(4J)."""
    return -1j * g ** 2 / (4 * params.t1)


def dressed_state(params: LatticeParams, cell: int, g: float) -> np.ndarray:
    """Photonic cloud dressing the emitter in `cell`, in the mapped picture
    (alpha1, beta1, alpha2, ...) relative to a unit emitter amplitude; its
    energy is `dressed_energy`.  With c = g/(sqrt(2) gamma), cell N of the
    open chain hosts the edge state, which fills the chain: cell n carries
    c (-1)^(N+n) times (-1, -i) on (alpha, beta), doubled on alpha of cell 1
    and on beta of cell N.  Every other cell hosts the bulk state: -i c on
    beta of `cell` and -c on alpha of the next (cell 1 after N on the ring).
    """
    params.check_cell(cell)
    if problems := dressed_state_problems(params):
        raise ValueError("; ".join(problems))
    require_positive("g", g)
    N = params.n_cells
    c = g / (np.sqrt(2) * params.gamma)
    amps = np.zeros(params.n_modes, dtype=complex)
    if cell == N and not params.periodic:
        ph = (-1) ** (N + np.arange(1, N + 1))
        amps[0::2] = -c * ph  # alpha of cells 1..N
        amps[1::2] = -1j * c * ph  # beta of cells 1..N
        amps[0] *= 2
        amps[-1] *= 2
    else:
        amps[params.b_index(cell)] = -1j * c
        amps[params.a_index(cell % N + 1)] = -c
    return amps


def verify_eigenstate(hamiltonian, photon_amps: np.ndarray,
                      energy: complex) -> float:
    """Residual ||H v - E v|| / ||v|| of a dressed state, a unit emitter
    amplitude with the cloud `photon_amps` at `energy`, against the full
    single-emitter Hamiltonian (`build_total_hamiltonian`, sparse or dense)
    in the original picture, emitter first; the cloud is rotated back by
    `rotate_cells`, which is unitary, so the residual is that of the mapped
    picture.

    Scales as g^3 for a correct dressed state, g^1 for a wrong ansatz.
    """
    v = np.r_[1.0, rotate_cells(photon_amps, to_mapped=False)]
    if hamiltonian.shape[0] != v.size:
        raise ValueError("hamiltonian dimension does not match the dressed state")
    r = hamiltonian @ v - energy * v
    return float(np.linalg.norm(r) / np.linalg.norm(v))


def coupling_from_dressed(photon_amps: np.ndarray, g: float,
                          probe_cell: int) -> complex:
    """Coupling a weak probe emitter in `probe_cell` picks up from an
    emitter dressed by the cloud `photon_amps`: the probe's coupling rate
    (the dressed emitter's g) times the cloud amplitude on the probe's lossy
    cavity in the original picture.

    Reproduces the directional couplings: +i Gamma one cell to the right of
    a bulk source (and on cell 1 for the edge state via the boundary),
    -i Gamma back-action on the source cell, zero elsewhere.
    """
    require_index("probe_cell", probe_cell, photon_amps.size // 2)
    b = rotate_cells(photon_amps, to_mapped=False)[1::2]
    return g * complex(b[probe_cell - 1])
