"""Metastable emitter-photon dressed states in the fully directional regime
gamma = 2J, and the probe couplings they mediate."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import rotate_cells
from .params import LatticeParams, require_index, require_positive


@dataclass
class DressedState:
    """Emitter dressed by a photonic cloud, quasi-stationary to order g^2.

    `photon_amps` is the cloud in the mapped picture (alpha1, beta1, alpha2,
    ...), relative to a unit emitter amplitude; `energy` is the complex
    quasi-eigenvalue -i g^2/(4J).  kind is "bulk" (two-cell cloud) or "edge"
    (chain-filling cloud of the last-cell emitter on the open chain).
    """

    photon_amps: np.ndarray
    energy: complex
    source_cell: int
    kind: str
    g: float


def dressed_state_problems(params: LatticeParams, kind: str, cell: int) -> list:
    """Why no `kind` ("bulk" or "edge") dressed state exists for an emitter
    in `cell`, as (input, reason) pairs naming the input at fault: "params",
    "kind" or "cell".  Empty when the state exists."""
    problems = []
    if not params.uniform:
        problems.append(("params", "dressed states need t1 == t2 == J"))
    elif abs(params.gamma - 2 * params.t1) > 1e-12 * params.t1:
        problems.append(("params", "dressed states exist at gamma = 2J exactly"))
    last = cell == params.n_cells
    if kind == "edge" and params.periodic:
        problems.append(("kind", "the edge dressed state lives on the open chain"))
    if kind == "edge" and not last:
        problems.append(("cell", "the edge dressed state belongs to the emitter "
                                 f"in the last cell, [{params.n_cells}]"))
    if kind == "bulk" and last and not params.periodic:
        problems.append(("cell", "the last cell of the open chain "
                                 "hosts the edge dressed state, not a bulk one"))
    return problems


def bulk_dressed_state(params: LatticeParams, source_cell: int,
                       g: float) -> DressedState:
    """Emitter in `source_cell` dressed by its two-cell photonic cloud.

    The cloud occupies beta of the source cell and alpha of the next cell,
    each with amplitude g/(sqrt(2) gamma) relative to the emitter.  On the
    open chain the source must not be the last cell (its cloud has nowhere
    to spill); on the ring any cell works.
    """
    params.check_cell(source_cell)
    if problems := dressed_state_problems(params, "bulk", source_cell):
        raise ValueError("; ".join(reason for _, reason in problems))
    require_positive("g", g)
    gamma = params.gamma
    amps = np.zeros(params.n_modes, dtype=complex)
    nxt = source_cell % params.n_cells + 1
    amps[params.b_index(source_cell)] = -1j * g / (np.sqrt(2) * gamma)
    amps[params.a_index(nxt)] = -g / (np.sqrt(2) * gamma)
    return DressedState(amps, -1j * g ** 2 / (4 * params.t1), source_cell, "bulk", g)


def edge_dressed_state(params: LatticeParams, g: float) -> DressedState:
    """Dressed state of an emitter in the last cell of the open chain.

    Its photonic cloud extends over the whole chain with staggered-sign
    amplitudes g/(sqrt(2) gamma): cell n carries (-1)^(N+n) times
    (-1, -i) on (alpha, beta), doubled on alpha of cell 1 and on beta of
    cell N.
    """
    if problems := dressed_state_problems(params, "edge", params.n_cells):
        raise ValueError("; ".join(reason for _, reason in problems))
    require_positive("g", g)
    N, gamma = params.n_cells, params.gamma
    c = g / (np.sqrt(2) * gamma)
    ph = (-1) ** (N + np.arange(1, N + 1))
    amps = np.zeros(params.n_modes, dtype=complex)
    amps[0::2] = -c * ph  # alpha of cells 1..N
    amps[1::2] = -1j * c * ph  # beta of cells 1..N
    amps[0] *= 2
    amps[-1] *= 2
    return DressedState(amps, -1j * g ** 2 / (4 * params.t1), N, "edge", g)


def verify_eigenstate(hamiltonian, dressed: DressedState) -> float:
    """Residual ||H v - E v|| / ||v|| of a dressed state against the full
    single-emitter Hamiltonian (`build_total_hamiltonian`, sparse or dense)
    in the original picture, emitter first; the cloud is rotated back by
    `rotate_cells`, which is unitary, so the residual is that of the mapped
    picture.

    Scales as g^3 for a correct dressed state, g^1 for a wrong ansatz.
    """
    v = np.r_[1.0, rotate_cells(dressed.photon_amps, to_mapped=False)]
    if hamiltonian.shape[0] != v.size:
        raise ValueError("hamiltonian dimension does not match the dressed state")
    r = hamiltonian @ v - dressed.energy * v
    return float(np.linalg.norm(r) / np.linalg.norm(v))


def coupling_from_dressed(dressed: DressedState, probe_cell: int) -> complex:
    """Coupling a weak probe emitter in `probe_cell` picks up from the
    dressed emitter: the probe's coupling rate (the dressed emitter's g)
    times the cloud amplitude on the probe's lossy cavity in the original
    picture.

    Reproduces the directional couplings: +i Gamma one cell to the right of
    a bulk source (and on cell 1 for the edge state via the boundary),
    -i Gamma back-action on the source cell, zero elsewhere.
    """
    require_index("probe_cell", probe_cell, dressed.photon_amps.size // 2)
    b = rotate_cells(dressed.photon_amps, to_mapped=False)[1::2]
    return dressed.g * complex(b[probe_cell - 1])
