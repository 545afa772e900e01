"""Single-excitation Hamiltonians of the lossy cavity array in the original
(a, b) picture, and the intra-cell rotation to the (alpha, beta) picture.

Every operator is built in the original picture.  The mapped picture exists
only as `rotate_cells` on amplitude arrays; conjugated by that rotation the
photon Hamiltonian is an asymmetric-hopping chain with intra-cell rates
t1 +/- gamma/2, reciprocal inter-cell rate t2 and on-site loss -i*gamma/2.
"""
from __future__ import annotations

import numpy as np

from .params import EmitterLayout, LatticeParams


def _assemble(params: LatticeParams, onsite, hop) -> np.ndarray:
    """Photon Hamiltonian with the 2x2 block `onsite` on every cell, `hop`
    from each cell to the next (row cell k, column cell k+1) and its adjoint
    back; the seam link N -> 1 only on the ring."""
    n = params.n_cells
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    cells = H.reshape(n, 2, n, 2)  # cells[k, :, m, :] is the (k, m) block
    k = np.arange(n)
    hop = np.asarray(hop, dtype=complex)
    cells[k, :, k, :] += onsite
    k = k if params.periodic else k[:-1]
    m = (k + 1) % n
    cells[k, :, m, :] += hop  # two passes: at N = 2 the ring's links
    cells[m, :, k, :] += hop.conj().T  # k -> m and m -> k hit the same blocks
    return H


def build_bare_hamiltonian(params: LatticeParams) -> np.ndarray:
    """Photonic Hamiltonian in the original (a, b) basis.

    Each cell couples its two cavities with rate t1; neighbouring cells are
    connected by four inter-cell links of magnitude t2/2: two reciprocal
    cross links (a_n <-> b_{n+1}, b_n <-> a_{n+1}) and two imaginary
    same-sublattice links (-i t2/2 for a_n -> a_{n+1}, +i t2/2 for
    b_n -> b_{n+1}, Hermitian within each pair).  Every b cavity carries the
    anti-Hermitian loss -i*gamma.
    """
    t1, t2, gamma = params.t1, params.t2, params.gamma
    return _assemble(params, [[0.0, t1], [t1, -1j * gamma]],
                     [[-1j * t2 / 2, t2 / 2], [t2 / 2, 1j * t2 / 2]])


def intracell_unitary() -> np.ndarray:
    """2x2 rotation from (a, b) to (alpha, beta) amplitudes within one cell."""
    return np.array([[1.0, 1.0j], [1.0j, 1.0]], dtype=complex) / np.sqrt(2.0)


def rotate_cells(amps: np.ndarray, to_mapped: bool = True) -> np.ndarray:
    """Apply `intracell_unitary` (or its inverse) to every cell pair of the
    last axis of `amps`, photon amplitudes of one or many states."""
    amps = np.asarray(amps, dtype=complex)
    uc = intracell_unitary()  # symmetric, so row vectors rotate by uc itself
    pairs = amps.reshape(*amps.shape[:-1], -1, 2)
    return (pairs @ (uc if to_mapped else uc.conj())).reshape(amps.shape)


def build_total_hamiltonian(params: LatticeParams,
                            layout: EmitterLayout) -> np.ndarray:
    """Emitters + photons Hamiltonian, emitters first in layout order; each
    emitter couples to the lossy cavity of its cell with rate g."""
    layout.validate_against(params)
    ne = layout.n_emitters
    dim = ne + params.n_modes
    H = np.zeros((dim, dim), dtype=complex)
    H[ne:, ne:] = build_bare_hamiltonian(params)
    em = np.arange(ne)
    b = ne + 2 * (np.array(layout.cells) - 1) + 1
    H[em, b] = layout.g
    H[b, em] = layout.g
    return H
