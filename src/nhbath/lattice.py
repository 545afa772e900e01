"""Single-excitation Hamiltonians of the lossy cavity array in the original
(a, b) picture, and the intra-cell rotation to the (alpha, beta) picture.

Every operator is built in the original picture.  The mapped picture exists
only as `rotate_cells` on amplitude arrays; conjugated by that rotation the
photon Hamiltonian is an asymmetric-hopping chain with intra-cell rates
t1 +/- gamma/2, reciprocal inter-cell rate t2 and on-site loss -i*gamma/2.
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import coo_array, csr_array, get_index_dtype

from .params import EmitterLayout, LatticeParams


def _photon_entries(params: LatticeParams):
    """(rows, cols, values) of the photon Hamiltonian: the 2x2 on-site block
    of every cell, the 2x2 hop from each cell to the next (row cell k,
    column cell k+1) and its adjoint back; the seam link N -> 1 only on the
    ring, where at N = 2 both links land on the same blocks."""
    n, t1, t2, gamma = params.n_cells, params.t1, params.t2, params.gamma
    onsite = np.array([[0.0, t1], [t1, -1j * gamma]])
    hop = np.array([[-1j * t2 / 2, t2 / 2], [t2 / 2, 1j * t2 / 2]])
    k = np.arange(n)
    src = k if params.periodic else k[:-1]  # the links src -> src + 1
    dst = (src + 1) % n
    blocks = np.repeat(np.array([onsite, hop, hop.conj().T]),
                       [n, src.size, src.size], axis=0)
    i, j = np.indices((2, 2))
    return ((2 * np.concatenate([k, src, dst])[:, None, None] + i).ravel(),
            (2 * np.concatenate([k, dst, src])[:, None, None] + j).ravel(),
            blocks.ravel())


def _csr(dim: int, rows, cols, values) -> csr_array:
    """CSR matrix of the (row, col, value) entries, duplicates summed.

    `+ 0.0` turns the -0.0 parts of the values (the adjoint's conjugated
    zeros) into +0.0 before they are summed, and zero sums are not stored,
    so the result is the CSR form of the matrix accumulated densely, down to
    the index type."""
    idx = get_index_dtype(maxval=dim)
    H = coo_array((values + 0.0, (rows.astype(idx), cols.astype(idx))),
                  shape=(dim, dim)).tocsr()
    H.eliminate_zeros()
    return H


def build_bare_hamiltonian(params: LatticeParams) -> csr_array:
    """Photonic Hamiltonian in the original (a, b) basis, as CSR with at most
    six stored entries per row (`.toarray()` gives a dense copy).

    Each cell couples its two cavities with rate t1; neighbouring cells are
    connected by four inter-cell links of magnitude t2/2: two reciprocal
    cross links (a_n <-> b_{n+1}, b_n <-> a_{n+1}) and two imaginary
    same-sublattice links (-i t2/2 for a_n -> a_{n+1}, +i t2/2 for
    b_n -> b_{n+1}, Hermitian within each pair).  Every b cavity carries the
    anti-Hermitian loss -i*gamma.
    """
    return _csr(params.n_modes, *_photon_entries(params))


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
                            layout: EmitterLayout) -> csr_array:
    """Emitters + photons Hamiltonian as CSR, emitters first in layout order;
    each emitter couples to the lossy cavity of its cell with rate g, so a
    photon row stores at most seven entries."""
    layout.validate_against(params)
    ne = layout.n_emitters
    rows, cols, values = _photon_entries(params)
    em = np.arange(ne)
    b = ne + params.b_index(np.array(layout.cells))
    return _csr(ne + params.n_modes, np.concatenate([ne + rows, em, b]),
                np.concatenate([ne + cols, b, em]),
                np.concatenate([values, np.full(2 * ne, layout.g)]))
