"""Dense reference constructions the package computes another way.

`picture_unitary` is the full block-diagonal change of picture that
`nhbath.lattice.rotate_cells` applies one 2x2 cell at a time; tests compare
the production path with it.
"""
import numpy as np

from nhbath import intracell_unitary


def picture_unitary(n_cells, n_emitters=0):
    """Block-diagonal unitary mapping original amplitudes to mapped ones.

    Acts as the identity on the first `n_emitters` components and as
    `intracell_unitary` on each cell block.
    """
    cells = np.zeros((n_cells, 2, n_cells, 2), dtype=complex)
    k = np.arange(n_cells)
    cells[k, :, k, :] = intracell_unitary()
    U = np.eye(n_emitters + 2 * n_cells, dtype=complex)
    U[n_emitters:, n_emitters:] = cells.reshape(2 * n_cells, 2 * n_cells)
    return U


def operator_to_mapped(M, n_emitters=0):
    """U M U^dag for an original-picture operator whose photon block starts
    at row/column `n_emitters`."""
    M = np.asarray(M, dtype=complex)
    U = picture_unitary((M.shape[0] - n_emitters) // 2, n_emitters)
    return U @ M @ U.conj().T
