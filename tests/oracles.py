"""Dense reference constructions the package computes another way.

`picture_unitary` is the full block-diagonal change of picture that
`nhbath.lattice.rotate_cells` applies one 2x2 cell at a time; tests compare
the production path with it.  `operator_to_mapped` conjugates an operator
by it: the package builds every operator in the original picture only, so
tests read the mapped-picture Hamiltonians from it.  `dense_obc_eig` and
`mp_obc_eigenvalues` diagonalize the dense open-chain Hamiltonian that
`nhbath.obc_spectrum` replaces by its imaginary-gauge chain.
`expm_stepped` propagates with the dense exponential of every interval,
which `nhbath.evolve` replaces by its bounded Taylor steps.
"""
import mpmath as mp
import numpy as np
from scipy.linalg import expm

from nhbath import build_bare_hamiltonian, intracell_unitary


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


def dense_obc_eig(params):
    """Eigenvalues and unit right eigenvectors (columns) of the dense
    open-chain Hamiltonian, from LAPACK's nonsymmetric `eig`.  Accurate only
    on short chains away from the exceptional point."""
    return np.linalg.eig(build_bare_hamiltonian(params))


def mp_obc_eigenvalues(params, digits=80):
    """Eigenvalues of the dense open-chain Hamiltonian in extended precision
    (its float entries are exact), rounded to complex128."""
    H = build_bare_hamiltonian(params)
    with mp.workdps(digits):
        evs = mp.eig(mp.matrix(H.tolist()), left=False, right=False)
        return np.array([complex(e) for e in evs])


def hausdorff(x, y):
    """Hausdorff distance between two finite sets of complex numbers."""
    d = np.abs(np.asarray(x)[:, None] - np.asarray(y)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def expm_stepped(H, psi0, times):
    """States at every sample time, shape (n_steps, dim): psi0 stepped
    interval by interval with scipy's dense expm(-i H dt)."""
    H = np.asarray(H, dtype=complex)
    out = [np.asarray(psi0, dtype=complex)]
    for dt in np.diff(times):
        out.append(expm(-1j * H * dt) @ out[-1])
    return np.array(out)
