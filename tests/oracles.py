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
`dense_hamiltonian` writes the Hamiltonian entry by entry into a dense
array, which `nhbath.lattice` assembles as CSR from index arrays.
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
    """U M U^dag, dense, for a sparse original-picture operator M whose
    photon block starts at row/column `n_emitters`."""
    M = M.toarray()
    U = picture_unitary((M.shape[0] - n_emitters) // 2, n_emitters)
    return U @ M @ U.conj().T


def dense_obc_eig(params):
    """Eigenvalues and unit right eigenvectors (columns) of the dense
    open-chain Hamiltonian, from LAPACK's nonsymmetric `eig`.  Accurate only
    on short chains away from the exceptional point."""
    return np.linalg.eig(build_bare_hamiltonian(params).toarray())


def mp_obc_eigenvalues(params, digits=80):
    """Eigenvalues of the dense open-chain Hamiltonian in extended precision
    (its float entries are exact), rounded to complex128."""
    H = build_bare_hamiltonian(params).toarray()
    with mp.workdps(digits):
        evs = mp.eig(mp.matrix(H.tolist()), left=False, right=False)
        return np.array([complex(e) for e in evs])


def hausdorff(x, y):
    """Hausdorff distance between two finite sets of complex numbers."""
    d = np.abs(np.asarray(x)[:, None] - np.asarray(y)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def expm_stepped(H, psi0, times):
    """States at every sample time, shape (n_steps, dim): psi0 stepped
    interval by interval with scipy's dense expm(-i H dt) of a sparse H."""
    H = H.toarray()
    out = [np.asarray(psi0, dtype=complex)]
    for dt in np.diff(times):
        out.append(expm(-1j * H * dt) @ out[-1])
    return np.array(out)


def dense_hamiltonian(params, cells=(), g=0.0):
    """The lattice Hamiltonian written into a dense array one entry at a
    time, cell by cell: an emitter per entry of `cells` first, each coupled
    with rate g to the lossy cavity b of its cell, then a_1, b_1, ..., a_N,
    b_N.  Each cell holds t1 between a and b and the loss -i*gamma on b; each
    link to the next cell (the seam N -> 1 only on the ring) holds -i t2/2
    (a -> a), t2/2 (a -> b and b -> a) and +i t2/2 (b -> b), each entered
    together with its complex conjugate on the way back."""
    ne, n = len(cells), params.n_cells
    t1, t2 = params.t1, params.t2
    H = np.zeros((ne + 2 * n, ne + 2 * n), dtype=complex)

    def a(c):
        return ne + 2 * (c - 1)

    def b(c):
        return ne + 2 * (c - 1) + 1

    for c in range(1, n + 1):
        H[a(c), b(c)] += t1
        H[b(c), a(c)] += t1
        H[b(c), b(c)] += -1j * params.gamma
        if c == n and not params.periodic:
            continue
        d = c % n + 1
        for row, col, value in ((a(c), a(d), -0.5j * t2), (a(c), b(d), t2 / 2),
                                (b(c), a(d), t2 / 2), (b(c), b(d), 0.5j * t2)):
            H[row, col] += value
            H[col, row] += np.conj(value)
    for e, c in enumerate(cells):
        H[e, b(c)] = H[b(c), e] = g
    return H
