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
`sampled_winding` unwraps the phase of det(B(q) - e0) on a fine q-grid,
where `nhbath.point_gap_winding` counts the roots of a quadratic.
`mp_chain_resolvent_bb` builds the open-chain resolvent from the three-term
recurrences of its tridiagonal mapped-picture form in extended precision,
where `nhbath.heff_numeric` takes a banded LU of the original-picture one.
"""
import mpmath as mp
import numpy as np
from scipy.linalg import expm

from nhbath import bloch_matrix, build_bare_hamiltonian, intracell_unitary


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
    interval by interval with scipy's dense expm(-i H dt) of a sparse H,
    formed once for each distinct interval length dt."""
    H = H.toarray()
    dts = np.diff(times)
    steps = {dt: expm(-1j * H * dt) for dt in set(dts.tolist())}
    out = [np.asarray(psi0, dtype=complex)]
    for dt in dts.tolist():
        out.append(steps[dt] @ out[-1])
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


def sampled_winding(params, e0):
    """Winding of det(B(q) - e0) around zero from its unwrapped phase at
    equally spaced q from 0 to 2 pi, on a grid doubled from 4096 steps
    until no step of the phase exceeds 1 rad, so that it resolves the loop."""
    n_points = 2 ** 12
    while True:
        q = np.linspace(0.0, 2 * np.pi, n_points + 1)
        det = np.linalg.det(bloch_matrix(params, q) - e0 * np.eye(2))
        phase = np.unwrap(np.angle(det))
        if np.abs(np.diff(phase)).max() < 1.0:
            break
        assert n_points < 2 ** 24, "e0 too close to the spectral curve"
        n_points *= 2
    w = (phase[-1] - phase[0]) / (2 * np.pi)
    assert abs(w - round(w)) < 1e-6
    return int(round(w))


def mp_chain_resolvent_bb(params, digits=50):
    """bb entries (rows = target cells) of the open-chain resolvent
    (0 - H)^(-1), from the model parameters alone, in O(N^2).

    In the mapped picture (alpha_1, beta_1, alpha_2, ...) the bare open
    chain is tridiagonal: on-site loss -i gamma/2, intra-cell hoppings
    t1 + gamma/2 (alpha -> beta column to row, above the diagonal) and
    t1 - gamma/2 (below), inter-cell hopping t2 both ways.  A = 0 - T has
    diagonal a_k, super-diagonal b_k and sub-diagonal c_k; with
    theta_0 = 1, theta_k = a_k theta_(k-1) - b_(k-1) c_(k-1) theta_(k-2)
    and phi_(n+1) = 1, phi_k = a_k phi_(k+1) - b_k c_k phi_(k+2),
    (A^-1)_ij = (-1)^(i+j) b_i...b_(j-1) theta_(i-1) phi_(j+1) / theta_n
    for i <= j and (-1)^(i+j) c_j...c_(i-1) theta_(j-1) phi_(i+1) / theta_n
    for i > j (Usmani, Linear Algebra Appl. 212/213, 413 (1994)), so each
    triangle is an outer product of two vectors.  The hopping products are
    ratios of prefix products, so every hopping must be non-zero
    (gamma != 2 t1).  Rotated back by the cell unitary
    u = [[1, i], [i, 1]]/sqrt(2), the b-b entry between cells i and j is
    (G_aa + G_bb - i G_ab + i G_ba)/2 of the mapped (alpha, beta) blocks.
    """
    n = 2 * params.n_cells
    with mp.workdps(digits):
        t1, t2, gamma = (mp.mpf(x) for x in (params.t1, params.t2,
                                             params.gamma))
        a = mp.mpc(0, gamma / 2)  # 0 - (-i gamma/2)
        # 1-based b_k = A[k, k+1], c_k = A[k+1, k]: odd k within a cell
        b = [None] + [-(t1 + gamma / 2) if k % 2 else -t2 for k in range(1, n)]
        c = [None] + [-(t1 - gamma / 2) if k % 2 else -t2 for k in range(1, n)]
        theta = [mp.mpc(1), a]
        for k in range(2, n + 1):
            theta.append(a * theta[k - 1] - b[k - 1] * c[k - 1] * theta[k - 2])
        phi = [None] * (n + 2)
        phi[n + 1], phi[n] = mp.mpc(1), a
        for k in range(n - 1, 0, -1):
            phi[k] = a * phi[k + 1] - b[k] * c[k] * phi[k + 2]
        pb, pc = [mp.mpf(1)], [mp.mpf(1)]  # prefix products of b, c
        for k in range(1, n):
            pb.append(pb[-1] * b[k])
            pc.append(pc[-1] * c[k])
        # (A^-1)_ij = x_i y_j for i <= j and u_i v_j for i > j
        sign = [None] + [(-1) ** k for k in range(1, n + 1)]
        x = [None] + [sign[i] * theta[i - 1] / pb[i - 1]
                      for i in range(1, n + 1)]
        y = [None] + [sign[j] * pb[j - 1] * phi[j + 1] / theta[n]
                      for j in range(1, n + 1)]
        u = [None] + [sign[i] * pc[i - 1] * phi[i + 1] / theta[n]
                      for i in range(1, n + 1)]
        v = [None] + [sign[j] * theta[j - 1] / pc[j - 1]
                      for j in range(1, n + 1)]

        def inv(i, j):
            return x[i] * y[j] if i <= j else u[i] * v[j]

        def bb(ci, cj):
            al, be = 2 * ci - 1, 2 * ci  # 1-based rows of target cell ci
            ar, br = 2 * cj - 1, 2 * cj
            return complex((inv(al, ar) + inv(be, br)
                            + mp.j * (inv(be, ar) - inv(al, br))) / 2)

        cells = range(1, params.n_cells + 1)
        return np.array([[bb(ci, cj) for cj in cells] for ci in cells])
