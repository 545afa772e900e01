"""Band structure, boundary spectra, defectivity and point-gap topology."""
from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

# re-exported: the benchmark's tracer (perfbench/tracing.py) wraps this name
# here, although open-chain spectra no longer assemble the dense Hamiltonian
from .lattice import build_bare_hamiltonian
from .params import LatticeParams

__all__ = ["bloch_matrix", "bloch_spectrum", "obc_spectrum", "obc_defectivity",
           "point_gap_winding", "build_bare_hamiltonian"]


def bloch_matrix(params: LatticeParams, q) -> np.ndarray:
    """Momentum-space Hamiltonian of the translation-invariant array, at a
    scalar q or at every entry of an array of q: shape q.shape + (2, 2).

    Off-diagonal t1 + t2 cos q; diagonal -+ t2 sin q, with the loss -i*gamma
    on the lossy sublattice.
    """
    q = np.asarray(q, dtype=float)
    off = params.t1 + params.t2 * np.cos(q)
    s = params.t2 * np.sin(q)
    m = np.empty(q.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = -s
    m[..., 0, 1] = off
    m[..., 1, 0] = off
    m[..., 1, 1] = s - 1j * params.gamma
    return m


def bloch_spectrum(params: LatticeParams) -> tuple:
    """All 2N eigenvalues of the periodic array from its N Bloch blocks, and
    the quasimomentum q of each: (eigenvalues, q_values)."""
    if not params.periodic:
        raise ValueError("bloch_spectrum requires periodic boundary conditions")
    n = params.n_cells
    q = 2 * np.pi * np.arange(n) / n
    return np.linalg.eigvals(bloch_matrix(params, q)).ravel(), np.repeat(q, 2)


def obc_spectrum(params: LatticeParams) -> np.ndarray:
    """Spectrum of the finite open chain from its imaginary-gauge chain.

    Rotated cell by cell into the mapped picture (`lattice.rotate_cells`),
    the chain has intra-cell hoppings t1 +- gamma/2, inter-cell t2 and
    on-site -i*gamma/2.  It is tridiagonal, so a diagonal similarity leaves
    its spectrum a function of the hopping products p = t1^2 - gamma^2/4 and
    t2^2 alone (Hatano & Nelson, PRL 77, 570 (1996); Yao & Wang, PRL 121,
    086803 (2018)).  For p >= 0 the gauge chain with intra-cell hopping
    sqrt(p) is real symmetric and `eigh_tridiagonal` solves it in O(N^2); at
    p = 0, the exceptional point, it splits into dimers.  For p < 0 the real
    chain with intra-cell hoppings +sqrt(-p) and -sqrt(-p), similar by a
    diagonal unitary to the complex-symmetric gauge chain, goes to dense
    `eigvals`.  The uniform shift -i*gamma/2 is added last.
    """
    if params.periodic:
        raise ValueError("obc_spectrum requires open boundary conditions")
    n, t1, gamma = params.n_cells, params.t1, params.gamma
    p = t1 ** 2 - gamma ** 2 / 4
    off = np.full(2 * n - 1, params.t2, dtype=float)
    off[0::2] = np.sqrt(abs(p))
    if p >= 0:
        evs = eigh_tridiagonal(np.zeros(2 * n), off, eigvals_only=True)
    else:
        lower = off.copy()
        lower[0::2] *= -1
        evs = np.linalg.eigvals(np.diag(off, 1) + np.diag(lower, -1))
    return evs - 0.5j * gamma


def obc_defectivity(params: LatticeParams) -> float:
    """Non-normality of the open chain: 1/cond(S) =
    |(t1 - gamma/2)/(t1 + gamma/2)|^(N/2), where S is the diagonal
    similarity of the imaginary gauge (see `obc_spectrum`).  It drops to
    exactly 0 at the exceptional point gamma = 2*t1, where the spectrum
    becomes defective, and is 1 without loss.
    """
    if params.periodic:
        raise ValueError("obc_defectivity requires open boundary conditions")
    t1, gamma = params.t1, params.gamma
    return abs((t1 - gamma / 2) / (t1 + gamma / 2)) ** (params.n_cells / 2)


def point_gap_winding(params: LatticeParams, e0: complex) -> int:
    """Integer winding of det(B(q) - e0) around zero as q sweeps the zone.

    With z = exp(iq) the determinant is c + a z + b/z, where
    a = t2 (gamma/2 - t1), b = -t2 (t1 + gamma/2) and
    c = e0 (e0 + i gamma) - t1^2 - t2^2, so the winding is the number of
    roots of a z^2 + c z + b inside the unit circle minus one, for the pole
    at z = 0.  At gamma = 2 t1, a = 0 and the quadratic is linear.  Raises
    if the boundary is not periodic or if e0 lies on the spectral curve,
    where the winding is undefined: |det(B(q) - e0)| < 1e-12 (t1 + t2 +
    gamma + |e0|)^2 at the q of a root, z/|z|.  (The root's modulus alone
    would miss a band edge, where rounding splits a double root on the
    circle by ~1e-8.)
    """
    if not params.periodic:
        raise ValueError("point-gap winding is defined for the periodic array")
    t1, t2, gamma = params.t1, params.t2, params.gamma
    c = e0 * (e0 + 1j * gamma) - t1 ** 2 - t2 ** 2
    poly = [t2 * (gamma / 2 - t1), c, -t2 * (t1 + gamma / 2)]
    roots = np.roots(poly)
    scale = (t1 + t2 + gamma + abs(e0)) ** 2
    if np.any(np.abs(np.polyval(poly, roots / np.abs(roots))) < 1e-12 * scale):
        raise ValueError("reference energy lies on the spectral curve")
    return int(np.count_nonzero(np.abs(roots) < 1)) - 1
