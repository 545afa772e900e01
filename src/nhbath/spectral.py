"""Band structure, boundary spectra, defectivity and point-gap topology."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

# re-exported: the benchmark's tracer (perfbench/tracing.py) wraps this name
# here, although open-chain spectra no longer assemble the dense Hamiltonian
from .lattice import build_bare_hamiltonian
from .params import LatticeParams, require_count

__all__ = ["SpectrumResult", "bloch_matrix", "bloch_spectrum", "obc_spectrum",
           "band_centroid", "point_gap_winding", "build_bare_hamiltonian"]


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


@dataclass
class SpectrumResult:
    """Complex eigenvalues of the array, with non-normality diagnostics.

    `defectivity` drops to 0 where the spectrum becomes defective.  For
    periodic spectra assembled from Bloch blocks it is the worst reciprocal
    condition number (smallest over largest singular value) of a block's
    eigenvector matrix, and `q_values` holds the quasimomentum of each
    eigenvalue.  For the open chain it is 1/cond(S) =
    |(t1 - gamma/2)/(t1 + gamma/2)|^(N/2), where S is the diagonal
    similarity of the imaginary gauge (see `obc_spectrum`): exactly 0 at the
    exceptional point gamma = 2*t1 and 1 without loss.
    """

    eigenvalues: np.ndarray
    boundary: str
    defectivity: float
    q_values: Optional[np.ndarray] = None


def _defectivity(vectors: np.ndarray) -> float:
    """Worst reciprocal condition number over a stack of eigenvector matrices."""
    s = np.linalg.svd(vectors, compute_uv=False)
    return float(np.min(s[..., -1] / s[..., 0]))


def bloch_spectrum(params: LatticeParams) -> SpectrumResult:
    """All 2N eigenvalues of the periodic array from its N Bloch blocks."""
    if not params.periodic:
        raise ValueError("bloch_spectrum requires periodic boundary conditions")
    n = params.n_cells
    q = 2 * np.pi * np.arange(n) / n
    bm = bloch_matrix(params, q)
    # eigenvalues from eigvals, vectors from eig: LAPACK takes another path
    # when it also computes vectors, and spectrum.csv writes the eigenvalues
    _, vecs = np.linalg.eig(bm)
    return SpectrumResult(np.linalg.eigvals(bm).ravel(), params.boundary,
                          _defectivity(vecs), q_values=np.repeat(q, 2))


def obc_spectrum(params: LatticeParams) -> SpectrumResult:
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
    defect = abs((t1 - gamma / 2) / (t1 + gamma / 2)) ** (n / 2)
    return SpectrumResult(evs - 0.5j * gamma, params.boundary, defect)


def band_centroid(params: LatticeParams, band: str = "upper",
                  n_points: int = 512) -> complex:
    """Mean of one eigenvalue branch over the Brillouin zone.

    Branches are sorted by real part at each q; band is "upper" (larger real
    part) or "lower".  Useful as a reference energy inside one spectral loop.
    """
    if band not in ("upper", "lower"):
        raise ValueError("band must be 'upper' or 'lower'")
    require_count("n_points", n_points, 1)
    pick = -1 if band == "upper" else 0
    qs = 2 * np.pi * np.arange(n_points) / n_points
    ev = np.linalg.eigvals(bloch_matrix(params, qs))
    branch = ev[np.arange(n_points), np.argsort(ev.real, axis=1)[:, pick]]
    return complex(branch.mean())


def point_gap_winding(params: LatticeParams, e0: complex,
                      n_points: int = 4096) -> int:
    """Integer winding of det(B(q) - e0) around zero as q sweeps the zone.

    The sweep takes n_points >= 2 steps (one step from q = 0 to 2*pi would
    return to its start).  Raises if the boundary is not periodic or if e0
    (numerically) touches the spectral curve, where the winding is undefined.
    """
    if not params.periodic:
        raise ValueError("point-gap winding is defined for the periodic array")
    require_count("n_points", n_points, 2)
    m = int(n_points)
    for _ in range(3):
        qs = np.arange(m + 1) * (2 * np.pi / m)
        b = bloch_matrix(params, qs)
        dets = (b[:, 0, 0] - e0) * (b[:, 1, 1] - e0) - b[:, 0, 1] * b[:, 1, 0]
        scale = (params.t1 + params.t2 + params.gamma + abs(e0)) ** 2
        if np.min(np.abs(dets)) < 1e-12 * scale:
            raise ValueError("reference energy lies on the spectral curve")
        phases = np.unwrap(np.angle(dets))
        steps = np.abs(np.diff(phases))
        total = phases[-1] - phases[0]
        w = total / (2 * np.pi)
        if steps.max() < 1.0 and abs(w - round(w)) < 1e-6:
            return int(round(w))
        m *= 4  # refine when the discretization is too coarse
    raise ValueError("winding did not converge; reference energy may be "
                     "too close to the spectral curve")
