"""Band structure, boundary spectra, defectivity and point-gap topology."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .lattice import build_bare_hamiltonian
from .params import LatticeParams


@dataclass(frozen=True)
class BlochMatrix:
    """2x2 momentum-space Hamiltonian at quasimomentum q, or a stack of them,
    shape q.shape + (2, 2), for an array of q."""

    q: Union[float, np.ndarray]
    matrix: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix)

    def determinant(self, e0: complex = 0.0):
        """det(matrix - e0), the quantity whose phase winds around loops."""
        m = self.matrix
        d = (m[..., 0, 0] - e0) * (m[..., 1, 1] - e0) - m[..., 0, 1] * m[..., 1, 0]
        return complex(d) if d.ndim == 0 else d


def bloch_matrix(params: LatticeParams, q) -> BlochMatrix:
    """Momentum-space Hamiltonian of the translation-invariant array, at a
    scalar q or at every entry of an array of q.

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
    return BlochMatrix(q if q.ndim else float(q), m)


@dataclass
class SpectrumResult:
    """Complex eigenvalues of the array, with non-normality diagnostics.

    `defectivity` is the reciprocal condition number (smallest over largest
    singular value) of the right-eigenvector matrix; it drops to ~0 when the
    spectrum becomes defective.  For periodic spectra assembled from Bloch
    blocks, `q_values` holds the quasimomentum of each eigenvalue and the
    defectivity is the worst over all blocks.
    """

    eigenvalues: np.ndarray
    boundary: str
    defectivity: float
    q_values: Optional[np.ndarray] = None
    right_vectors: Optional[np.ndarray] = None

    @property
    def n_levels(self) -> int:
        return self.eigenvalues.size


def _defectivity(vectors: np.ndarray) -> float:
    """Worst reciprocal condition number over a stack of eigenvector matrices."""
    s = np.linalg.svd(vectors, compute_uv=False)
    return float(np.min(s[..., -1] / s[..., 0]))


def bloch_spectrum(params: LatticeParams) -> SpectrumResult:
    """All 2N eigenvalues of the periodic array from its N Bloch blocks."""
    if not params.periodic:
        raise ValueError("bloch_spectrum requires periodic boundary conditions")
    n = params.n_cells
    bm = bloch_matrix(params, 2 * np.pi * np.arange(n) / n)
    # eigenvalues from eigvals, vectors from eig: LAPACK takes another path
    # when it also computes vectors, and spectrum.csv writes the eigenvalues
    _, vecs = np.linalg.eig(bm.matrix)
    return SpectrumResult(bm.eigenvalues().ravel(), params.boundary,
                          _defectivity(vecs), q_values=np.repeat(bm.q, 2))


def dense_spectrum(params: LatticeParams) -> SpectrumResult:
    """Eigen-decomposition of the dense real-space Hamiltonian; column k of
    `right_vectors` is the right eigenvector of eigenvalue k."""
    evs, right = np.linalg.eig(build_bare_hamiltonian(params))
    return SpectrumResult(evs, params.boundary, _defectivity(right),
                          right_vectors=right)


def obc_spectrum(params: LatticeParams) -> SpectrumResult:
    """Spectrum of the finite open chain."""
    if params.periodic:
        raise ValueError("obc_spectrum requires open boundary conditions")
    return dense_spectrum(params)


def band_centroid(params: LatticeParams, band: str = "upper",
                  n_points: int = 512) -> complex:
    """Mean of one eigenvalue branch over the Brillouin zone.

    Branches are sorted by real part at each q; band is "upper" (larger real
    part) or "lower".  Useful as a reference energy inside one spectral loop.
    """
    if band not in ("upper", "lower"):
        raise ValueError("band must be 'upper' or 'lower'")
    pick = -1 if band == "upper" else 0
    qs = 2 * np.pi * np.arange(n_points) / n_points
    ev = bloch_matrix(params, qs).eigenvalues()
    branch = ev[np.arange(n_points), np.argsort(ev.real, axis=1)[:, pick]]
    return complex(branch.mean())


def point_gap_winding(params: LatticeParams, e0: complex,
                      n_points: int = 4096) -> int:
    """Integer winding of det(B(q) - e0) around zero as q sweeps the zone.

    Raises if the boundary is not periodic or if e0 (numerically) touches the
    spectral curve, where the winding is undefined.
    """
    if not params.periodic:
        raise ValueError("point-gap winding is defined for the periodic array")
    m = int(n_points)
    for _ in range(3):
        qs = np.arange(m + 1) * (2 * np.pi / m)
        dets = bloch_matrix(params, qs).determinant(e0)
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
