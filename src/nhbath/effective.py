"""Bath-mediated emitter-emitter couplings and the zero-energy lattice
resolvent that generates them."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.linalg import solve_banded

from .lattice import build_bare_hamiltonian
from .params import OPEN, EmitterLayout, LatticeParams, finite, require_positive
from .spectral import bloch_matrix


def interaction_range(gamma: float, j: float) -> float:
    """1/e decay length (in cells) of the induced couplings.

    Zero exactly at gamma = 2J (nearest-neighbour only), infinite at
    gamma = 0 (no decay).
    """
    require_positive("hopping j", j)
    if not (finite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
    kappa = abs((gamma - 2 * j) / (gamma + 2 * j))
    if kappa == 0.0:
        return 0.0
    if kappa >= 1.0:
        return np.inf
    return -1.0 / np.log(kappa)


def _bb_resolvent(params: LatticeParams, targets, sources,
                  finite: bool) -> np.ndarray:
    """Lossy-lossy entries of the zero-energy resolvent (0 - H)^(-1) of the
    uniform model (t1 == t2 == J), rows = target cells and columns = source
    cells (1-based).

    The Bloch bb entry i(w - 1)/((gamma + 2J)(1 - kappa w)), w = e^(iq), has
    the single pole 1/kappa, kappa = (gamma - 2J)/(gamma + 2J), so a source
    drives a target s = d mod N cells to its right (d = target - source) with
    T(s) = kappa^(s-1) (1 - kappa) and itself with T(0) = -1, and
    G_bb = i T / (gamma + 2J).  The open chain is the ring with wrap sign
    sigma = (-1)^(N+1) (sigma = 1 on the ring), picked up by every leftward
    pair (d < 0).  `finite` sums the images around the ring:
    T(0) = sigma kappa^(N-1) - 1 and every entry is divided by
    1 - sigma kappa^N; otherwise the large-N limit is returned.  Exact for
    every N: the q = pi dark mode of even rings lives on the a sublattice only.
    """
    N, j, gamma = params.n_cells, params.t1, params.gamma
    kappa = (gamma - 2 * j) / (gamma + 2 * j)
    sigma = 1 if params.periodic else (-1) ** (N + 1)
    d = np.subtract.outer(targets, sources)
    s = d % N
    T = (np.where(d < 0, sigma, 1) * kappa ** np.maximum(s - 1, 0)
         * (1 - kappa))
    T[s == 0] = sigma * kappa ** (N - 1) - 1 if finite else -1
    if finite:
        T = T / (1 - sigma * kappa ** N)
    return 1j * T / (gamma + 2 * j)


def closed_form_problems(params: LatticeParams, form: str) -> list:
    """Why `heff_closed_form` cannot compute `form` here; empty when it can."""
    if form not in ("finite", "asymptotic"):
        return [f"unknown form {form!r}"]
    problems = []
    if not params.uniform:
        problems.append(f"{form} closed forms require t1 == t2")
    if form == "finite" and params.gamma == 0:
        problems.append("the finite closed form requires gamma > 0")
    return problems


def greens_obc(params: LatticeParams, m: int, n: int) -> complex:
    """Lossy-lossy entry of the open-chain zero-energy resolvent between
    cells m and n (1-based), for the uniform model t1 == t2 and gamma > 0."""
    if problems := closed_form_problems(params, "finite"):
        raise ValueError("; ".join(problems))
    params.check_cell(m)
    params.check_cell(n)
    chain = replace(params, boundary=OPEN)
    return complex(_bb_resolvent(chain, [m], [n], finite=True)[0, 0])


def heff_numeric(params: LatticeParams, layout: EmitterLayout) -> np.ndarray:
    """Effective coupling matrix from the exact lattice resolvent, shape
    (n_emitters, n_emitters) in layout order: entry [i, j] is the coupling
    driving emitter i from emitter j (row = target, column = source),
    g^2 * <b_{cell_i}| (0 - H_field)^(-1) |b_{cell_j}>.
    Open chain: one banded LU of 0 - H (bandwidth 3 in the (a1, b1, ...)
    order) for all columns; it is never singular (for gamma > 0 a null
    vector would avoid the lossy cavities, and the a rows then zero it; at
    gamma = 0, |det H| = t1^(2N)).  Ring: 0 - H is block circulant, so the
    entry at cell distance d is the DFT over q = 2 pi k/N of the bb entry
    of (0 - bloch_matrix(q))^(-1), exactly circulant.  With sin(pi) set to
    exactly 0, the q = pi block is singular iff t1 == t2, and its
    pseudo-inverse gives the minimum-norm resolvent (the DFT is unitary).
    """
    layout.validate_against(params)
    cells = np.array(layout.cells)
    n = params.n_cells
    if params.periodic:
        m = -bloch_matrix(params, 2 * np.pi * np.arange(n) / n)
        if n % 2 == 0:
            m[n // 2, 0, 0], m[n // 2, 1, 1] = 0.0, 1j * params.gamma
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] ** 2
        singular = det == 0
        bb = np.empty(n, dtype=complex)
        bb[singular] = np.linalg.pinv(m[singular])[:, 1, 1]
        np.divide(m[:, 0, 0], det, out=bb, where=~singular)  # (m^-1)_bb
        g_d = np.fft.fft(bb) / n
        return layout.g ** 2 * g_d[np.subtract.outer(cells, cells) % n]
    A = build_bare_hamiltonian(params).tocoo()
    ab = np.zeros((7, params.n_modes), dtype=complex)
    ab[3 + A.row - A.col, A.col] = -A.data
    rows = params.b_index(cells)
    rhs = np.zeros((params.n_modes, cells.size), dtype=complex)
    rhs[rows, np.arange(cells.size)] = 1.0
    return layout.g ** 2 * solve_banded((3, 3), ab, rhs)[rows]


def heff_closed_form(params: LatticeParams, layout: EmitterLayout,
                     form: str) -> np.ndarray:
    """Closed-form effective coupling matrix for the uniform model t1 == t2,
    laid out as `heff_numeric`'s.

    It is g^2 G_bb between the emitter cells (see `_bb_resolvent`): the
    diagonal is the self-energy, a coupling s cells to the right has
    magnitude 4 J g^2 |kappa|^(s-1) / (gamma + 2J)^2, and on the open chain
    leftward couplings carry the boundary sign (-1)^(N+1).

    form:
      * "finite" -- exact for every N (gamma > 0 only).
      * "asymptotic" -- the large-N limit: the images around the ring are
        dropped.
    """
    layout.validate_against(params)
    if problems := closed_form_problems(params, form):
        raise ValueError("; ".join(problems))
    cells = layout.cells
    return layout.g ** 2 * _bb_resolvent(params, cells, cells,
                                         finite=form == "finite")
