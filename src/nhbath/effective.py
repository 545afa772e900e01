"""Bath-mediated emitter-emitter couplings and the zero-energy lattice
resolvent that generates them."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .lattice import build_bare_hamiltonian
from .params import OPEN, EmitterLayout, LatticeParams, finite, require_positive


@dataclass
class EffectiveCouplingMatrix:
    """Second-order emitter-emitter coupling matrix.

    entries[i, j] is the coupling driving emitter i from emitter j (row =
    target, column = source), in the order of `cells`.  method records how it
    was computed: "numeric", "closed_form_finite" or "closed_form_asymptotic".
    """

    entries: np.ndarray
    method: str
    boundary: str
    cells: tuple
    g: float


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


def heff_numeric(params: LatticeParams,
                 layout: EmitterLayout) -> EffectiveCouplingMatrix:
    """Effective coupling matrix from the dense lattice resolvent.

    entries[i, j] = g^2 * <b_{cell_i}| (0 - H_field)^(-1) |b_{cell_j}>.
    All emitter columns are solved with one factorization.  Columns whose
    relative residual exceeds 1e-8 (all of them if the solve raises) are
    re-solved as the minimum-norm least-squares resolvent.
    """
    layout.validate_against(params)
    H = build_bare_hamiltonian(params)
    A = 0.0 - H  # not -H, whose -0.0 zeros change the solution's last bits
    rows = np.array([params.b_index(c) for c in layout.cells])
    rhs = np.zeros((H.shape[0], layout.n_emitters), dtype=complex)
    rhs[rows, np.arange(layout.n_emitters)] = 1.0
    try:
        x = np.linalg.solve(A, rhs)
        resid = np.linalg.norm(A @ x - rhs, axis=0)
        bad = ~(resid <= 1e-8 * np.linalg.norm(rhs, axis=0))
    except np.linalg.LinAlgError:
        x = np.empty_like(rhs)
        bad = np.ones(layout.n_emitters, dtype=bool)
    if bad.any():
        x[:, bad] = np.linalg.lstsq(A, rhs[:, bad], rcond=None)[0]
    entries = layout.g ** 2 * x[rows]
    return EffectiveCouplingMatrix(entries, "numeric", params.boundary,
                                   layout.cells, layout.g)


def heff_closed_form(params: LatticeParams, layout: EmitterLayout,
                     form: str) -> EffectiveCouplingMatrix:
    """Closed-form effective coupling matrix for the uniform model t1 == t2.

    entries = g^2 G_bb between the emitter cells (see `_bb_resolvent`): the
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
    entries = layout.g ** 2 * _bb_resolvent(params, cells, cells,
                                            finite=form == "finite")
    return EffectiveCouplingMatrix(entries, f"closed_form_{form}",
                                   params.boundary, cells, layout.g)
