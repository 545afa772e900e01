"""Bath-mediated emitter-emitter couplings and the zero-energy lattice
resolvent that generates them."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import build_bare_hamiltonian
from .params import EmitterLayout, LatticeParams

_RICHARDSON_DELTA = 1e-3


@dataclass(frozen=True)
class PoleData:
    """Roots of the dispersion polynomial on the unit-circle variable w.

    w_minus lies inside the unit circle (its powers generate the decaying
    envelope), w_plus outside.  kappa is the per-cell decay factor of the
    induced couplings in the uniform (t1 == t2 == J) model.
    """

    w_minus: complex
    w_plus: complex
    discriminant_root: complex
    kappa: complex

    @classmethod
    def from_params(cls, params: LatticeParams) -> "PoleData":
        t1, t2, gamma = params.t1, params.t2, params.gamma
        sq = np.sqrt(complex((t1 ** 2 - t2 ** 2) ** 2 + gamma ** 2 * t2 ** 2))
        w_plus = -(t1 ** 2 + t2 ** 2 + sq) / (t2 * (2 * t1 + gamma))
        w_minus = -(t1 ** 2 + t2 ** 2 - sq) / (t2 * (2 * t1 + gamma))
        kappa = complex((gamma - 2 * t1) / (gamma + 2 * t1))
        return cls(w_minus, w_plus, sq, kappa)


@dataclass(frozen=True)
class CellGreensBlock:
    """2x2 sublattice block of the zero-energy resolvent at cell offset n."""

    n: int
    block: np.ndarray

    @property
    def aa(self) -> complex:
        return complex(self.block[0, 0])

    @property
    def ab(self) -> complex:
        return complex(self.block[0, 1])

    @property
    def ba(self) -> complex:
        return complex(self.block[1, 0])

    @property
    def bb(self) -> complex:
        return complex(self.block[1, 1])


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

    @property
    def n_emitters(self) -> int:
        return self.entries.shape[0]


def interaction_range(gamma: float, j: float) -> float:
    """1/e decay length (in cells) of the induced couplings.

    Zero exactly at gamma = 2J (nearest-neighbour only), infinite at
    gamma = 0 (no decay).
    """
    if j <= 0:
        raise ValueError("hopping j must be positive")
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    kappa = abs((gamma - 2 * j) / (gamma + 2 * j))
    if kappa == 0.0:
        return 0.0
    if kappa >= 1.0:
        return np.inf
    return -1.0 / np.log(kappa)


def _w_matrix(w: complex, t1: float, t2: float, gamma: float) -> np.ndarray:
    """Adjugate of the real-space transfer polynomial at the root variable w."""
    return np.array([
        [1j * gamma * w - 1j * (t2 / 2) * (w ** 2 - 1),
         t1 * w + (t2 / 2) * (w ** 2 + 1)],
        [t1 * w + (t2 / 2) * (w ** 2 + 1),
         1j * (t2 / 2) * (w ** 2 - 1)]], dtype=complex)


def _pole_blocks(n_cells: int, t1: float, t2: float, gamma: float,
                 offsets) -> np.ndarray:
    """Residue-sum evaluation of the periodic zero-energy resolvent blocks.

    Returns the 2x2 blocks G(k) for every integer cell offset k in `offsets`,
    shape (len(offsets), 2, 2).  Dispatches to the confluent double-pole
    expression when gamma == 2*t1 (the w = 0 and w_minus poles merge).
    Callers must keep the geometry non-degenerate: for even rings with
    t1 == t2 a pole sits on the unit circle and the sum diverges.
    """
    scale = max(t1, t2, gamma)
    k = np.asarray(offsets, dtype=int) % n_cells
    if abs(gamma - 2 * t1) < 1e-9 * scale:
        a = -t2 * (t1 + gamma / 2)
        w1 = -(t1 ** 2 + t2 ** 2) / (2 * t1 * t2)
        coef = w1 ** k / (1 - w1 ** n_cells)
        out = coef[:, None, None] * _w_matrix(w1, t1, t2, gamma) / (a * w1 ** 2)
        w0 = _w_matrix(0.0, t1, t2, gamma)
        wp0 = np.array([[1j * gamma, t1], [t1, 0.0]], dtype=complex)
        out[k == 1] -= w0 / (a * w1)
        out[k == 0] -= wp0 / (a * w1)
        out[k == 0] -= w0 / (a * w1 ** 2)
        return out
    pd = PoleData.from_params(LatticeParams(max(n_cells, 2), t1, t2, gamma))
    w1, wm1, sq = pd.w_plus, pd.w_minus, pd.discriminant_root
    g1 = _w_matrix(w1, t1, t2, gamma) / (w1 * sq)
    gm1 = -_w_matrix(wm1, t1, t2, gamma) / (wm1 * sq)
    out = ((w1 ** k / (1 - w1 ** n_cells))[:, None, None] * g1
           + (wm1 ** k / (1 - wm1 ** n_cells))[:, None, None] * gm1)
    out[k == 0] -= np.array([[1j, 1], [1, -1j]], dtype=complex) / (2 * t1 - gamma)
    return out


def _richardson(f, delta: float = _RICHARDSON_DELTA):
    """Two-stage extrapolation of f(delta) -> f(0) for f = f0 + c1 d + c2 d^2."""
    f1, f2, f4 = f(delta), f(delta / 2), f(delta / 4)
    return (4 * (2 * f4 - f2) - (2 * f2 - f1)) / 3


def _degenerate_ring(n_cells: int, t1: float, t2: float) -> bool:
    """Even ring with equal hoppings: a resolvent pole sits on the unit circle."""
    return n_cells % 2 == 0 and abs(t1 - t2) < 1e-12 * max(t1, t2)


def _regularized(ring: int, t1: float, t2: float, f):
    """f(t1, t2), or on a degenerate ring its limit as a small hopping split
    j*(1 -+ d) is extrapolated to zero."""
    if _degenerate_ring(ring, t1, t2):
        j = (t1 + t2) / 2
        return _richardson(lambda d: f(j * (1 - d), j * (1 + d)))
    return f(t1, t2)


def _pbc_bb(params: LatticeParams, offsets) -> np.ndarray:
    """Lossy-lossy ring resolvent entries at the given cell offsets."""
    N = params.n_cells
    return _regularized(N, params.t1, params.t2, lambda t1, t2: _pole_blocks(
        N, t1, t2, params.gamma, offsets)[:, 1, 1])


def _obc_bb(params: LatticeParams, targets, sources) -> np.ndarray:
    """Lossy-lossy open-chain resolvent entries, rows = target cells and
    columns = source cells (1-based).

    The open chain of N cells is realized as an (N+1)-cell ring with cell 0
    projected out: G_bb(m - n) - G(m)[1, :] G(0)^(-1) G(-n)[:, 1], i.e. a
    Toeplitz gather minus one rank-2 correction.
    """
    ring = params.n_cells + 1
    m = np.asarray(targets, dtype=int)
    n = np.asarray(sources, dtype=int)

    def bb(t1, t2):
        G = _pole_blocks(ring, t1, t2, params.gamma, np.arange(ring))
        left = G[m % ring, 1, :]
        right = G[-n % ring, :, 1]
        return (G[(m[:, None] - n[None, :]) % ring, 1, 1]
                - left @ np.linalg.inv(G[0]) @ right.T)

    return _regularized(ring, params.t1, params.t2, bb)


def greens_pbc(params: LatticeParams, n: int) -> CellGreensBlock:
    """Zero-energy resolvent block (0 - H)^(-1) between cells offset by n on
    the N-cell ring, evaluated by residue sums (exact, N-independent cost).

    For even N with t1 == t2 only the lossy-lossy (bb) entry has a finite
    limit; it is obtained by extrapolating a small hopping split to zero and
    the remaining entries are returned as NaN.  Requires gamma > 0.
    """
    if params.gamma <= 0:
        raise ValueError("the zero-energy resolvent requires gamma > 0")
    N = params.n_cells
    if _degenerate_ring(N, params.t1, params.t2):
        block = np.full((2, 2), np.nan, dtype=complex)
        block[1, 1] = _pbc_bb(params, [n])[0]
        return CellGreensBlock(n % N, block)
    return CellGreensBlock(n % N, _pole_blocks(N, params.t1, params.t2,
                                               params.gamma, [n])[0])


def greens_obc(params: LatticeParams, m: int, n: int) -> complex:
    """Lossy-lossy entry of the open-chain zero-energy resolvent between
    cells m and n (1-based).

    The open chain of N cells is realized as an (N+1)-cell ring with one cell
    projected out, so everything reduces to the periodic residue sums.
    """
    if params.gamma <= 0:
        raise ValueError("the zero-energy resolvent requires gamma > 0")
    params.check_cell(m)
    params.check_cell(n)
    return complex(_obc_bb(params, [m], [n])[0, 0])


def _warn_weak_coupling(params: LatticeParams, layout: EmitterLayout) -> None:
    if layout.g >= params.t2 / np.sqrt(params.n_cells):
        warnings.warn(
            f"g = {layout.g} >= t2/sqrt(N) = {params.t2 / np.sqrt(params.n_cells):.4g}; "
            "the second-order coupling matrix may not be quantitatively "
            "accurate", UserWarning, stacklevel=3)


def heff_numeric(params: LatticeParams, layout: EmitterLayout,
                 energy: complex = 0.0) -> EffectiveCouplingMatrix:
    """Effective coupling matrix from the dense lattice resolvent.

    entries[i, j] = g^2 * <b_{cell_i}| (energy - H_field)^(-1) |b_{cell_j}>.
    All emitter columns are solved with one factorization.  Columns whose
    relative residual exceeds 1e-8 (all of them if the solve raises) are
    re-solved as the minimum-norm least-squares resolvent.  When the dense
    system is singular at `energy` (even N with t1 == t2 at zero energy) this
    is the physically relevant branch (it matches the open-boundary
    couplings) but can differ from the finite closed form by a uniform 1/N
    term.
    """
    layout.validate_against(params)
    _warn_weak_coupling(params, layout)
    H = build_bare_hamiltonian(params)
    A = energy * np.eye(H.shape[0], dtype=complex) - H
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


def _asymptotic_entry(s: int, j: float, gamma: float, g: float) -> complex:
    """Large-N coupling from source to a target s cells to its right (s >= 1)."""
    return 1j * 4 * g ** 2 * j * (gamma - 2 * j) ** (s - 1) / (gamma + 2 * j) ** (s + 1)


def heff_closed_form(params: LatticeParams, layout: EmitterLayout,
                     form: str = "auto") -> EffectiveCouplingMatrix:
    """Closed-form effective coupling matrix for the uniform model t1 == t2.

    form:
      * "asymptotic" -- large-N expressions: every off-diagonal coupling is
        purely rightward with magnitude Gamma * |kappa|^(s-1) after s cells,
        the diagonal is the common self-energy -i g^2/(gamma + 2J).  On the
        open chain the wrapped (leftward) entries pick up the boundary sign
        (-1)^(N+1) relative to the ring.
      * "finite" -- exact finite-N residue sums (gamma > 0 only).
      * "auto" -- asymptotic when the chain is many decay lengths long,
        otherwise fall back to "finite" with a warning.
    """
    layout.validate_against(params)
    if not params.uniform:
        raise ValueError("closed forms require t1 == t2")
    if form not in ("auto", "finite", "asymptotic"):
        raise ValueError(f"unknown form {form!r}")
    _warn_weak_coupling(params, layout)
    j, gamma, g = params.t1, params.gamma, layout.g
    N = params.n_cells
    lam = interaction_range(gamma, j)

    if form == "auto":
        if gamma == 0:
            form = "asymptotic"
            warnings.warn(
                "gamma = 0: couplings do not decay, the asymptotic form is "
                "only indicative at finite N", UserWarning, stacklevel=2)
        elif N >= 21 * lam:
            form = "asymptotic"
        else:
            form = "finite"
            warnings.warn(
                f"chain length N = {N} is not large against the interaction "
                f"range {lam:.3g}; using finite-size residue sums",
                UserWarning, stacklevel=2)
    if form == "finite" and gamma == 0:
        raise ValueError("finite-size residue sums require gamma > 0")

    if form == "asymptotic":
        ne = layout.n_emitters
        entries = np.empty((ne, ne), dtype=complex)
        diag = -1j * g ** 2 / (gamma + 2 * j)
        for i, ci in enumerate(layout.cells):
            for k, ck in enumerate(layout.cells):
                if ci == ck:
                    entries[i, k] = diag
                    continue
                s = (ci - ck) % N
                val = _asymptotic_entry(s, j, gamma, g)
                if not params.periodic and ci < ck:
                    val *= (-1) ** (N + 1)  # wrapped pairs feel the cut
                entries[i, k] = val
        method = "closed_form_asymptotic"
    else:
        cells = np.array(layout.cells)
        if params.periodic:
            bb = _pbc_bb(params, np.arange(N))[(cells[:, None] - cells[None, :]) % N]
        else:
            bb = _obc_bb(params, cells, cells)
        entries = g ** 2 * bb
        method = "closed_form_finite"
    return EffectiveCouplingMatrix(entries, method, params.boundary,
                                   layout.cells, g)
