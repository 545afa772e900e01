"""Non-unitary time evolution and derived observables."""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_array, diags_array

from .params import require_count, require_index, require_positive


def _taylor_degree(x: float) -> int:
    """Least m with x^(m+1)/(m+1)! * e^x <= 2^-53: then the degree-m Taylor
    polynomial T_m(B) of exp(B) obeys ||exp(B) - T_m(B)||_1 <= 2^-53 for
    every matrix B with ||B||_1 <= x, normal or not."""
    m, bound = 0, x * math.exp(x)
    while bound > 2.0 ** -53:
        m += 1
        bound *= x / (m + 1)
    return m


def _chunks(norm: float, times: np.ndarray):
    """The plan of `_taylor_steps` at ||B||_1 = `norm`: (i, j, s, m) for each
    chunk times[i..j]: the most intervals (at least one) whose span T keeps
    x = norm * T <= 2, taken in s = max(1, ceil(x/2)) substeps of degree
    m = _taylor_degree(x/s)."""
    i = 0
    while i < times.size - 1:
        j = i + max(1, int(np.searchsorted(norm * (times[i:] - times[i]), 2,
                                           side="right")) - 1)
        x = norm * (times[j] - times[i])
        s = max(1, math.ceil(x / 2))
        yield i, j, s, _taylor_degree(x / s)
        i = j


def _taylor_steps(H: csr_array, shift, psi: np.ndarray, times: np.ndarray,
                  diag: np.ndarray):
    """Yield the solution of i d(psi)/dt = (H + diag + shift) psi at every
    sample time, for one state `psi` (shape (dim,), `diag` (dim,), scalar
    `shift`) or for a block of states (dim, n_sys) whose column k evolves
    under H + diag(diag[:, k]) + shift[k] I.  H holds no diagonal entry;
    every system shares it.

    The scalar part is the exact factor exp(-i shift tau) at offset tau into
    a chunk of `_chunks`.  Each chunk of span T forms once per substep the
    terms v_j = (-i B T/s)^j psi / j! of exp(-i B T/s) psi, B = H + diag,
    j <= m (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011), §5),
    each one product by H and one by the diagonal.  A sample at tau is
    sum_j (tau/T)^j v_j, one weighted sum of the stored terms, within the
    same a-priori bound, which grows with ||B||_1 tau; only chunk ends are
    propagated.  ||B||_1 is computed exactly, once: the largest column sum
    of any system.  With `shift` each system's mean diagonal (their §3.1),
    B is the traceless part, in which the loss -i gamma on the b sites is
    about -i gamma/2 there and +i gamma/2 on the a sites.  At x = ||B||_1
    T/s in (1, 2] the degree is 18-24, so a unit of ||B||_1 t costs about
    12-14 terms however fine the grid, while the terms x^j/j! peak at 2
    and the rounding stays small.
    """
    norm = float((abs(diag).T + abs(H).sum(axis=0)).max())
    plan = list(_chunks(norm, times))
    terms = np.empty((max(m for *_, m in plan) + 1,) + psi.shape, complex)
    yield psi
    for i, j, s, m in plan:
        span = float(times[j] - times[i])
        v = terms[:m + 1]
        for sub in range(s):
            v[0] = v.sum(axis=0) if sub else psi
            for k, (prev, term) in enumerate(zip(v, v[1:]), 1):
                np.multiply(diag, prev, out=term)
                term += H @ prev
                term *= -1j * span / (s * k)
        flat = v.reshape(m + 1, -1)
        for tau in times[i + 1:j + 1] - times[i]:
            psi = ((tau / span) ** np.arange(m + 1) @ flat).reshape(psi.shape)
            psi *= np.exp(-1j * shift * tau)
            yield psi


def _time_grid(times) -> np.ndarray:
    """`times` as floats after the checks of every time grid: finite, 1-D,
    at least two samples, starting at 0 and strictly increasing."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"sample times must be finite, got {times}")
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two sample times")
    if abs(times[0]) > 1e-15:
        raise ValueError("time grid must start at t = 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return times


def _checked(hamiltonian, initial, n_emitters, times):
    """(CSR H, initial vector, float times) after the checks every
    propagation makes: a valid time grid (`_time_grid`), finite H and
    state of matching dimensions, and an even number of photon amplitudes
    after the `n_emitters` emitter ones."""
    times = _time_grid(times)
    H = csr_array(hamiltonian, dtype=complex)
    if not np.all(np.isfinite(H.data)):
        raise ValueError("hamiltonian contains non-finite entries")
    psi0 = np.asarray(initial, dtype=complex)
    if psi0.ndim != 1 or not np.all(np.isfinite(psi0)):
        raise ValueError("initial state must be a vector of finite amplitudes")
    require_count("n_emitters", n_emitters, 0)
    if n_emitters > psi0.size or (psi0.size - n_emitters) % 2:
        raise ValueError(f"{psi0.size} amplitudes are not {n_emitters} "
                         "emitters followed by two per cell")
    if H.shape != (psi0.size, psi0.size):
        raise ValueError("state dimension does not match the hamiltonian")
    return H, psi0, times


def evolve(hamiltonian, initial, n_emitters: int,
           times: Sequence[float]) -> np.ndarray:
    """Propagate the amplitude vector `initial` (its first `n_emitters`
    entries the emitters', the rest the photon modes') under `hamiltonian`
    (CSR, or anything `csr_array` takes) and sample at `times`: row k of the
    returned (n_steps, n_emitters + 2N) array is the state at `times[k]`.

    Times must be finite, start at 0 and increase; H and the state must be
    finite.  Every chunk of intervals with ||H - mu I||_1 T <= 2, uniform
    grid or not, is one bounded Taylor expansion under the off-diagonal CSR
    plus the diagonal less its mean mu = trace(H)/dim, times the exact
    factor exp(-i mu tau) (see `_taylor_steps`).
    """
    H, psi0, times = _checked(hamiltonian, initial, n_emitters, times)
    d = H.diagonal()
    mu = d.mean()
    off = H - diags_array(d, format="csr")
    amps = np.empty((times.size, psi0.size), dtype=complex)
    for k, psi in enumerate(_taylor_steps(off, mu, psi0, times, d - mu)):
        amps[k] = psi
    return amps


def stacked_cell_weights(hamiltonians: Iterable, initial, n_emitters: int,
                         times: Sequence[float]) -> np.ndarray:
    """Photon weight per cell of every system, shape (n_steps, n_systems, N).

    Propagates `initial` (as in `evolve`) under each Hamiltonian, under the
    same checks, and keeps only the cell weights of each step, not the
    amplitudes.  The Hamiltonians (all of one dimension) must agree off the
    diagonal, as those of one lattice at several loss rates do: the states
    are the columns of one (dim, n_systems) block, stepped by the kernel of
    `evolve` with one shared CSR of the off-diagonal part and each system's
    diagonal less its mean.
    """
    off, diagonals = None, []
    for H in hamiltonians:
        H, psi0, times = _checked(H, initial, n_emitters, times)
        d = H.diagonal()
        H = H - diags_array(d, format="csr")
        if off is None:
            off = H
        elif (H != off).nnz:
            raise ValueError("the hamiltonians differ off the diagonal")
        diagonals.append(d)
    if off is None:
        raise ValueError("need at least one hamiltonian")
    diag = np.column_stack(diagonals)
    mu = diag.mean(axis=0)
    diag -= mu
    ne = n_emitters
    weights = np.empty((times.size, mu.size, (psi0.size - ne) // 2))
    block = np.repeat(psi0[:, None], mu.size, axis=1)
    for k, psi in enumerate(_taylor_steps(off, mu, block, times, diag)):
        weights[k] = cell_weights(np.abs(psi[ne:].T) ** 2)
    return weights


def emitter_populations(amplitudes: np.ndarray, n_emitters: int) -> np.ndarray:
    """|amplitude|^2 of every emitter at every sample of `evolve`'s array,
    shape (n_steps, n_emitters)."""
    return np.abs(amplitudes[:, :n_emitters]) ** 2


def photon_density(amplitudes: np.ndarray, n_emitters: int) -> np.ndarray:
    """Original-picture photon mode populations of `evolve`'s array, shape
    (n_steps, 2N); the mapped ones are
    np.abs(rotate_cells(amplitudes[:, n_emitters:])) ** 2."""
    return np.abs(amplitudes[:, n_emitters:]) ** 2


def cell_weights(density: np.ndarray) -> np.ndarray:
    """Photon weight per cell, a + b, from mode populations (..., 2N) ->
    (..., N)."""
    return density[..., 0::2] + density[..., 1::2]


def localization_report(times: Sequence[float], weights: np.ndarray,
                        atom_cell: int, t_average: float,
                        periodic: bool = False) -> np.ndarray:
    """Time-averaged split of the photonic weight around an emitter's cell.

    Averages the cell weights, shape (n_steps, N) at `times` (see
    `cell_weights`; a grid as `evolve` takes), over [0, t_average] and
    returns the float array (P_loc, P_L, P_R).  The probabilities are
    conditioned on the photon being in the field and sum to 1.  "Local"
    means the emitter's cell and the one to its right (cells are 1-based;
    on the ring, `periodic`, the local pair of cell N is (N, 1)), the pair
    that hosts the bound photonic cloud in the fully directional regime;
    left and right are the other cells below and above the emitter's.
    """
    require_positive("t_average", t_average)
    times = np.asarray(times, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if times.ndim != 1 or times.size < 2 or weights.shape[:1] != times.shape \
            or weights.ndim != 2:
        raise ValueError(f"need cell weights of shape (n_steps, N) at n_steps "
                         f">= 2 sample times, got {weights.shape} at "
                         f"{times.shape}")
    times = _time_grid(times)
    if t_average > times[-1] + 1e-12:
        raise ValueError("t_average exceeds the sampled time span")
    n = np.searchsorted(times, t_average + 1e-12, side="right")
    if n < 2:
        raise ValueError(f"t_average {t_average} is shorter than the first "
                         f"time step {times[1]}")
    n_cells = weights.shape[1]
    require_index("atom_cell", atom_cell, n_cells)
    avg = np.trapezoid(weights[:n], times[:n], axis=0) / (times[n - 1]
                                                          - times[0])
    c = atom_cell - 1
    wrap = periodic and atom_cell == n_cells  # cell 1 is cell N's partner
    local = avg[c] + (avg[(c + 1) % n_cells] if c + 1 < n_cells or wrap else 0.0)
    left, right = avg[int(wrap):c].sum(), avg[c + 2:].sum()
    total = local + left + right
    if total <= 0:
        raise ValueError("no photonic weight accumulated; nothing to localize")
    return np.array([local, left, right]) / total


def fit_decay_rate(times: Sequence[float], population: Sequence[float],
                   t_min: float, t_max: float) -> float:
    """Exponential decay rate of a population from a log-linear fit.

    Fits log(p) = -rate * t + c over t_min <= t <= t_max and returns rate,
    the decay rate of the series it is given.  Fed a population |c|^2 it
    returns the population rate: for an emitter with self-energy -i Gamma
    (amplitude ~ exp(-Gamma t)) that rate is 2 Gamma, not Gamma.
    """
    times = np.asarray(times, dtype=float)
    population = np.asarray(population, dtype=float)
    mask = (times >= t_min) & (times <= t_max) & (population > 0)
    if mask.sum() < 2:
        raise ValueError("fit window contains fewer than two usable samples")
    slope = np.polyfit(times[mask], np.log(population[mask]), 1)[0]
    return float(-slope)
