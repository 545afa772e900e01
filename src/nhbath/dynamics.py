"""Non-unitary time evolution and derived observables."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import block_diag, csr_array

from .params import require_count, require_index, require_positive


@dataclass
class Trajectory:
    """Sampled solution of i d(psi)/dt = H psi for a non-Hermitian H.

    `amplitudes[k]` is the state vector at `times[k]`, shape
    (n_steps, n_emitters + 2N) in the original picture, emitters first;
    `norm_history` tracks the decaying norm (the lost weight is the
    emitted/absorbed population).
    """

    times: np.ndarray
    amplitudes: np.ndarray
    n_emitters: int

    @property
    def n_steps(self) -> int:
        return self.times.size

    @property
    def norm_history(self) -> np.ndarray:
        return np.linalg.norm(self.amplitudes, axis=1)


def _taylor_degree(x: float) -> int:
    """Least m with x^(m+1)/(m+1)! * e^x <= 2^-53: then the degree-m Taylor
    polynomial T_m(B) of exp(B) obeys ||exp(B) - T_m(B)||_1 <= 2^-53 for
    every matrix B with ||B||_1 <= x, normal or not."""
    m, bound = 0, x * math.exp(x)
    while bound > 2.0 ** -53:
        m += 1
        bound *= x / (m + 1)
    return m


def _taylor_steps(H: csr_array, psi: np.ndarray, times: np.ndarray):
    """Yield the solution of i d(psi)/dt = H psi at every sample time.

    Each interval dt is one step exp(A) psi with A = -i H dt, taken as
    s = ceil(||A||_1) substeps of the degree-m Taylor polynomial of
    exp(A/s), m = _taylor_degree(||A||_1 / s) (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)).  ||A/s||_1 <= 1 keeps the rounding of
    the series small, and the truncation bound holds a priori, so no step
    is checked after the fact.  ||H||_1 is computed exactly, once.
    """
    norm = float(abs(H).sum(axis=0).max())
    yield psi
    for dt in np.diff(times):
        s = max(1, math.ceil(norm * dt))
        m = _taylor_degree(norm * dt / s)
        c = -1j * dt / s
        for _ in range(s):
            term, psi = psi, psi.copy()
            for j in range(1, m + 1):
                term = H @ term
                term *= c / j
                psi += term
        yield psi


def _checked(hamiltonian, initial, n_emitters, times):
    """(CSR H, initial vector, float times) after the checks every
    propagation makes: finite times starting at 0 and increasing, finite
    H and state of matching dimensions, and an even number of photon
    amplitudes after the `n_emitters` emitter ones."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"sample times must be finite, got {times}")
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two sample times")
    if abs(times[0]) > 1e-15:
        raise ValueError("time grid must start at t = 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
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
           times: Sequence[float]) -> Trajectory:
    """Propagate the amplitude vector `initial` (its first `n_emitters`
    entries the emitters', the rest the photon modes') under `hamiltonian`
    (CSR, or anything `csr_array` takes) and sample at `times`.

    Times must be finite, start at 0 and increase; H and the state must be
    finite.  Every interval, uniform grid or not, is one bounded Taylor
    step on H in CSR form (see `_taylor_steps`).
    """
    H, psi0, times = _checked(hamiltonian, initial, n_emitters, times)
    amps = np.empty((times.size, psi0.size), dtype=complex)
    for k, psi in enumerate(_taylor_steps(H, psi0, times)):
        amps[k] = psi
    return Trajectory(times.copy(), amps, int(n_emitters))


def stacked_cell_weights(hamiltonians: Iterable, initial, n_emitters: int,
                         times: Sequence[float]) -> np.ndarray:
    """Photon weight per cell of every system, shape (n_steps, n_systems, N).

    Propagates `initial` (as in `evolve`) under each Hamiltonian (all of one
    dimension) as one block-diagonal CSR system with the kernel of `evolve`,
    under the same checks, and keeps only the cell weights of each step,
    not the amplitudes.
    """
    blocks = []
    for H in hamiltonians:
        H, psi0, times = _checked(H, initial, n_emitters, times)
        blocks.append(H)
    if not blocks:
        raise ValueError("need at least one hamiltonian")
    stack = block_diag(blocks, format="csr")
    n_sys, ne = len(blocks), n_emitters
    weights = np.empty((times.size, n_sys, (psi0.size - ne) // 2))
    for k, psi in enumerate(_taylor_steps(stack, np.tile(psi0, n_sys), times)):
        weights[k] = cell_weights(np.abs(psi.reshape(n_sys, -1)[:, ne:]) ** 2)
    return weights


def emitter_populations(traj: Trajectory) -> np.ndarray:
    """|amplitude|^2 of every emitter at every sample, shape (n_steps, n_e)."""
    return np.abs(traj.amplitudes[:, :traj.n_emitters]) ** 2


def photon_density(traj: Trajectory) -> np.ndarray:
    """Original-picture photon mode populations, shape (n_steps, 2N); the
    mapped ones are np.abs(rotate_cells(photon amplitudes)) ** 2."""
    return np.abs(traj.amplitudes[:, traj.n_emitters:]) ** 2


@dataclass(frozen=True)
class LocalizationReport:
    """Time-averaged split of the photonic weight around an emitter's cell.

    Probabilities are conditioned on the photon being in the field and
    normalized so p_local + p_left + p_right == 1.  "Local" means the
    emitter's cell and the one to its right (cell 1 for cell N on the ring),
    the pair that hosts the bound photonic cloud in the fully directional
    regime; left and right are the other cells below and above the emitter's.
    """

    p_local: float
    p_left: float
    p_right: float
    atom_cell: int
    t_average: float


def cell_weights(density: np.ndarray) -> np.ndarray:
    """Photon weight per cell, a + b, from mode populations (..., 2N) ->
    (..., N)."""
    return density[..., 0::2] + density[..., 1::2]


def localization_report(times: Sequence[float], weights: np.ndarray,
                        atom_cell: int, t_average: float,
                        periodic: bool = False) -> LocalizationReport:
    """Average the cell weights, shape (n_steps, N) at `times` (see
    `cell_weights`), over [0, t_average] and split them into local /
    left-of-emitter / right-of-emitter weights (cells are 1-based).  On the
    ring (`periodic`) the local pair of cell N is (N, 1)."""
    require_positive("t_average", t_average)
    times = np.asarray(times, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if times.ndim != 1 or times.size < 2 or weights.shape[:1] != times.shape \
            or weights.ndim != 2:
        raise ValueError(f"need cell weights of shape (n_steps, N) at n_steps "
                         f">= 2 sample times, got {weights.shape} at "
                         f"{times.shape}")
    if t_average > times[-1] + 1e-12:
        raise ValueError("t_average exceeds the sampled time span")
    mask = times <= t_average + 1e-12
    if mask.sum() < 2:
        raise ValueError(f"t_average {t_average} is shorter than the first "
                         f"time step {times[1]}")
    tms = times[mask]
    n_cells = weights.shape[1]
    require_index("atom_cell", atom_cell, n_cells)
    avg = np.trapezoid(weights[mask], tms, axis=0) / (tms[-1] - tms[0])
    c = atom_cell - 1
    wrap = periodic and atom_cell == n_cells  # cell 1 is cell N's partner
    local = avg[c] + (avg[(c + 1) % n_cells] if c + 1 < n_cells or wrap else 0.0)
    left = float(avg[int(wrap):c].sum())
    right = float(avg[c + 2:].sum())
    total = local + left + right
    if total <= 0:
        raise ValueError("no photonic weight accumulated; nothing to localize")
    return LocalizationReport(float(local / total), left / total,
                              right / total, atom_cell, float(t_average))


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
