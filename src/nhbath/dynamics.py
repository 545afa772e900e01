"""Non-unitary time evolution and derived observables."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from .params import SingleExcitationState, require_index, require_positive


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


def evolve(hamiltonian: np.ndarray, initial: SingleExcitationState,
           times: Sequence[float], tol: float = 1e-9) -> Trajectory:
    """Propagate `initial` under `hamiltonian` and sample at `times`.

    Times must be finite, start at 0 and increase; H and the state must be
    finite.  On a uniform grid one cached dense step exponential
    expm(-i H dt) is applied per step.  The stepped state at the final time
    is checked against a reference exp(-i H t_max) psi0 computed by
    `expm_multiply` on a CSR copy of H, which never forms the dense
    exponential; if they differ by more than tol * max(1, |reference|), every
    sample is recomputed as expm(-i H t) psi0.  Non-uniform grids always use
    those per-sample exponentials.  `expm_multiply` estimates 1-norms with
    `onenormest`, which draws from numpy's global random state (so a call
    advances that state); the stepped amplitudes never depend on it, and
    the reference enters only through the drift test.
    """
    H = np.asarray(hamiltonian, dtype=complex)
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError(f"sample times must be finite, got {times}")
    if times.ndim != 1 or times.size < 2:
        raise ValueError("need at least two sample times")
    if abs(times[0]) > 1e-15:
        raise ValueError("time grid must start at t = 0")
    dts = np.diff(times)
    if np.any(dts <= 0):
        raise ValueError("times must be strictly increasing")
    if not np.all(np.isfinite(H)):
        raise ValueError("hamiltonian contains non-finite entries")
    psi0 = initial.vector()
    if not np.all(np.isfinite(psi0)):
        raise ValueError("initial state contains non-finite amplitudes")
    if H.shape[0] != psi0.size:
        raise ValueError("state dimension does not match the hamiltonian")

    uniform = np.allclose(dts, dts[0], rtol=1e-12, atol=0.0)
    amps = np.empty((times.size, psi0.size), dtype=complex)
    amps[0] = psi0
    if uniform:
        U = expm(-1j * H * dts[0])
        for k in range(1, times.size):
            amps[k] = U @ amps[k - 1]
        ref = expm_multiply(-1j * times[-1] * csr_matrix(H), psi0)
        if np.linalg.norm(amps[-1] - ref) > tol * max(1.0, np.linalg.norm(ref)):
            uniform = False  # stepping drifted; fall back to direct sampling
    if not uniform:
        for k in range(1, times.size):
            amps[k] = expm(-1j * H * times[k]) @ psi0
    return Trajectory(times.copy(), amps, initial.n_emitters)


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


def localization_report(traj: Trajectory, atom_cell: int, t_average: float,
                        periodic: bool = False) -> LocalizationReport:
    """Average the photonic density over [0, t_average] and split it into
    local / left-of-emitter / right-of-emitter weights (cells are 1-based).
    On the ring (`periodic`) the local pair of cell N is (N, 1)."""
    require_positive("t_average", t_average)
    times = traj.times
    if t_average > times[-1] + 1e-12:
        raise ValueError("t_average exceeds the sampled time span")
    mask = times <= t_average + 1e-12
    if mask.sum() < 2:
        raise ValueError(f"t_average {t_average} is shorter than the first "
                         f"time step {times[1]}")
    dens = photon_density(traj)[mask]
    tms = times[mask]
    cell_prob = dens[:, 0::2] + dens[:, 1::2]
    n_cells = cell_prob.shape[1]
    require_index("atom_cell", atom_cell, n_cells)
    avg = np.trapezoid(cell_prob, tms, axis=0) / (tms[-1] - tms[0])
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
